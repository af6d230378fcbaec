// Per-run dependency graphs, critical-path extraction, and attribution.
//
// PR 3's issue-slot accounts say where cycles *went*; they cannot say
// whether removing a stall would have shortened the run, because a stall
// off the critical path costs nothing. This module captures, per machine
// run, the DAG of events that had to happen in order — spawn -> child
// activation, memory issue -> wake, full/empty hand-off -> resume,
// coalesced compute runs, lock release -> acquire — with every edge split
// into a *scalable* cost (tied to one what-if knob: compute spacing,
// memory latency, sync cost, spawn cost) and a *fixed* remainder
// (queueing / arbitration that no knob owns). The longest weighted path
// through the DAG is the run's critical path; walking it backwards
// attributes the whole recorded runtime, category by category and region
// by region, and obs/whatif.hpp replays the same graph with scaled edge
// weights to *predict* the runtime under a changed machine (validated by
// re-simulation in tests/obs_whatif_test.cpp).
//
// Capture is opt-in (--critpath / an installed CritPathStore) and must
// never perturb simulated time: the emitters only observe event times the
// machine already computed. See docs/CRITICAL_PATH.md for the full model.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Edge categories, doubling as the four what-if knobs. As an attribution
/// category the kind names what the critical path was waiting on; as a
/// knob it names the machine cost a what-if projection scales.
enum class DepKind : std::uint8_t {
  kCompute = 0,  ///< issue spacing / ALU progress (knob: compute cost)
  kMemory = 1,   ///< memory-network round trips (knob: memory latency)
  kSync = 2,     ///< full/empty hand-offs, locks, barriers (knob: sync cost)
  kSpawn = 3,    ///< stream/thread creation (knob: spawn cost)
};
inline constexpr std::size_t kNumDepKinds = 4;

/// Attribution name: "compute", "memory", "sync", "spawn".
[[nodiscard]] const char* dep_kind_name(DepKind k);
/// Knob name used in projections and reports: "compute",
/// "memory_latency", "sync_cost", "spawn_cost".
[[nodiscard]] const char* dep_knob_label(DepKind k);

/// A dependency: the target node could not happen before
/// pred.time + fixed + factor(knob) * weight.
struct DepEdge {
  std::uint32_t pred = 0;
  float weight = 0.0f;  ///< scalable cost, multiplied by the knob's factor
  float fixed = 0.0f;   ///< unscaled remainder (queueing), bucket "queue"
  DepKind kind = DepKind::kCompute;  ///< attribution category of `weight`
  DepKind knob = DepKind::kCompute;  ///< what-if knob scaling `weight`
};

/// One event that happened at a recorded simulated time. Nodes are created
/// in dependency order (every edge points at an earlier node), so node
/// index order is a topological order.
struct DepNode {
  double time = 0.0;  ///< recorded event time (cycles or seconds)
  std::uint32_t first_edge = 0;
  std::uint32_t num_edges = 0;
  std::int32_t region = -1;  ///< mta::region id, -1 when unattributed
};

/// A throughput bound the dependency path cannot see: even a perfectly
/// overlapped run cannot finish before the busiest shared resource has
/// served its total demand. `amount` is that service time in the graph's
/// unit; when `scaled`, a what-if projection multiplies it by the knob's
/// factor (e.g. halving memory bandwidth doubles the bus bound).
struct DepResource {
  std::string name;  ///< "issue", "network", "cpu", "bus"
  DepKind knob = DepKind::kCompute;
  bool scaled = false;
  double amount = 0.0;
};

/// The whole per-run DAG. Built incrementally by a machine model: add_node
/// appends the next event (all of whose predecessors already exist), then
/// add_edge attaches that event's incoming dependencies.
struct DepGraph {
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  std::string model;  ///< "mta" or "smp"
  std::string name;   ///< machine config name
  std::string unit;   ///< "cycles" or "seconds"
  double total = 0.0;           ///< recorded run length
  std::uint32_t end_node = 0;   ///< the run-end event
  std::vector<DepNode> nodes;
  std::vector<DepEdge> edges;
  std::vector<std::string> region_names;  ///< indexed by DepNode::region
  std::vector<DepResource> resources;

  std::uint32_t add_node(double time, std::int32_t region = -1) {
    DepNode n;
    n.time = time;
    n.first_edge = static_cast<std::uint32_t>(edges.size());
    n.region = region;
    nodes.push_back(n);
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }

  /// Adds an incoming edge to the most recently added node. Must not be
  /// interleaved with add_node for other nodes (edges are stored as one
  /// contiguous span per node).
  void add_edge(std::uint32_t pred, DepKind kind, DepKind knob, double weight,
                double fixed = 0.0) {
    DepEdge e;
    e.pred = pred;
    e.weight = static_cast<float>(weight);
    e.fixed = static_cast<float>(fixed);
    e.kind = kind;
    e.knob = knob;
    edges.push_back(e);
    ++nodes.back().num_edges;
  }
};

/// One what-if projection stored with a run: scaling `knob` by `factor`
/// predicts a runtime of `predicted` (same unit as the run).
struct KnobProjection {
  std::string knob;
  double factor = 1.0;
  double predicted = 0.0;
  bool operator==(const KnobProjection&) const = default;
};

/// A resource bound restated as part of the summary (service time share of
/// the recorded runtime).
struct CritPathResource {
  std::string name;
  double bound = 0.0;  ///< total service time in the run's unit
  bool operator==(const CritPathResource&) const = default;
};

/// Per-region share of the critical path (weight in the run's unit).
struct CritPathRegion {
  std::string name;
  double weight = 0.0;
  bool operator==(const CritPathRegion&) const = default;
};

/// Everything the RunReport keeps from a captured graph: the recorded
/// runtime attributed along the critical path (the six buckets sum to
/// `total`), the dependency-path length and resource bounds at identity,
/// and the standard what-if projections. Lives in RunRecord and round-trips
/// through report JSON (schema v3).
struct CritPathSummary {
  bool present = false;
  std::string unit;       ///< "cycles" or "seconds"
  double total = 0.0;     ///< recorded run length
  double path_length = 0.0;     ///< dependency path at identity scales
  double resource_bound = 0.0;  ///< largest resource bound at identity
  std::string binding_resource;  ///< name of that resource ("" if none)
  double coverage = 0.0;  ///< max(path, bound) / total — model reliability

  // Critical-path attribution; compute+memory+sync+spawn+queue+gap == total.
  double compute = 0.0;  ///< issue spacing / ALU progress
  double memory = 0.0;   ///< memory round-trip latency
  double sync = 0.0;     ///< full/empty hand-offs, locks, barriers
  double spawn = 0.0;    ///< stream/thread creation costs
  double queue = 0.0;    ///< network/bus queueing (fixed edge parts)
  double gap = 0.0;      ///< issue arbitration slack (node lag behind its
                         ///< binding dependency; the saturation signature)

  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::vector<CritPathResource> resources;
  std::vector<CritPathRegion> regions;
  std::vector<KnobProjection> projections;
  bool operator==(const CritPathSummary&) const = default;
};

/// Extracts the critical path of `graph`, attributes the recorded runtime,
/// and computes the standard what-if projections (each knob at 0.5x and
/// 2x). Returns a summary with present == false for an empty graph.
[[nodiscard]] CritPathSummary summarize(const DepGraph& graph);

/// Opt-in signal and (for tests) retention of captured graphs. A machine
/// model captures a dependency graph iff active_critpath() is non-null at
/// construction; at run end it embeds the summary in its RunRecord and
/// hands the graph to add(), which keeps it only when retain_graphs (the
/// --critpath session store does not retain — summaries are enough for
/// reports; tests retain to project and re-simulate).
class CritPathStore {
 public:
  explicit CritPathStore(bool retain_graphs = false)
      : retain_(retain_graphs) {}
  CritPathStore(const CritPathStore&) = delete;
  CritPathStore& operator=(const CritPathStore&) = delete;

  [[nodiscard]] bool retain_graphs() const { return retain_; }

  void add(DepGraph graph);

  [[nodiscard]] std::vector<DepGraph> graphs() const;
  [[nodiscard]] std::size_t size() const;

 private:
  bool retain_;
  mutable std::mutex mu_;
  std::vector<DepGraph> graphs_;
};

/// The store machine models check: the calling thread's override when a
/// ScopedCritPath is active, otherwise the process-wide store installed by
/// RunSession --critpath (null -> capture off, zero overhead).
[[nodiscard]] CritPathStore* active_critpath();

/// The process-wide store, ignoring any thread-local override.
[[nodiscard]] CritPathStore* process_critpath();
void set_process_critpath(CritPathStore* store);

/// Redirects active_critpath() on the current thread for this object's
/// lifetime (nests; restores the previous override on destruction).
class ScopedCritPath {
 public:
  explicit ScopedCritPath(CritPathStore& store);
  ScopedCritPath(const ScopedCritPath&) = delete;
  ScopedCritPath& operator=(const ScopedCritPath&) = delete;
  ~ScopedCritPath();

 private:
  CritPathStore* prev_;
};

}  // namespace tc3i::obs
