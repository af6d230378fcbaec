// Per-machine-run accounting records.
//
// The counter registry aggregates across every machine run in a process,
// which is the right shape for totals but the wrong shape for attribution:
// "why was this run slow" needs the issue-slot account of that run alone.
// A RunRecord carries one machine run's worth of cycle accounting — the
// exclusive issue-slot categories for the MTA model, bus/lock shares for
// the SMP fluid model, and the per-region instruction rollup — and a
// RunRecordStore collects them in submission order so RunReport's
// "machine_runs" section is deterministic at any --jobs (sim::run_sweep
// gives each point its own store and merges them in submission order, the
// same contract ScopedRegistry provides for counters).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Exhaustive, exclusive issue-slot account of one MTA run (or the sum over
/// processors): every available slot — cycles x processors — is either used
/// or attributed to exactly one stall category. See docs/OBSERVABILITY.md
/// for the attribution rule.
struct IssueSlotAccount {
  std::uint64_t used = 0;       ///< instructions issued
  std::uint64_t no_stream = 0;  ///< processor had no live streams at all
  std::uint64_t spacing = 0;    ///< every live stream inside its 21-cycle
                                ///< issue spacing / lookahead window
  std::uint64_t spawn = 0;      ///< streams paying their creation cost
  std::uint64_t memory = 0;     ///< streams waiting on the memory network
                                ///< (incl. the post-hand-off network trip)
  std::uint64_t sync = 0;       ///< streams blocked on a full/empty bit

  [[nodiscard]] std::uint64_t stalled() const {
    return no_stream + spacing + spawn + memory + sync;
  }
  [[nodiscard]] std::uint64_t total() const { return used + stalled(); }

  IssueSlotAccount& operator+=(const IssueSlotAccount& o) {
    used += o.used;
    no_stream += o.no_stream;
    spacing += o.spacing;
    spawn += o.spawn;
    memory += o.memory;
    sync += o.sync;
    return *this;
  }
  bool operator==(const IssueSlotAccount&) const = default;
};

/// Per-region rollup from StreamProgram region annotations (see
/// mta::region_id): which part of the workload the issued instructions and
/// completed streams belonged to.
struct RegionRollup {
  std::string name;
  std::uint64_t streams = 0;        ///< streams completed in this region
  std::uint64_t instructions = 0;   ///< instructions those streams issued
  std::uint64_t stream_cycles = 0;  ///< summed activate->quit lifetimes
  bool operator==(const RegionRollup&) const = default;
};

/// One machine run's accounting. `model` selects which fields are
/// meaningful: "mta" fills cycles/slots/regions and the utilizations,
/// "smp" fills elapsed_seconds/bus_utilization/lock_wait_share (with
/// `utilization` holding the compute-capacity share).
struct RunRecord {
  std::string model;  ///< "mta" or "smp"
  std::string name;   ///< machine config name
  /// Workload scenario the run belonged to, taken from the calling
  /// thread's ScopedScenarioLabel when the record is added (empty when no
  /// label is active). Sweep aggregation (obs/aggregate.hpp) groups by it.
  std::string scenario;
  int processors = 1;
  std::uint64_t threads = 0;  ///< peak live streams (mta) / workers (smp)

  // MTA.
  std::uint64_t cycles = 0;
  std::uint64_t memory_ops = 0;
  IssueSlotAccount slots;
  double network_utilization = 0.0;
  std::vector<RegionRollup> regions;

  // SMP fluid model.
  double elapsed_seconds = 0.0;
  double bus_utilization = 0.0;
  double lock_wait_share = 0.0;  ///< lock wait / (elapsed x processors)

  /// Both models: fraction of issue/compute capacity actually used.
  double utilization = 0.0;

  /// Memberwise equality — what the report writer's run-length encoding of
  /// repeated machine_runs records (the "reps" field) relies on.
  bool operator==(const RunRecord&) const = default;
};

/// Append-only, thread-safe collection of RunRecords in add() order.
class RunRecordStore {
 public:
  RunRecordStore() = default;
  RunRecordStore(const RunRecordStore&) = delete;
  RunRecordStore& operator=(const RunRecordStore&) = delete;

  void add(RunRecord record);

  /// Appends every record of `other` (in its add() order) to this store.
  void merge_from(const RunRecordStore& other);

  [[nodiscard]] std::vector<RunRecord> records() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<RunRecord> records_;
};

/// The store machine models append to: the calling thread's override when a
/// ScopedRunRecords is active, otherwise the process-wide store installed
/// by RunSession (null when no session wants records — machines skip the
/// work entirely then).
[[nodiscard]] RunRecordStore* active_run_records();

/// The process-wide store, ignoring any thread-local override.
[[nodiscard]] RunRecordStore* process_run_records();
void set_process_run_records(RunRecordStore* store);

/// Redirects active_run_records() on the current thread for this object's
/// lifetime (nests; restores the previous override on destruction). Used by
/// sim::run_sweep to keep per-point records separable and by tests.
class ScopedRunRecords {
 public:
  explicit ScopedRunRecords(RunRecordStore& store);
  ScopedRunRecords(const ScopedRunRecords&) = delete;
  ScopedRunRecords& operator=(const ScopedRunRecords&) = delete;
  ~ScopedRunRecords();

 private:
  RunRecordStore* prev_;
};

/// The calling thread's active scenario label ("" when none): RunRecordStore
/// fills RunRecord::scenario from it, so machine models need no knowledge of
/// workload naming. Set it around the code that runs one scenario (the
/// platforms experiment layer does this for the C3I workloads).
[[nodiscard]] const std::string& current_scenario_label();

/// Installs `label` as the current thread's scenario label for this
/// object's lifetime (nests; restores the previous label on destruction).
class ScopedScenarioLabel {
 public:
  explicit ScopedScenarioLabel(std::string label);
  ScopedScenarioLabel(const ScopedScenarioLabel&) = delete;
  ScopedScenarioLabel& operator=(const ScopedScenarioLabel&) = delete;
  ~ScopedScenarioLabel();

 private:
  std::string prev_;
};

}  // namespace tc3i::obs
