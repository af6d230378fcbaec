// The sweep bus: the one host-side record of every sweep point.
//
// sim::run_sweep reports each point to the bus once (begin_sweep /
// begin_point / end_point, with explicit bus-clock timestamps), and one
// mutex guards the record those calls keep: the list of sweeps, the list
// of completed point spans (sweep, point, worker, submit / start / end),
// and a small per-worker slot holding the point in flight. The bus has
// exactly three readers, all derived from that record:
//
//   - the --progress ticker's throughput and ETA (progress());
//   - the RunReport's host.sched totals (summary());
//   - the --sweep-trace-out Chrome trace of the sweep scheduler
//     (write_chrome_trace()).
//
// The traffic is one lock per point boundary, and a bench runs tens of
// points, so the mutex costs nothing measurable.
//
// Determinism contract: the bus is sampled, never merged into any
// deterministic output. Simulation results, counters, RunRecords and
// timelines are untouched, and run_sweep feeds the bus (and reads the
// clock) only when one is installed (live_bus() != nullptr), so reports
// stay byte-identical at any --jobs with or without it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tc3i::obs {

/// One run_sweep invocation, recorded at begin_sweep; its id is its index.
struct SweepInfo {
  std::uint64_t points = 0;
  int jobs = 0;
  double submit_seconds = 0.0;  ///< bus clock; every point is queued then
};

/// One completed sweep point's life on the host, on the bus clock:
/// submitted with its sweep, picked up by `worker`, finished.
struct PointSpan {
  std::uint32_t sweep = 0;   ///< index into LiveBus::sweeps()
  std::uint64_t point = 0;   ///< point index within the sweep
  std::uint32_t worker = 0;  ///< worker lane that executed the point
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// The bus. Every call is thread-safe and serializes on one internal
/// mutex. Timestamps are seconds on the bus clock (now_seconds()); the
/// worker calls take them explicitly, so tests can set point durations
/// directly.
class LiveBus {
 public:
  LiveBus();
  LiveBus(const LiveBus&) = delete;
  LiveBus& operator=(const LiveBus&) = delete;

  // --- worker side (sim::run_sweep) ---

  /// Registers one sweep of `points` points on `jobs` workers, all
  /// submitted at `submit_s`; returns its id.
  std::uint32_t begin_sweep(std::uint64_t points, int jobs, double submit_s);

  /// Worker `w` starts point `point` of sweep `sweep` at `start_s`.
  void begin_point(std::uint32_t w, std::uint32_t sweep, std::uint64_t point,
                   double start_s);

  /// Worker `w` finishes its current point at `end_s`, completing one span.
  void end_point(std::uint32_t w, double end_s);

  // --- readers ---

  /// Progress fold for the stderr ticker: completed/total points,
  /// cumulative throughput, and the median-based ETA as of `now_s`.
  struct Progress {
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    double points_per_sec = 0.0;
    double eta_seconds = 0.0;
    double median_point_seconds = 0.0;
  };
  [[nodiscard]] Progress progress(double now_s) const;

  /// Scheduler totals for the RunReport's host.sched section.
  struct Summary {
    std::uint64_t sweeps = 0;
    std::uint64_t points = 0;
    int max_jobs = 0;
    double queue_wait_seconds = 0.0;  ///< sum of start - submit
    double execute_seconds = 0.0;     ///< sum of end - start
  };
  [[nodiscard]] Summary summary() const;

  [[nodiscard]] std::vector<PointSpan> spans() const;
  [[nodiscard]] std::vector<SweepInfo> sweeps() const;

  /// Chrome trace of the sweep scheduler: one "sweep scheduler" track,
  /// one lane (tid) per worker, and per point a Sched "queue s<i>.p<j>"
  /// span (submit -> start) followed by an execute span "run s<i>.p<j>"
  /// (start -> end), in (sweep, point) order.
  void write_chrome_trace(std::ostream& out) const;

  /// Writes the trace to `path` (creating parent directories). Returns
  /// false with *error set on I/O failure.
  [[nodiscard]] bool write_chrome_trace_file(const std::string& path,
                                             std::string* error) const;

  /// Seconds on the bus clock (steady, anchored at construction).
  [[nodiscard]] double now_seconds() const;

 private:
  /// The point a worker has in flight.
  struct WorkerSlot {
    bool seen = false;  ///< false for slots that never began a point
    bool running = false;
    std::uint32_t sweep = 0;
    std::uint64_t point = 0;
    double start_seconds = 0.0;
  };

  const std::chrono::steady_clock::time_point anchor_;

  mutable std::mutex mu_;  // guards every member below
  std::vector<SweepInfo> sweeps_;
  std::vector<PointSpan> spans_;
  std::vector<WorkerSlot> workers_;
  std::uint64_t points_total_ = 0;
};

/// The process-global bus sim::run_sweep feeds, or null (the default — no
/// record, no clock calls). RunSession installs one for --progress and
/// --sweep-trace-out.
[[nodiscard]] LiveBus* live_bus();
void set_live_bus(LiveBus* bus);

}  // namespace tc3i::obs
