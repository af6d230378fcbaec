// Live sweep telemetry: the one record of every sweep point, with watchdog
// anomaly detection.
//
// Everything else in src/obs/ is post-hoc — counters, records and reports
// materialize when the run ends, which is useless for steering (or even
// just trusting) an hour-long sweep. LiveBus closes that gap, and it is
// also the only host-side recording call: sim::run_sweep reports each
// point to it once (begin_sweep / begin_point / end_point, with explicit
// bus-clock timestamps), and one mutex guards the two things those calls
// maintain — the list of completed point spans (sweep, point, worker,
// submit / start / end) and a small per-worker slot (current point,
// heartbeat, points done) that grows on demand. Everything else is
// derived from the record:
//
//   - the LiveStatus snapshot — points done/total, cumulative throughput,
//     an ETA from the median completed-point duration, testbed-cache hit
//     rate, host RSS/CPU via obs::hostres, one state line per worker —
//     which LivePublisher folds every --status-period ms whenever a bus
//     is installed, writing it atomically (temp file + rename) to the
//     --status-out path when one is given;
//   - the watchdog, run by every fold: a point running longer than
//     watchdog.slow_point_k x the median completed-point duration, or a
//     worker whose heartbeat has been silent past
//     watchdog.heartbeat_timeout_seconds while it still holds work, raises
//     a LiveAnomaly ("slow_point" / "stalled_worker"), shown live in the
//     status file and persisted by RunSession into the RunReport's
//     "anomalies" section;
//   - the --progress ticker's throughput and ETA (progress());
//   - the --sweep-trace-out Chrome trace of the sweep scheduler and the
//     RunReport's host.sched totals (write_chrome_trace(), summary()).
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
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/hostres.hpp"

namespace tc3i::obs {

class JsonWriter;

/// Watchdog thresholds, checked by every fold (LiveBus::snapshot).
struct WatchdogConfig {
  /// A running point is anomalous past k x median-of-completed-points.
  double slow_point_k = 8.0;
  /// Completed-point samples needed before slow-point gating arms (a
  /// median of one point is not a baseline).
  std::size_t slow_point_min_samples = 8;
  /// Absolute floor for the slow-point threshold: microsecond points give
  /// a microsecond median, and scheduling jitter alone would trip it.
  double slow_point_min_seconds = 0.25;
  /// A worker still holding work whose heartbeat is older than this is
  /// stalled (the heartbeat is refreshed on every point boundary, so
  /// silence means a wedged point).
  double heartbeat_timeout_seconds = 5.0;
};

/// One watchdog finding. `point` is LiveBus::kNoPoint when the stall
/// could not be pinned to a specific sweep point.
struct LiveAnomaly {
  std::string kind;  ///< "slow_point" or "stalled_worker"
  std::uint32_t worker = 0;
  std::uint64_t point = 0;
  double at_seconds = 0.0;         ///< bus clock when detected
  double observed_seconds = 0.0;   ///< how long the point ran / heartbeat age
  double threshold_seconds = 0.0;  ///< the limit it exceeded
};

/// One worker's state in a snapshot.
struct LiveWorkerStatus {
  std::uint32_t worker = 0;
  bool running = false;
  std::uint64_t current_point = 0;  ///< valid when running
  std::uint64_t points_done = 0;
  double heartbeat_age_seconds = 0.0;
  double point_age_seconds = 0.0;  ///< 0 when idle
};

/// One versioned fold of the bus. `version` increments per snapshot, so a
/// reader polling the status file can detect staleness; `done` is set
/// only by the final snapshot RunSession publishes at finish().
struct LiveStatus {
  std::uint64_t version = 0;
  double at_seconds = 0.0;
  bool done = false;
  std::string bench;
  std::string phase;
  std::uint64_t points_total = 0;
  std::uint64_t points_done = 0;
  double throughput_points_per_sec = 0.0;  ///< cumulative, not windowed
  double eta_seconds = 0.0;                ///< 0 when not estimable yet
  double median_point_seconds = 0.0;       ///< 0 until a point completed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  HostResUsage host;
  std::vector<LiveWorkerStatus> workers;  ///< touched workers, by index
  std::vector<LiveAnomaly> anomalies;     ///< cumulative since bus creation
};

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
/// and ages directly.
class LiveBus {
 public:
  static constexpr std::uint64_t kNoPoint = ~std::uint64_t{0};

  explicit LiveBus(WatchdogConfig watchdog = {});
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

  /// Testbed profile cache outcome (platforms::load_or_build_testbed).
  void record_cache(bool hit);

  // --- publisher / foreground side ---

  /// Names subsequent snapshots' "bench" field (RunSession sets it once).
  void set_bench(const std::string& bench);

  /// Labels subsequent snapshots ("table05", "threat-analysis/finegrained").
  void set_phase(const std::string& phase);

  /// Folds the record into a status snapshot as of `now_s`, runs the
  /// watchdog (new findings are appended to the cumulative anomaly list
  /// exactly once per (kind, worker, point)), and bumps the version.
  [[nodiscard]] LiveStatus snapshot(double now_s, bool done = false);

  /// Cumulative watchdog findings so far, without folding a snapshot.
  [[nodiscard]] std::vector<LiveAnomaly> anomalies() const;

  /// Cheap progress fold for the stderr ticker: completed/total points,
  /// cumulative throughput, and the median-based ETA as of `now_s`. No
  /// watchdog pass, no host sampling, no version bump.
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

  /// Serializes a snapshot as the LiveStatus JSON documented in
  /// docs/OBSERVABILITY.md (kind "live_status", schema_version 1).
  static void write_status_json(const LiveStatus& status, std::ostream& out);

  /// Publishes a snapshot atomically: writes `path` + ".tmp" then renames
  /// over `path`, so a concurrent reader sees either the previous or the
  /// new snapshot, never a torn one. Returns false with *error set on I/O
  /// failure.
  [[nodiscard]] static bool write_status_file(const LiveStatus& status,
                                              const std::string& path,
                                              std::string* error);

 private:
  struct WorkerSlot {
    bool running = false;
    std::uint32_t sweep = 0;
    std::uint64_t point = 0;
    double start_seconds = 0.0;
    double heartbeat_seconds = 0.0;
    std::uint64_t points_done = 0;

    /// False for slots that never began a point (not reported).
    [[nodiscard]] bool touched() const { return running || points_done > 0; }
  };

  [[nodiscard]] Progress progress_locked(double now_s) const;

  const std::chrono::steady_clock::time_point anchor_;
  const WatchdogConfig watchdog_;

  mutable std::mutex mu_;  // guards every member below
  std::vector<SweepInfo> sweeps_;
  std::vector<PointSpan> spans_;
  std::vector<WorkerSlot> workers_;
  std::uint64_t points_total_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::string bench_;
  std::string phase_;
  std::uint64_t version_ = 0;
  std::vector<LiveAnomaly> anomalies_;
  /// Dedup keys: each (kind, worker, point) triple raises at most once.
  struct AnomalyKey {
    std::uint8_t kind;  // 0 = slow_point, 1 = stalled_worker
    std::uint32_t worker;
    std::uint64_t point;
    bool operator==(const AnomalyKey&) const = default;
  };
  std::vector<AnomalyKey> raised_;
};

/// Emits `anomalies` as a JSON array value (the caller has already emitted
/// the key): one object per anomaly with kind / worker / point (omitted
/// when unpinned) / at_seconds / observed_seconds / threshold_seconds.
/// Shared by the live status file and the RunReport's "anomalies" section
/// so both serialize identically.
void write_anomalies_json(JsonWriter& w,
                          const std::vector<LiveAnomaly>& anomalies);

/// Emits the six HostResUsage members (wall_seconds, user_cpu_seconds,
/// sys_cpu_seconds, max_rss_kb, minor_faults, major_faults) into the
/// object the caller has open. Shared by the live status file's and the
/// RunReport's "host" objects.
void write_host_usage_fields(JsonWriter& w, const HostResUsage& usage);

/// The process-global bus sim::run_sweep feeds, or null (the default — no
/// record, no clock calls). RunSession installs one for --status-out,
/// --progress and --sweep-trace-out.
[[nodiscard]] LiveBus* live_bus();
void set_live_bus(LiveBus* bus);

/// Background fold: snapshots `bus` every `period_ms` — which runs the
/// watchdog — and, when `path` is non-empty (--status-out), publishes
/// each snapshot there via LiveBus::write_status_file. finish() (or
/// destruction) stops the thread and folds one final snapshot with
/// done = true.
class LivePublisher {
 public:
  LivePublisher(LiveBus& bus, std::string path, int period_ms);
  LivePublisher(const LivePublisher&) = delete;
  LivePublisher& operator=(const LivePublisher&) = delete;
  ~LivePublisher();

  /// Stops the thread and folds (and publishes) the final done=true
  /// snapshot. Idempotent. Returns the number of snapshots published
  /// (incl. final; 0 without a path).
  std::uint64_t finish();

 private:
  void run();
  /// Writes `status` to path_ when there is one; true when written.
  bool publish(const LiveStatus& status, const char* what);

  LiveBus& bus_;
  std::string path_;  ///< empty: fold only (cleared after a failed write)
  std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finished_ = false;
  std::uint64_t published_ = 0;
  std::thread thread_;
};

}  // namespace tc3i::obs
