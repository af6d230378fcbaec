// Live sweep telemetry: a lock-free status bus with watchdog anomaly
// detection.
//
// Everything else in src/obs/ is post-hoc — counters, records and reports
// materialize when the run ends, which is useless for steering (or even
// just trusting) an hour-long sweep. LiveBus closes that gap: workers
// write per-worker progress cells wait-free (relaxed atomics on
// cache-line-isolated cells, no locks, no allocation on the worker path),
// and a background publisher folds the cells into a versioned LiveStatus
// snapshot — points done/total, cumulative throughput, an ETA derived
// from the median completed-point duration, testbed-cache hit rate, host
// RSS/CPU via obs::hostres, and one state line per worker — published
// atomically (write temp file, rename) to the --status-out JSON path
// every --status-period milliseconds, so readers never observe a torn
// file.
//
// The same fold runs a watchdog: a point that has been executing longer
// than watchdog.slow_point_k x the median completed-point duration, or a
// worker whose heartbeat has been silent past
// watchdog.heartbeat_timeout_seconds while it still holds work, raises a
// LiveAnomaly ("slow_point" / "stalled_worker"). Anomalies appear live in
// the status file and are persisted by RunSession into the RunReport and
// SweepReport "anomalies" sections (schema v5), so a stuck run is
// diagnosable both while it hangs and after it is killed.
//
// Determinism contract: the bus is sampled, never merged into any
// deterministic output. Simulation results, counters, RunRecords and
// timelines are untouched; workers only feed the bus when one is
// installed (live_bus() != nullptr), and the feed is a handful of relaxed
// stores per *point*, not per simulated event — so reports stay
// byte-identical at any --jobs and the sweep_telemetry bench
// regime stays within its <=5% overhead budget with the bus enabled.
#pragma once

#include <array>
#include <atomic>
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

/// Watchdog thresholds, checked by every publisher fold (LiveBus::snapshot).
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

/// The bus. Worker-side calls (add_points / begin_point / end_point /
/// complete_point / idle / record_cache) are wait-free: each is a
/// few relaxed atomic operations on the caller's own cell, safe from any
/// number of threads concurrently with the publisher's snapshot() fold.
/// Publisher-side calls (snapshot, set_phase, anomalies) serialize on an
/// internal mutex and are intended for one publisher thread plus
/// occasional foreground reads.
class LiveBus {
 public:
  /// Worker cells available; worker indices wrap modulo this, so an
  /// oversized --jobs merely shares cells (monitoring degrades gracefully,
  /// correctness is unaffected).
  static constexpr std::uint32_t kMaxWorkers = 256;
  /// Completed-point duration samples retained for the median (ring).
  static constexpr std::size_t kSampleCap = 512;
  static constexpr std::uint64_t kNoPoint = ~std::uint64_t{0};

  explicit LiveBus(WatchdogConfig watchdog = {});
  LiveBus(const LiveBus&) = delete;
  LiveBus& operator=(const LiveBus&) = delete;

  // --- worker side (wait-free) ---

  /// Announces `n` more sweep points (run_sweep entry).
  void add_points(std::uint64_t n);

  /// Worker `w` starts executing sweep point `point`.
  void begin_point(std::uint32_t w, std::uint64_t point);

  /// Worker `w` finished its current point (the duration is measured from
  /// the matching begin_point).
  void end_point(std::uint32_t w);

  /// Worker `w` finished sweep point `point` after `duration_ns`, for
  /// callers that time points themselves. Clears the running-point marker
  /// when it still names `point` (a newer begin_point may have
  /// overwritten it).
  void complete_point(std::uint32_t w, std::uint64_t point,
                      std::uint64_t duration_ns);

  /// Worker `w` drained its queue: clears the running-point marker so the
  /// watchdog stops ageing this worker.
  void idle(std::uint32_t w);

  /// Testbed profile cache outcome (platforms::load_or_build_testbed).
  void record_cache(bool hit);

  // --- publisher / foreground side ---

  /// Names subsequent snapshots' "bench" field (RunSession sets it once).
  void set_bench(const std::string& bench);

  /// Labels subsequent snapshots ("table05", "threat-analysis/finegrained").
  void set_phase(const std::string& phase);

  /// Folds the cells into a status snapshot, runs the watchdog (new
  /// findings are appended to the cumulative anomaly list exactly once
  /// per (kind, worker, point)), and bumps the version.
  [[nodiscard]] LiveStatus snapshot(bool done = false);

  /// Cumulative watchdog findings so far, without folding a snapshot.
  [[nodiscard]] std::vector<LiveAnomaly> anomalies() const;

  /// Cheap progress fold for the stderr ticker: completed/total points,
  /// cumulative throughput, and the median-based ETA. No watchdog pass,
  /// no host sampling, no version bump.
  struct Progress {
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    double points_per_sec = 0.0;
    double eta_seconds = 0.0;
    double median_point_seconds = 0.0;
  };
  [[nodiscard]] Progress progress() const;

  /// Seconds on the bus clock (steady, anchored at construction).
  [[nodiscard]] double now_seconds() const;

  [[nodiscard]] const WatchdogConfig& watchdog() const { return watchdog_; }

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
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> heartbeat_ns{0};
    std::atomic<std::uint64_t> point_start_ns{0};
    std::atomic<std::uint64_t> current_point{kNoPoint};
    std::atomic<std::uint64_t> points_done{0};
    std::atomic<std::uint32_t> touched{0};
  };

  [[nodiscard]] std::uint64_t now_ns() const;
  /// Median of the retained duration samples, in seconds (0 when empty).
  [[nodiscard]] double median_sample_seconds() const;
  /// Count of workers that have ever touched the bus.
  [[nodiscard]] std::uint32_t workers_seen() const;

  const std::uint64_t anchor_ns_;
  const WatchdogConfig watchdog_;
  std::atomic<std::uint64_t> points_total_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> sample_head_{0};
  std::array<std::atomic<std::uint64_t>, kSampleCap> samples_ns_{};
  std::array<Cell, kMaxWorkers> cells_{};

  mutable std::mutex mu_;  // phase, anomalies, version (publisher side)
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
/// Shared by the live status file and the RunReport / SweepReport v5
/// "anomalies" sections so all three serialize identically.
void write_anomalies_json(JsonWriter& w,
                          const std::vector<LiveAnomaly>& anomalies);

/// The process-global bus workers feed, or null (the default — the
/// worker-side hooks compile to a pointer test). RunSession installs one
/// for --status-out and --progress.
[[nodiscard]] LiveBus* live_bus();
void set_live_bus(LiveBus* bus);

/// Background publisher: snapshots `bus` every `period_ms` and publishes
/// to `path` via LiveBus::write_status_file. finish() (or destruction)
/// stops the thread and publishes one final snapshot with done = true.
class LivePublisher {
 public:
  LivePublisher(LiveBus& bus, std::string path, int period_ms);
  LivePublisher(const LivePublisher&) = delete;
  LivePublisher& operator=(const LivePublisher&) = delete;
  ~LivePublisher();

  /// Stops the publisher thread and writes the final done=true snapshot.
  /// Idempotent. Returns the number of snapshots published (incl. final).
  std::uint64_t finish();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void run();

  LiveBus& bus_;
  std::string path_;
  std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finished_ = false;
  std::uint64_t published_ = 0;
  std::thread thread_;
};

}  // namespace tc3i::obs
