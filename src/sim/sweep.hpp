// Deterministic host-parallel sweep runner for the bench binaries.
//
// A sweep is an indexed family of independent experiment points (table
// rows, ablation grid cells, scaling curves). run_sweep() evaluates them on
// a pool of sthreads and returns the results in submission order, so a
// bench's output is independent of scheduling. Counter isolation: with
// jobs > 1 every point runs under its own obs::CounterRegistry
// (obs::ScopedRegistry, inherited by any sthreads the point spawns) and the
// per-point registries are merged into the caller's registry in submission
// order after all points finish — the counters sum, exactly as a serial
// run would leave them.
// Run records and sampled timelines get the same treatment: when the caller
// has an active RunRecordStore / TimelineStore, each point runs under its
// own store (obs::ScopedRunRecords / obs::ScopedTimeline) and the stores
// are merged back in submission order, so RunReport's machine_runs section
// and the --timeline-out CSV are byte-identical at any --jobs.
//
// jobs == 1 runs the points inline on the caller's thread and registry, with
// no pool and no isolation: byte-for-byte identical to the pre-sweep serial
// code path.
//
// Telemetry: both paths run each point through one per-point body, which
// records the point once on the session's obs::LiveBus, the one
// host-side recording call (when one is installed — RunSession does so for
// --progress and --sweep-trace-out). The bus derives the --progress ETA,
// the sweep-scheduler trace and the RunReport's host.sched totals from
// that one record. With no bus installed the sweep makes no clock calls
// of its own and records nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/live.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sim {

/// Maps a --jobs flag value to a worker count: 0 means
/// hardware_concurrency, anything else is used as-is (minimum 1).
[[nodiscard]] int resolve_jobs(int requested);

namespace detail {

/// Stderr progress ticker behind the session --progress flag: one
/// carriage-returned "[sweep] k/N  X pts/s eta Ys" line per completed
/// point, with throughput and ETA from the live bus (RunSession installs
/// one whenever --progress is set). Enabled only when the flag is set,
/// a bus is installed *and* stderr is a TTY; never touches stdout, so the
/// byte-identical-output guarantees of run_sweep are unaffected.
class SweepProgress {
 public:
  explicit SweepProgress(std::size_t count);
  SweepProgress(const SweepProgress&) = delete;
  SweepProgress& operator=(const SweepProgress&) = delete;
  ~SweepProgress();  // replaces the ticker with a final summary line

  /// Marks one point complete (thread-safe).
  void tick();

 private:
  std::size_t count_;
  obs::LiveBus* bus_;  ///< null when the ticker is disabled
  double start_s_ = 0.0;
  std::mutex mu_;
  std::size_t done_ = 0;
};

}  // namespace detail

/// Evaluates fn(0..count-1) with at most `jobs` points in flight and
/// returns the results indexed by point. fn must not depend on the
/// evaluation order of other points.
template <typename Fn>
auto run_sweep(std::size_t count, int jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  static_assert(!std::is_void_v<Result>,
                "sweep points must return a value (return 0 for effects)");
  TC3I_EXPECTS(jobs >= 1);
  std::vector<Result> results(count);
  if (count == 0) return results;
  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs), count);
  obs::LiveBus* bus = obs::live_bus();
  const std::uint32_t sweep =
      bus != nullptr ? bus->begin_sweep(count, static_cast<int>(workers),
                                        bus->now_seconds())
                     : 0;
  detail::SweepProgress progress(count);
  // The one per-point body of both paths: the point's single bus record
  // (clock reads only when a bus is installed).
  const auto run_point = [&](std::size_t i, std::uint32_t w) {
    if (bus != nullptr) bus->begin_point(w, sweep, i, bus->now_seconds());
    results[i] = fn(i);
    if (bus != nullptr) bus->end_point(w, bus->now_seconds());
    progress.tick();
  };
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) run_point(i, 0);
    return results;
  }

  std::vector<std::unique_ptr<obs::CounterRegistry>> registries(count);
  for (auto& r : registries) r = std::make_unique<obs::CounterRegistry>();
  // Per-point run-record / timeline stores, only when the caller collects
  // them at all (machines skip the work when the active store is null).
  obs::RunRecordStore* parent_records = obs::active_run_records();
  obs::TimelineStore* parent_timeline = obs::active_timeline();
  std::vector<std::unique_ptr<obs::RunRecordStore>> record_stores(count);
  std::vector<std::unique_ptr<obs::TimelineStore>> timeline_stores(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (parent_records != nullptr)
      record_stores[i] = std::make_unique<obs::RunRecordStore>();
    if (parent_timeline != nullptr)
      timeline_stores[i] = std::make_unique<obs::TimelineStore>(
          parent_timeline->sample_period_cycles());
  }
  std::atomic<std::size_t> next{0};
  {
    std::vector<sthreads::Thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w]() {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          obs::ScopedRegistry scope(*registries[i]);
          std::optional<obs::ScopedRunRecords> rec_scope;
          if (record_stores[i] != nullptr) rec_scope.emplace(*record_stores[i]);
          std::optional<obs::ScopedTimeline> tl_scope;
          if (timeline_stores[i] != nullptr)
            tl_scope.emplace(*timeline_stores[i]);
          run_point(i, static_cast<std::uint32_t>(w));
        }
      });
    }
    // Thread destructors join.
  }
  obs::CounterRegistry& mine = obs::default_registry();
  for (const auto& r : registries) mine.merge_from(*r);
  for (const auto& r : record_stores)
    if (r != nullptr) parent_records->merge_from(*r);
  for (const auto& t : timeline_stores)
    if (t != nullptr) parent_timeline->merge_from(*t);
  return results;
}

}  // namespace tc3i::sim
