// Fluid discrete-event model of a conventional shared-memory multiprocessor.
//
// Threads progress through their trace phases concurrently:
//   - compute drains at the per-processor rate (shared fairly when there are
//     more runnable threads than processors),
//   - memory traffic drains through the shared bus, divided max-min fairly
//     among the threads currently in a memory stage (a single thread is
//     additionally capped by its own front-end draw limit),
//   - locks serialize: an acquire on a held lock blocks the thread in FIFO
//     order until release,
//   - spawning threads is serialized at the master and costs
//     `thread_spawn_cycles` each, matching OS-thread behaviour of the era.
//
// The model is deterministic and runs in O(events * threads).
#pragma once

#include <vector>

#include "core/units.hpp"
#include "sim/trace.hpp"
#include "smp/config.hpp"
#include "smp/workload.hpp"

namespace tc3i::obs {
class TraceSink;
class RunRecordStore;
class TimelineStore;
}  // namespace tc3i::obs

namespace tc3i::smp {

/// Instrumentation hooks shared by Machine and its internal engine: the
/// optional trace sink captured from obs::global_sink() and the run-record
/// and timeline stores active at construction. Each run tallies its
/// counters ("smp." and "sim.fluid.water_fill." prefixes) in plain
/// integers and adds them once, by name, to obs::default_registry() when
/// it ends.
struct ObsHooks {
  obs::TraceSink* sink = nullptr;
  obs::RunRecordStore* records = nullptr;  ///< active_run_records() at ctor
  obs::TimelineStore* timeline = nullptr;  ///< active_timeline() at ctor
  std::uint32_t pid = 0;
};

struct RunResult {
  Seconds elapsed = 0.0;
  Instructions ops_executed = 0;
  Bytes bytes_transferred = 0;
  /// Fraction of the run during which the bus was saturated-equivalent:
  /// bytes_transferred / (elapsed * mem_bw_total).
  double bus_utilization = 0.0;
  /// Total time threads spent blocked on locks, summed over threads.
  Seconds lock_wait_total = 0.0;
  /// Per-thread busy time (computing or moving memory).
  std::vector<Seconds> thread_busy;
  /// Per-thread completion time.
  std::vector<Seconds> thread_finish;
};

class Machine {
 public:
  explicit Machine(SmpConfig config);

  [[nodiscard]] const SmpConfig& config() const { return config_; }

  /// Runs a single-threaded trace with no threading overheads
  /// (the paper's "sequential execution without parallelization").
  [[nodiscard]] RunResult run_sequential(const sim::ThreadTrace& trace) const;

  /// Runs a statically partitioned multithreaded workload.
  [[nodiscard]] RunResult run(const sim::WorkloadTrace& workload) const;

  /// Runs a dynamically scheduled task pool.
  [[nodiscard]] RunResult run_pool(const PoolWorkload& workload) const;

 private:
  SmpConfig config_;
  ObsHooks obs_;
};

}  // namespace tc3i::smp
