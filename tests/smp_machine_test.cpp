// Analytic validation of the SMP fluid machine model: cases with
// closed-form answers, plus structural properties (lock serialization,
// bus sharing, dynamic balancing).
#include "smp/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/counters.hpp"
#include "obs/timeline.hpp"
#include "sim/sweep.hpp"
#include "smp/config.hpp"
#include "smp/workload.hpp"
#include "sthreads/parallel_for.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::smp {
namespace {

SmpConfig test_config(int procs = 4) {
  SmpConfig cfg;
  cfg.name = "test";
  cfg.num_processors = procs;
  cfg.clock_hz = 100e6;
  cfg.compute_rate_ips = 1e6;       // 1 op = 1 microsecond
  cfg.mem_bw_single = 1e6;          // 1 byte = 1 microsecond
  cfg.mem_bw_total = 2e6;           // bus sustains two full streams
  cfg.thread_spawn_cycles = 0.0;    // most tests want no stagger
  cfg.lock_cycles = 0.0;
  return cfg;
}

sim::ThreadTrace compute_trace(Instructions ops, Bytes bytes = 0) {
  sim::ThreadTrace t;
  t.compute(ops, bytes);
  return t;
}

TEST(SmpMachine, SequentialComputeTimeIsOpsOverRate) {
  const Machine m(test_config());
  const auto r = m.run_sequential(compute_trace(1'000'000));
  EXPECT_NEAR(r.elapsed, 1.0, 1e-9);
  EXPECT_EQ(r.ops_executed, 1'000'000u);
}

TEST(SmpMachine, SequentialMemoryTimeIsBytesOverSingleRate) {
  const Machine m(test_config());
  const auto r = m.run_sequential(compute_trace(0, 500'000));
  EXPECT_NEAR(r.elapsed, 0.5, 1e-9);
  EXPECT_EQ(r.bytes_transferred, 500'000u);
}

TEST(SmpMachine, ComputeAndMemoryAreAdditiveForOneThread) {
  const Machine m(test_config());
  const auto r = m.run_sequential(compute_trace(1'000'000, 1'000'000));
  EXPECT_NEAR(r.elapsed, 2.0, 1e-9);
}

TEST(SmpMachine, IndependentComputeThreadsRunFullyParallel) {
  const Machine m(test_config(4));
  sim::WorkloadTrace w;
  for (int i = 0; i < 4; ++i) w.threads.push_back(compute_trace(1'000'000));
  const auto r = m.run(w);
  EXPECT_NEAR(r.elapsed, 1.0, 1e-9);
}

TEST(SmpMachine, OversubscriptionSharesProcessors) {
  const Machine m(test_config(2));
  sim::WorkloadTrace w;
  for (int i = 0; i < 4; ++i) w.threads.push_back(compute_trace(1'000'000));
  const auto r = m.run(w);
  // 4 threads on 2 processors: each runs at half rate.
  EXPECT_NEAR(r.elapsed, 2.0, 1e-9);
}

TEST(SmpMachine, BusSharingLimitsMemoryBoundThreads) {
  const Machine m(test_config(4));
  sim::WorkloadTrace w;
  for (int i = 0; i < 4; ++i)
    w.threads.push_back(compute_trace(0, 1'000'000));
  const auto r = m.run(w);
  // 4 MB of traffic through a 2 MB/s bus: 2 seconds, not 1.
  EXPECT_NEAR(r.elapsed, 2.0, 1e-9);
  EXPECT_NEAR(r.bus_utilization, 1.0, 1e-6);
}

TEST(SmpMachine, MemoryBoundSpeedupBoundedByBusHeadroom) {
  SmpConfig cfg = test_config(4);
  const Machine m(cfg);
  const double seq = m.run_sequential(compute_trace(0, 4'000'000)).elapsed;
  sim::WorkloadTrace w;
  for (int i = 0; i < 4; ++i) w.threads.push_back(compute_trace(0, 1'000'000));
  const double par = m.run(w).elapsed;
  EXPECT_NEAR(seq / par, cfg.mem_bw_total / cfg.mem_bw_single, 1e-6);
}

TEST(SmpMachine, LocksSerializeCriticalSections) {
  const Machine m(test_config(4));
  sim::WorkloadTrace w;
  w.num_locks = 1;
  for (int i = 0; i < 4; ++i) {
    sim::ThreadTrace t;
    t.acquire(0);
    t.compute(1'000'000, 0);
    t.release(0);
    w.threads.push_back(std::move(t));
  }
  const auto r = m.run(w);
  // Entirely critical-section work: fully serialized.
  EXPECT_NEAR(r.elapsed, 4.0, 1e-9);
  // Three threads wait 1s, 2s, 3s respectively.
  EXPECT_NEAR(r.lock_wait_total, 6.0, 1e-6);
}

TEST(SmpMachine, DisjointLocksDoNotSerialize) {
  const Machine m(test_config(4));
  sim::WorkloadTrace w;
  w.num_locks = 4;
  for (int i = 0; i < 4; ++i) {
    sim::ThreadTrace t;
    t.acquire(i);
    t.compute(1'000'000, 0);
    t.release(i);
    w.threads.push_back(std::move(t));
  }
  EXPECT_NEAR(m.run(w).elapsed, 1.0, 1e-9);
}

TEST(SmpMachine, SpawnStaggerDelaysWorkers) {
  SmpConfig cfg = test_config(4);
  cfg.thread_spawn_cycles = 10e6;  // 0.1 s at 100 MHz
  const Machine m(cfg);
  sim::WorkloadTrace w;
  for (int i = 0; i < 2; ++i) w.threads.push_back(compute_trace(1'000'000));
  const auto r = m.run(w);
  // Worker 1 starts at 0.1 s, worker 2 at 0.2 s; each runs 1 s.
  EXPECT_NEAR(r.elapsed, 1.2, 1e-9);
}

TEST(SmpMachine, LockOverheadChargedPerAcquire) {
  SmpConfig cfg = test_config(1);
  cfg.lock_cycles = 50e6;  // 0.5 s at 100 MHz
  const Machine m(cfg);
  sim::WorkloadTrace w;
  w.num_locks = 1;
  sim::ThreadTrace t;
  t.acquire(0);
  t.compute(1'000'000, 0);
  t.release(0);
  w.threads.push_back(std::move(t));
  // acquire overhead 0.5 + compute 1.0 (release overhead is modeled inside
  // the acquire cost).
  EXPECT_NEAR(m.run(w).elapsed, 1.5, 1e-9);
}

TEST(SmpMachine, PoolBalancesUnevenTasks) {
  const Machine m(test_config(2));
  PoolWorkload pool;
  pool.num_workers = 2;
  // One 3s task and three 1s tasks: dynamic scheduling finishes in 3s
  // (one worker takes the big task, the other takes the three small ones).
  pool.tasks.push_back(compute_trace(3'000'000));
  for (int i = 0; i < 3; ++i) pool.tasks.push_back(compute_trace(1'000'000));
  EXPECT_NEAR(m.run_pool(pool).elapsed, 3.0, 1e-9);
}

TEST(SmpMachine, PoolStaticEquivalentIsSlower) {
  const Machine m(test_config(2));
  // Static split of the same tasks: {3s, 1s} vs {1s, 1s} -> 4s.
  sim::WorkloadTrace w;
  sim::ThreadTrace a;
  a.compute(3'000'000, 0);
  a.compute(1'000'000, 0);
  sim::ThreadTrace b;
  b.compute(1'000'000, 0);
  b.compute(1'000'000, 0);
  w.threads = {a, b};
  EXPECT_NEAR(m.run(w).elapsed, 4.0, 1e-9);
}

TEST(SmpMachine, FifoLockHandoff) {
  const Machine m(test_config(4));
  sim::WorkloadTrace w;
  w.num_locks = 1;
  // Thread 0 computes 1s then takes the lock; threads 1..3 take the lock
  // immediately. FIFO means thread 0 waits for all of them.
  sim::ThreadTrace t0;
  t0.compute(1'000'000, 0);
  t0.acquire(0);
  t0.compute(100'000, 0);
  t0.release(0);
  w.threads.push_back(std::move(t0));
  for (int i = 0; i < 3; ++i) {
    sim::ThreadTrace t;
    t.acquire(0);
    t.compute(1'000'000, 0);
    t.release(0);
    w.threads.push_back(std::move(t));
  }
  const auto r = m.run(w);
  // Lock is held 3 x 1s by threads 1-3 (starting at 0), thread 0 enters at
  // 3s and finishes at 3.1s.
  EXPECT_NEAR(r.elapsed, 3.1, 1e-9);
  EXPECT_GT(r.thread_finish[0], r.thread_finish[1]);
}

TEST(SmpMachine, ThreadBusyExcludesLockWait) {
  const Machine m(test_config(2));
  sim::WorkloadTrace w;
  w.num_locks = 1;
  for (int i = 0; i < 2; ++i) {
    sim::ThreadTrace t;
    t.acquire(0);
    t.compute(1'000'000, 0);
    t.release(0);
    w.threads.push_back(std::move(t));
  }
  const auto r = m.run(w);
  EXPECT_NEAR(r.elapsed, 2.0, 1e-9);
  EXPECT_NEAR(r.thread_busy[0] + r.thread_busy[1], 2.0, 1e-6);
  EXPECT_NEAR(r.lock_wait_total, 1.0, 1e-6);
}

TEST(SmpMachine, EmptyTraceFinishesInstantly) {
  const Machine m(test_config());
  EXPECT_DOUBLE_EQ(m.run_sequential(sim::ThreadTrace{}).elapsed, 0.0);
}

TEST(SmpMachineDeathTest, InvalidConfigAborts) {
  SmpConfig cfg = test_config();
  cfg.mem_bw_total = cfg.mem_bw_single / 2.0;  // bus slower than one proc
  EXPECT_DEATH(Machine{cfg}, "SmpConfig");
}

TEST(SmpMachine, TimelineRecordsActivityWhenEnabled) {
  const SmpConfig cfg = test_config(2);
  obs::TimelineStore store(1'000'000);
  RunResult r;
  {
    obs::ScopedTimeline scope(store);
    const Machine m(cfg);
    sim::WorkloadTrace w;
    w.threads.push_back(compute_trace(1'000'000, 500'000));
    w.threads.push_back(compute_trace(2'000'000, 0));
    r = m.run(w);
  }
  const std::vector<obs::MachineTimeline> timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const std::vector<obs::TimelinePoint>& bus =
      timelines.front().find("bus_occupancy").points;
  const std::vector<obs::TimelinePoint>& running =
      timelines.front().find("running_threads").points;
  ASSERT_FALSE(bus.empty());
  ASSERT_EQ(running.size(), bus.size());
  // Buckets tile [0, elapsed] exactly.
  EXPECT_EQ(bus.back().cycle,
            static_cast<std::uint64_t>(std::llround(r.elapsed * cfg.clock_hz)));
  double bytes = 0.0;
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < bus.size(); ++k) {
    EXPECT_GE(running[k].value, 1.0 - 1e-9);
    EXPECT_LE(running[k].value, 2.0 + 1e-9);
    EXPECT_GE(bus[k].value, 0.0);
    EXPECT_LE(bus[k].value, 1.0 + 1e-9);
    // Integrated bus usage equals total bytes moved.
    const double seconds =
        static_cast<double>(bus[k].cycle - prev) / cfg.clock_hz;
    bytes += bus[k].value * cfg.mem_bw_total * seconds;
    prev = bus[k].cycle;
  }
  EXPECT_NEAR(bytes, 500'000.0, 1.0);
}

TEST(SmpMachine, DeterministicAcrossRuns) {
  const Machine m(test_config(3));
  PoolWorkload pool;
  pool.num_workers = 3;
  pool.num_locks = 2;
  for (int i = 0; i < 20; ++i) {
    sim::ThreadTrace t;
    t.compute(static_cast<Instructions>(100'000 + 7919 * i),
              static_cast<Bytes>(5000 * (i % 5)));
    t.acquire(i % 2);
    t.compute(10'000, 0);
    t.release(i % 2);
    pool.tasks.push_back(std::move(t));
  }
  const auto r1 = m.run_pool(pool);
  const auto r2 = m.run_pool(pool);
  EXPECT_DOUBLE_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(r1.ops_executed, r2.ops_executed);
}

/// One point of the registry-lifetime test: a 2-thread SMP run whose
/// threads share the bus, a dynamic parallel-for on 2 host threads and one
/// SyncCounter fetch_add. Returns the items the parallel-for visited.
int counted_work() {
  const Machine m(test_config(2));
  sim::WorkloadTrace w;
  for (int i = 0; i < 2; ++i) w.threads.push_back(compute_trace(1000, 4000));
  (void)m.run(w);
  std::atomic<int> visited{0};
  sthreads::parallel_for_dynamic(8, 2, [&](std::size_t, int) { ++visited; });
  sthreads::SyncCounter c(0);
  c.fetch_add(1);
  return visited.load();
}

TEST(SmpMachine, EveryCallCountsInTheRegistryActiveAtIt) {
  // The parallel sweep runs first: each of its points counts under a
  // registry of its own that is freed when the sweep returns, so a layer
  // that kept a counter from the first registry it saw would count the
  // later calls into freed memory instead of the caller's registry.
  obs::CounterRegistry caller;
  const obs::ScopedRegistry scope(caller);
  EXPECT_EQ(sim::run_sweep(4, 2, [](std::size_t) { return counted_work(); }),
            std::vector<int>(4, 8));
  const std::vector<obs::MetricSnapshot> swept = caller.snapshot();
  EXPECT_EQ(counted_work(), 8);
  for (const char* name :
       {"sim.fluid.water_fill.calls", "sthreads.parallel_for.dynamic",
        "sthreads.synccounter.fetch_add"}) {
    const auto it = std::find_if(
        swept.begin(), swept.end(),
        [&](const obs::MetricSnapshot& m) { return m.name == name; });
    ASSERT_NE(it, swept.end()) << name;
    EXPECT_GT(it->count, 0u) << name;
    EXPECT_EQ(it->count % 4, 0u) << name;
    EXPECT_EQ(caller.counter(name).value(), it->count + it->count / 4)
        << name;
  }

  obs::CounterRegistry serial;
  {
    const obs::ScopedRegistry inline_scope(serial);
    (void)sim::run_sweep(4, 1, [](std::size_t) { return counted_work(); });
  }
  EXPECT_EQ(swept, serial.snapshot());
}

}  // namespace
}  // namespace tc3i::smp
