// Tests for the sweep bus (obs/live), the one record of every sweep
// point, through its three readers: the --progress fold (throughput and
// median ETA on explicit bus-clock timestamps), the scheduler summary
// behind the RunReport's host.sched, and the Chrome trace behind
// --sweep-trace-out; plus readers racing recording workers (the TSan
// smoke target — see TC3I_SANITIZE in the top-level CMakeLists and
// scripts/check.sh).
#include "obs/live.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "sim/sweep.hpp"

namespace obs = tc3i::obs;

namespace {

TEST(LiveBusTest, ProgressComputesMedianEtaAndThroughput) {
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(8, 1, 0.0);
  // Four completed points with a known duration spread: 1, 2, 3, 100 ms.
  double t = 0.0;
  std::uint64_t point = 0;
  for (const double ms : {1.0, 2.0, 3.0, 100.0}) {
    bus.begin_point(0, sweep, point++, t);
    t += ms * 1e-3;
    bus.end_point(0, t);
  }

  const obs::LiveBus::Progress p = bus.progress(t);
  EXPECT_EQ(p.done, 4u);
  EXPECT_EQ(p.total, 8u);
  EXPECT_GT(p.points_per_sec, 0.0);
  // Upper median of {1, 2, 3, 100} ms is 3 ms — robust to the outlier.
  EXPECT_NEAR(p.median_point_seconds, 0.003, 1e-9);
  // One worker seen, 4 points remaining: ETA = median * 4.
  EXPECT_NEAR(p.eta_seconds, 0.012, 1e-9);
}

TEST(LiveBusTest, EtaFallsBackToCumulativeRateBeforeFirstCompletion) {
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(100, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  const obs::LiveBus::Progress p = bus.progress(0.002);
  EXPECT_EQ(p.done, 0u);
  EXPECT_EQ(p.total, 100u);
  EXPECT_EQ(p.median_point_seconds, 0.0);
  EXPECT_EQ(p.eta_seconds, 0.0);  // no completions, no rate yet
}

TEST(LiveBusTest, SnapshotWithZeroCompletedPointsHasFiniteRates) {
  // Regression: a progress fold taken before any point completes must
  // not divide by zero — throughput and ETA stay 0 (rendered as "eta ?"
  // by the --progress ticker) instead of going NaN or inf.
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(50, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  const obs::LiveBus::Progress p = bus.progress(0.001);
  EXPECT_EQ(p.done, 0u);
  EXPECT_EQ(p.points_per_sec, 0.0);
  EXPECT_EQ(p.eta_seconds, 0.0);
  EXPECT_TRUE(std::isfinite(p.points_per_sec));
  EXPECT_TRUE(std::isfinite(p.eta_seconds));
}

TEST(LiveBusTest, RunSweepFeedsInstalledBus) {
  obs::LiveBus bus;
  obs::set_live_bus(&bus);
  std::atomic<int> ran{0};
  (void)tc3i::sim::run_sweep(12, 3, [&](std::size_t) {
    ++ran;
    return 0;
  });
  obs::set_live_bus(nullptr);
  EXPECT_EQ(ran.load(), 12);
  const obs::LiveBus::Progress p = bus.progress(bus.now_seconds());
  EXPECT_EQ(p.total, 12u);
  EXPECT_EQ(p.done, 12u);
}

TEST(LiveBusTest, ReadersRaceRecordingWorkers) {
  // The TSan smoke target: four workers record points while a reader
  // folds progress() and summary() between their calls, as
  // SweepProgress::tick does on pool workers under --progress.
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 200;
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(kWorkers * kPerWorker,
                                              kWorkers, 0.0);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    std::uint64_t last_done = 0;
    do {
      const obs::LiveBus::Progress p = bus.progress(bus.now_seconds());
      const obs::LiveBus::Summary s = bus.summary();
      EXPECT_LE(p.done, p.total);
      EXPECT_GE(p.done, last_done);  // spans only ever accumulate
      EXPECT_GE(s.points, p.done);   // folded after progress()
      EXPECT_TRUE(std::isfinite(p.eta_seconds));
      last_done = p.done;
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> workers;
  for (std::uint32_t w = 0; w < kWorkers; ++w)
    workers.emplace_back([&bus, sweep, w]() {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        const double t = 1e-5 * static_cast<double>(i);
        bus.begin_point(w, sweep, w * kPerWorker + i, t);
        bus.end_point(w, t + 1e-5);
        (void)bus.progress(bus.now_seconds());
      }
    });
  for (std::thread& t : workers) t.join();
  stop.store(true);
  reader.join();
  const obs::LiveBus::Progress p = bus.progress(bus.now_seconds());
  EXPECT_EQ(p.done, kWorkers * kPerWorker);
  EXPECT_EQ(p.total, kWorkers * kPerWorker);
  EXPECT_EQ(p.eta_seconds, 0.0);  // nothing left
  EXPECT_EQ(bus.summary().points, kWorkers * kPerWorker);
  EXPECT_EQ(bus.spans().size(), kWorkers * kPerWorker);
}

// --- sweep-scheduler spans (the record behind --sweep-trace-out and the
// RunReport's host.sched totals) ---------------------------------------------

TEST(LiveBusSched, OneSpanPerPointWorkersWithinJobs) {
  obs::LiveBus bus;
  obs::LiveBus* prev = obs::live_bus();
  obs::set_live_bus(&bus);
  const int kJobs = 3;
  const std::size_t kPoints = 17;
  tc3i::sim::run_sweep(kPoints, kJobs, [](std::size_t i) { return i * 2; });
  obs::set_live_bus(prev);

  ASSERT_EQ(bus.spans().size(), kPoints);
  ASSERT_EQ(bus.sweeps().size(), 1u);
  EXPECT_EQ(bus.sweeps()[0].points, kPoints);
  EXPECT_LE(bus.sweeps()[0].jobs, kJobs);
  std::vector<bool> seen(kPoints, false);
  for (const obs::PointSpan& s : bus.spans()) {
    EXPECT_EQ(s.sweep, 0u);
    ASSERT_LT(s.point, kPoints);
    EXPECT_FALSE(seen[s.point]) << "duplicate span for point " << s.point;
    seen[s.point] = true;
    EXPECT_LT(s.worker, static_cast<std::uint32_t>(kJobs));
    EXPECT_LE(s.submit_seconds, s.start_seconds);
    EXPECT_LE(s.start_seconds, s.end_seconds);
  }
}

TEST(LiveBusSched, InlinePathRecordsSpansToo) {
  obs::LiveBus bus;
  obs::LiveBus* prev = obs::live_bus();
  obs::set_live_bus(&bus);
  tc3i::sim::run_sweep(5, 1, [](std::size_t i) { return i; });
  obs::set_live_bus(prev);
  EXPECT_EQ(bus.spans().size(), 5u);
  for (const obs::PointSpan& s : bus.spans()) EXPECT_EQ(s.worker, 0u);
}

TEST(LiveBusSched, SummaryTotalsMatchSpans) {
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(3, 2, 10e-6);
  bus.begin_point(0, sweep, 0, 15e-6);
  bus.end_point(0, 40e-6);
  bus.begin_point(1, sweep, 1, 12e-6);
  bus.end_point(1, 30e-6);
  bus.begin_point(0, sweep, 2, 40e-6);
  bus.end_point(0, 70e-6);
  const obs::LiveBus::Summary s = bus.summary();
  EXPECT_EQ(s.sweeps, 1u);
  EXPECT_EQ(s.points, 3u);
  EXPECT_EQ(s.max_jobs, 2);
  // (5 + 2 + 30) us of queue wait, (25 + 18 + 30) us of execution.
  EXPECT_NEAR(s.queue_wait_seconds, 37e-6, 1e-12);
  EXPECT_NEAR(s.execute_seconds, 73e-6, 1e-12);
}

TEST(LiveBusSched, ChromeTraceIsValidJson) {
  obs::LiveBus bus;
  obs::LiveBus* prev = obs::live_bus();
  obs::set_live_bus(&bus);
  tc3i::sim::run_sweep(8, 2, [](std::size_t i) { return i; });
  obs::set_live_bus(prev);

  std::ostringstream os;
  bus.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_EQ(obs::json_validate(text), std::nullopt);
  // One "run" event per point plus optional "queue" events and metadata.
  std::string error;
  const auto doc = obs::json_parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t run_events = 0;
  for (const obs::JsonValue& e : events->array)
    if (e.string_or("name", "").rfind("run ", 0) == 0) ++run_events;
  EXPECT_EQ(run_events, 8u);
}

}  // namespace
