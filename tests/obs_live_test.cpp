// Tests for the live telemetry bus (obs/live), the one record of every
// sweep point: snapshot consistency, watchdog anomalies (slow point /
// stalled worker) and the ETA on explicit bus-clock timestamps, the
// sweep-scheduler spans, summary and Chrome trace, status JSON
// serialization, atomic file publishing, and the background publisher
// under worker concurrency (the TSan smoke target — see TC3I_SANITIZE in
// the top-level CMakeLists and scripts/check.sh).
#include "obs/live.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "sim/sweep.hpp"

namespace obs = tc3i::obs;

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::filesystem::path temp_status_path(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("tc3i_live_") + name + "_" +
          std::to_string(::getpid()) + ".json");
}

obs::JsonValue parse_status_string(const std::string& text) {
  std::string error;
  const auto doc = obs::json_parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.value_or(obs::JsonValue{});
}

obs::JsonValue parse_status_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_status_string(buf.str());
}

TEST(LiveBusTest, SnapshotCountsMatchWorkerSum) {
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(10, 3, 0.0);
  // Worker 0 completes three instant points, worker 2 one 1ms point.
  for (std::uint64_t i = 0; i < 3; ++i) {
    bus.begin_point(0, sweep, i, 0.0);
    bus.end_point(0, 0.0);
  }
  bus.begin_point(2, sweep, 7, 0.0);
  bus.end_point(2, 0.001);

  obs::LiveStatus s = bus.snapshot(0.001);
  EXPECT_EQ(s.points_total, 10u);
  EXPECT_EQ(s.points_done, 4u);
  EXPECT_EQ(s.version, 1u);
  EXPECT_FALSE(s.done);
  ASSERT_EQ(s.workers.size(), 2u);
  std::uint64_t sum = 0;
  for (const obs::LiveWorkerStatus& w : s.workers) sum += w.points_done;
  EXPECT_EQ(sum, s.points_done);
  EXPECT_EQ(s.workers[0].worker, 0u);
  EXPECT_FALSE(s.workers[0].running);
  EXPECT_EQ(s.workers[1].worker, 2u);
  EXPECT_TRUE(s.anomalies.empty());

  // Version advances per snapshot so a poller can detect staleness.
  EXPECT_EQ(bus.snapshot(0.001).version, 2u);
}

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
  EXPECT_EQ(p.median_point_seconds, 0.0);
  EXPECT_EQ(p.eta_seconds, 0.0);  // no completions, no rate yet
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

TEST(LiveWatchdogTest, StalledWorkerRaisesWithinTwoFolds) {
  obs::WatchdogConfig wd;
  wd.heartbeat_timeout_seconds = 0.02;
  obs::LiveBus bus(wd);
  const std::uint32_t sweep = bus.begin_sweep(2, 2, 0.0);
  // Injected stall: the worker claims a point and then goes silent.
  bus.begin_point(1, sweep, 0, 0.0);
  obs::LiveStatus first = bus.snapshot(0.0);
  EXPECT_TRUE(first.anomalies.empty());  // heartbeat is still fresh
  obs::LiveStatus second = bus.snapshot(0.030);
  ASSERT_EQ(second.anomalies.size(), 1u);
  const obs::LiveAnomaly& a = second.anomalies[0];
  EXPECT_EQ(a.kind, "stalled_worker");
  EXPECT_EQ(a.worker, 1u);
  EXPECT_EQ(a.point, 0u);
  EXPECT_GE(a.observed_seconds, a.threshold_seconds);
  EXPECT_NEAR(a.threshold_seconds, 0.02, 1e-12);
}

TEST(LiveWatchdogTest, StalledAnomalyDeduplicatesAcrossSnapshots) {
  obs::WatchdogConfig wd;
  wd.heartbeat_timeout_seconds = 0.01;
  obs::LiveBus bus(wd);
  const std::uint32_t sweep = bus.begin_sweep(1, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  EXPECT_EQ(bus.snapshot(0.015).anomalies.size(), 1u);
  // Same (kind, worker, point) — still one cumulative anomaly.
  EXPECT_EQ(bus.snapshot(0.030).anomalies.size(), 1u);
  EXPECT_EQ(bus.anomalies().size(), 1u);
}

TEST(LiveWatchdogTest, IdleWorkerIsNotStalled) {
  obs::WatchdogConfig wd;
  wd.heartbeat_timeout_seconds = 0.01;
  obs::LiveBus bus(wd);
  const std::uint32_t sweep = bus.begin_sweep(1, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 0.0);
  // Heartbeat is stale but the worker holds no work: no anomaly.
  EXPECT_TRUE(bus.snapshot(0.015).anomalies.empty());
}

TEST(LiveWatchdogTest, SlowPointRequiresArmedBaseline) {
  obs::WatchdogConfig wd;
  wd.slow_point_k = 2.0;
  wd.slow_point_min_samples = 4;
  wd.slow_point_min_seconds = 0.0;
  wd.heartbeat_timeout_seconds = 60.0;  // isolate the slow-point check
  obs::LiveBus bus(wd);
  const std::uint32_t sweep = bus.begin_sweep(8, 2, 0.0);

  // Not armed yet: only one completed sample, so a long-running point
  // must NOT trip (a median of one point is not a baseline).
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 0.001);
  bus.begin_point(1, sweep, 5, 0.001);
  EXPECT_TRUE(bus.snapshot(0.011).anomalies.empty());

  // Arm with three more 1ms samples; the running point is now far past
  // 2 x 1ms and must trip.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    bus.begin_point(0, sweep, i, 0.001 * static_cast<double>(i));
    bus.end_point(0, 0.001 * static_cast<double>(i + 1));
  }
  obs::LiveStatus s = bus.snapshot(0.011);
  ASSERT_EQ(s.anomalies.size(), 1u);
  EXPECT_EQ(s.anomalies[0].kind, "slow_point");
  EXPECT_EQ(s.anomalies[0].worker, 1u);
  EXPECT_EQ(s.anomalies[0].point, 5u);
}

TEST(LiveWatchdogTest, AbsoluteFloorSuppressesMicrosecondJitter) {
  obs::WatchdogConfig wd;
  wd.slow_point_k = 2.0;
  wd.slow_point_min_samples = 1;
  wd.slow_point_min_seconds = 10.0;  // floor far above any test runtime
  obs::LiveBus bus(wd);
  const std::uint32_t sweep = bus.begin_sweep(4, 2, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 1e-6);  // 1us median
  bus.begin_point(1, sweep, 1, 0.0);
  // 5000 x median, but well under the floor.
  EXPECT_TRUE(bus.snapshot(0.005).anomalies.empty());
}

TEST(LiveStatusJsonTest, SerializesSchemaAndRoundTrips) {
  obs::LiveBus bus;
  bus.set_bench("unit");
  bus.set_phase("sweep");
  const std::uint32_t sweep = bus.begin_sweep(4, 1, 0.0);
  bus.begin_point(0, sweep, 2, 0.0);
  bus.record_cache(true);
  bus.record_cache(false);
  bus.record_cache(true);

  std::ostringstream out;
  obs::LiveBus::write_status_json(bus.snapshot(0.0), out);
  const obs::JsonValue doc = parse_status_string(out.str());
  EXPECT_EQ(doc.string_or("kind", ""), "live_status");
  EXPECT_EQ(doc.number_or("schema_version", 0.0), 1.0);
  EXPECT_EQ(doc.string_or("bench", ""), "unit");
  EXPECT_EQ(doc.string_or("phase", ""), "sweep");
  const obs::JsonValue* points = doc.find_object("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->number_or("total", -1.0), 4.0);
  EXPECT_EQ(points->number_or("done", -1.0), 0.0);
  const obs::JsonValue* cache = doc.find_object("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->number_or("hits", -1.0), 2.0);
  EXPECT_EQ(cache->number_or("misses", -1.0), 1.0);
  const obs::JsonValue* host = doc.find_object("host");
  ASSERT_NE(host, nullptr);
  EXPECT_GE(host->number_or("max_rss_kb", -1.0), 0.0);
  const obs::JsonValue* workers = doc.find_array("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array.size(), 1u);
  EXPECT_EQ(workers->array[0].string_or("state", ""), "running");
  EXPECT_EQ(workers->array[0].number_or("point", -1.0), 2.0);
  const obs::JsonValue* anomalies = doc.find_array("anomalies");
  ASSERT_NE(anomalies, nullptr);
  EXPECT_TRUE(anomalies->array.empty());
}

TEST(LiveStatusJsonTest, WriteStatusFileReplacesAtomically) {
  const std::filesystem::path path = temp_status_path("file");
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(2, 1, 0.0);
  std::string error;
  ASSERT_TRUE(obs::LiveBus::write_status_file(bus.snapshot(0.0),
                                              path.string(), &error))
      << error;
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 0.0);
  ASSERT_TRUE(obs::LiveBus::write_status_file(bus.snapshot(0.0, true),
                                              path.string(), &error))
      << error;
  // No leftover temp file, and the final snapshot won the rename.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  const obs::JsonValue doc = parse_status_file(path);
  EXPECT_EQ(doc.number_or("version", 0.0), 2.0);
  const obs::JsonValue* done = doc.find("done");
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->is_bool() && done->boolean);
  std::filesystem::remove(path);
}

TEST(LivePublisherTest, PublishesUnderWorkerConcurrency) {
  // The TSan smoke target: four workers record points while the
  // publisher folds snapshots at a 1ms period.
  const std::filesystem::path path = temp_status_path("publisher");
  obs::LiveBus bus;
  bus.set_bench("stress");
  const std::uint32_t sweep = bus.begin_sweep(4 * 200, 4, 0.0);
  std::uint64_t published = 0;
  {
    obs::LivePublisher publisher(bus, path.string(), 1);
    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < 4; ++w)
      workers.emplace_back([&bus, sweep, w]() {
        for (std::uint64_t i = 0; i < 200; ++i) {
          const std::uint64_t point = w * 200 + i;
          const double t = 1e-5 * static_cast<double>(i);
          bus.begin_point(w, sweep, point, t);
          bus.record_cache(i % 2 == 0);
          bus.end_point(w, t + 1e-5);
        }
      });
    for (std::thread& t : workers) t.join();
    sleep_ms(5);  // let at least one periodic snapshot land
    published = publisher.finish();
    EXPECT_EQ(publisher.finish(), published);  // idempotent
  }
  EXPECT_GE(published, 1u);
  const obs::JsonValue doc = parse_status_file(path);
  const obs::JsonValue* done = doc.find("done");
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->is_bool() && done->boolean);
  const obs::JsonValue* points = doc.find_object("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->number_or("done", -1.0), 800.0);
  EXPECT_EQ(points->number_or("total", -1.0), 800.0);
  std::filesystem::remove(path);
}

TEST(LiveBusTest, SnapshotWithZeroCompletedPointsHasFiniteRates) {
  // Regression: a snapshot taken before any point completes must not
  // divide by zero — throughput/ETA stay 0 (rendered as "eta=?" by the
  // --progress ticker) instead of going NaN/inf.
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(50, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  const obs::LiveStatus s = bus.snapshot(0.001);
  EXPECT_EQ(s.points_done, 0u);
  EXPECT_EQ(s.throughput_points_per_sec, 0.0);
  EXPECT_EQ(s.eta_seconds, 0.0);
  EXPECT_TRUE(std::isfinite(s.throughput_points_per_sec));
  EXPECT_TRUE(std::isfinite(s.eta_seconds));
}

TEST(LivePublisherTest, ConcurrentReaderNeverSeesTornSnapshot) {
  // The atomic-rename contract: a reader polling the status file while
  // the publisher rewrites it at a 1ms period must always see a complete
  // JSON document (or no file yet) — never a partial write.
  const std::filesystem::path path = temp_status_path("torn");
  obs::LiveBus bus;
  bus.set_bench("torn");
  const std::uint32_t sweep = bus.begin_sweep(2 * 400, 2, 0.0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ifstream in(path, std::ios::binary);
      if (!in.is_open()) continue;
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      if (text.empty()) continue;  // raced the very first create
      std::string error;
      const auto doc = obs::json_parse(text, &error);
      ASSERT_TRUE(doc.has_value()) << "torn snapshot: " << error;
      EXPECT_EQ(doc->string_or("kind", ""), "live_status");
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  {
    obs::LivePublisher publisher(bus, path.string(), 1);
    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < 2; ++w)
      workers.emplace_back([&bus, sweep, w]() {
        for (std::uint64_t i = 0; i < 400; ++i) {
          const std::uint64_t point = w * 400 + i;
          bus.begin_point(w, sweep, point, bus.now_seconds());
          bus.end_point(w, bus.now_seconds());
          // Pace the workers so the reader interleaves with many renames.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      });
    for (std::thread& t : workers) t.join();
    publisher.finish();
  }
  stop.store(true);
  reader.join();
  EXPECT_GE(reads.load(), 1u);
  const obs::JsonValue doc = parse_status_file(path);
  const obs::JsonValue* points = doc.find_object("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->number_or("done", -1.0), 800.0);
  std::filesystem::remove(path);
}

TEST(LivePublisherTest, FinalSnapshotWrittenEvenWithoutPeriodFiring) {
  const std::filesystem::path path = temp_status_path("final");
  obs::LiveBus bus;
  const std::uint32_t sweep = bus.begin_sweep(1, 1, 0.0);
  bus.begin_point(0, sweep, 0, 0.0);
  bus.end_point(0, 0.0);
  std::uint64_t published = 0;
  {
    obs::LivePublisher publisher(bus, path.string(), 60'000);
    published = publisher.finish();
  }
  EXPECT_EQ(published, 1u);  // the done=true snapshot only
  const obs::JsonValue doc = parse_status_file(path);
  const obs::JsonValue* points = doc.find_object("points");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->number_or("done", -1.0), 1.0);
  std::filesystem::remove(path);
}

// --- sweep-scheduler spans (the record behind --sweep-trace-out and the
// SweepReport host.sched totals) ---------------------------------------------

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
