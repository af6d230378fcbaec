// Host resource sampling and sweep-scheduler telemetry: usage samples and
// deltas behave sanely (monotone wall clock, high-water RSS), the
// SweepSchedStore collects exactly one span per sweep point with worker
// lanes inside the requested job count, its Chrome trace serializes as
// valid JSON, and its summary totals match the recorded spans.
#include "obs/hostres.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "sim/sweep.hpp"

namespace tc3i::obs {
namespace {

TEST(HostRes, SampleAndDeltaAreSane) {
  const HostResUsage a = sample_host_usage();
  // Touch some memory and burn a little CPU between samples.
  std::vector<double> sink(1 << 16);
  for (std::size_t i = 0; i < sink.size(); ++i)
    sink[i] = static_cast<double>(i) * 1.5;
  volatile double keep = sink.back();
  (void)keep;
  const HostResUsage b = sample_host_usage();

  EXPECT_GE(b.wall_seconds, a.wall_seconds);
  EXPECT_GE(b.user_cpu_seconds, a.user_cpu_seconds);
  EXPECT_GT(b.max_rss_kb, 0u);
  EXPECT_GE(b.max_rss_kb, a.max_rss_kb);  // high-water mark never shrinks

  const HostResUsage d = host_usage_delta(a, b);
  EXPECT_GE(d.wall_seconds, 0.0);
  EXPECT_LT(d.wall_seconds, 60.0);  // a delta, not an absolute timestamp
  EXPECT_EQ(d.max_rss_kb, b.max_rss_kb);
}

TEST(SweepSchedStore, OneSpanPerPointWorkersWithinJobs) {
  SweepSchedStore store;
  SweepSchedStore* prev = sweep_sched_store();
  set_sweep_sched_store(&store);
  const int kJobs = 3;
  const std::size_t kPoints = 17;
  sim::run_sweep(kPoints, kJobs, [](std::size_t i) { return i * 2; });
  set_sweep_sched_store(prev);

  ASSERT_EQ(store.size(), kPoints);
  ASSERT_EQ(store.sweeps().size(), 1u);
  EXPECT_EQ(store.sweeps()[0].points, kPoints);
  EXPECT_LE(store.sweeps()[0].jobs, kJobs);
  std::vector<bool> seen(kPoints, false);
  for (const SweepJobSpan& s : store.spans()) {
    EXPECT_EQ(s.sweep, 0u);
    ASSERT_LT(s.point, kPoints);
    EXPECT_FALSE(seen[s.point]) << "duplicate span for point " << s.point;
    seen[s.point] = true;
    EXPECT_LT(s.worker, static_cast<std::uint32_t>(kJobs));
    EXPECT_LE(s.submit_us, s.start_us);
    EXPECT_LE(s.start_us, s.end_us);
  }
}

TEST(SweepSchedStore, InlinePathRecordsSpansToo) {
  SweepSchedStore store;
  SweepSchedStore* prev = sweep_sched_store();
  set_sweep_sched_store(&store);
  sim::run_sweep(5, 1, [](std::size_t i) { return i; });
  set_sweep_sched_store(prev);
  EXPECT_EQ(store.size(), 5u);
  for (const SweepJobSpan& s : store.spans()) EXPECT_EQ(s.worker, 0u);
}

TEST(SweepSchedStore, SummaryTotalsMatchSpans) {
  SweepSchedStore store;
  const std::uint32_t sweep = store.begin_sweep(3, 2);
  store.add_span(SweepJobSpan{sweep, 0, 0, 10.0, 15.0, 40.0});
  store.add_span(SweepJobSpan{sweep, 1, 1, 10.0, 12.0, 30.0});
  store.add_span(SweepJobSpan{sweep, 2, 0, 10.0, 40.0, 70.0});
  const SweepSchedStore::Summary s = store.summary();
  EXPECT_EQ(s.sweeps, 1u);
  EXPECT_EQ(s.points, 3u);
  EXPECT_EQ(s.max_jobs, 2);
  // (5 + 2 + 30) us of queue wait, (25 + 18 + 30) us of execution.
  EXPECT_NEAR(s.queue_wait_seconds, 37e-6, 1e-12);
  EXPECT_NEAR(s.execute_seconds, 73e-6, 1e-12);
}

TEST(SweepSchedStore, ChromeTraceIsValidJson) {
  SweepSchedStore store;
  SweepSchedStore* prev = sweep_sched_store();
  set_sweep_sched_store(&store);
  sim::run_sweep(8, 2, [](std::size_t i) { return i; });
  set_sweep_sched_store(prev);

  std::ostringstream os;
  store.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_EQ(json_validate(text), std::nullopt);
  // One "run" event per point plus optional "queue" events and metadata.
  std::string error;
  const auto doc = json_parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t run_events = 0;
  for (const JsonValue& e : events->array)
    if (e.string_or("name", "").rfind("run ", 0) == 0) ++run_events;
  EXPECT_EQ(run_events, 8u);
}

}  // namespace
}  // namespace tc3i::obs
