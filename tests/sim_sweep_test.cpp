#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sim {
namespace {

// Declared first: the injection env var is parsed once (latched on the
// first run_sweep of the process), so this must run before any other
// sweep. Under ctest each test is its own process and the ordering
// concern vanishes; in a manual full-binary run declaration order keeps
// it first.
TEST(InjectSlowPoint, EnvVarDelaysNamedPointOnly) {
  ASSERT_EQ(::setenv("TC3I_INJECT_SLOW_POINT", "1:40", /*overwrite=*/1), 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> point_ms(3, 0.0);
  (void)run_sweep(3, 1, [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    detail::maybe_inject_slow_point(i);
    point_ms[i] = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return 0;
  });
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ::unsetenv("TC3I_INJECT_SLOW_POINT");
  if (point_ms[1] < 1.0 && total_ms < 40.0)
    GTEST_SKIP() << "injection latched off by an earlier sweep in this "
                    "process; run under ctest for isolation";
  EXPECT_GE(point_ms[1], 35.0);  // the named point slept ~40ms
  EXPECT_LT(point_ms[0], 20.0);  // the others did not
  EXPECT_LT(point_ms[2], 20.0);
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_jobs(0),
            static_cast<int>(sthreads::Thread::hardware_concurrency()));
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_EQ(resolve_jobs(-3), 1);
}

TEST(RunSweep, ResultsInSubmissionOrder) {
  for (const int jobs : {1, 2, 8}) {
    const auto r =
        run_sweep(17, jobs, [](std::size_t i) { return 10.0 * static_cast<double>(i); });
    ASSERT_EQ(r.size(), 17u);
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_EQ(r[i], 10.0 * static_cast<double>(i)) << "jobs=" << jobs;
  }
}

TEST(RunSweep, EmptySweep) {
  EXPECT_TRUE(run_sweep(0, 4, [](std::size_t) { return 1; }).empty());
}

TEST(RunSweep, ThunkListOverload) {
  std::vector<std::function<double()>> points = {
      [] { return 1.5; }, [] { return 2.5; }, [] { return 3.5; }};
  EXPECT_EQ(run_sweep(points, 2), (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(RunSweep, CountersMergeIntoCallerRegistry) {
  obs::CounterRegistry caller;
  obs::ScopedRegistry scope(caller);
  const auto r = run_sweep(8, 4, [](std::size_t i) {
    obs::default_registry().counter("sweep_test.points").add();
    obs::default_registry().counter("sweep_test.work").add(i);
    obs::default_registry().gauge("sweep_test.last_index").set(
        static_cast<double>(i));
    obs::default_registry().histogram("sweep_test.values").record(
        static_cast<double>(i + 1));
    return static_cast<int>(i);
  });
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.points").value(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.work").value(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  // Gauges keep the last-submitted point's write, like a serial run.
  EXPECT_EQ(caller.gauge("sweep_test.last_index").value(), 7.0);
  EXPECT_EQ(caller.histogram("sweep_test.values").count(), 8u);
  EXPECT_EQ(caller.histogram("sweep_test.values").max(), 8.0);
}

TEST(RunSweep, PointsAreIsolatedFromEachOther) {
  // With jobs > 1, a counter bumped by one point must not be visible to a
  // concurrently running point: each runs under a fresh registry.
  const auto r = run_sweep(6, 3, [](std::size_t) {
    obs::Counter& c = obs::default_registry().counter("sweep_test.isolated");
    c.add();
    return c.value();
  });
  for (const auto v : r) EXPECT_EQ(v, 1u);
}

TEST(RunSweep, RegistryInheritedByNestedSthreads) {
  obs::CounterRegistry caller;
  obs::ScopedRegistry scope(caller);
  (void)run_sweep(4, 2, [](std::size_t) {
    sthreads::fork_join(3, [](int) {
      obs::default_registry().counter("sweep_test.nested").add();
    });
    return 0;
  });
  EXPECT_EQ(caller.counter("sweep_test.nested").value(), 12u);
}

TEST(RunSweep, JobsOneRunsInlineOnCallerRegistry) {
  obs::CounterRegistry caller;
  obs::ScopedRegistry scope(caller);
  obs::Counter& c = caller.counter("sweep_test.inline");
  (void)run_sweep(3, 1, [&](std::size_t) {
    // Inline execution sees the caller's registry object directly (no
    // isolation layer), so the reference resolved before the sweep is the
    // one being bumped.
    obs::default_registry().counter("sweep_test.inline").add();
    return c.value();
  });
  EXPECT_EQ(c.value(), 3u);
}

TEST(RunSweep, InstalledBusRecordsEachPointOnce) {
  // Each point is recorded once, on the bus, and every view derived from
  // that record — the final status, the scheduler summary and the sweep
  // trace — agrees with the flight recorder's point_end tally, on the
  // inline (jobs 1) and the pooled (jobs 4) path alike.
  for (const int jobs : {1, 4}) {
    obs::LiveBus bus;
    obs::LiveBus* prev = obs::live_bus();
    obs::set_live_bus(&bus);
    const obs::flight::Totals before = obs::flight::totals();
    (void)run_sweep(10, jobs, [](std::size_t i) { return i; });
    (void)run_sweep(3, jobs, [](std::size_t i) { return i; });
    const obs::flight::Totals after = obs::flight::totals();
    obs::set_live_bus(prev);

    const obs::LiveStatus status =
        bus.snapshot(bus.now_seconds(), /*done=*/true);
    EXPECT_EQ(status.points_total, 13u) << "jobs=" << jobs;
    EXPECT_EQ(status.points_done, status.points_total) << "jobs=" << jobs;
    EXPECT_EQ(bus.summary().points, status.points_done) << "jobs=" << jobs;

    std::ostringstream trace;
    bus.write_chrome_trace(trace);
    std::string error;
    const auto doc = obs::json_parse(trace.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const obs::JsonValue* events = doc->find_array("traceEvents");
    ASSERT_NE(events, nullptr);
    std::uint64_t run_spans = 0;
    for (const obs::JsonValue& e : events->array)
      if (e.string_or("name", "").rfind("run s", 0) == 0) ++run_spans;
    EXPECT_EQ(run_spans, status.points_done) << "jobs=" << jobs;

    EXPECT_EQ(after.points_done - before.points_done, status.points_done)
        << "jobs=" << jobs;
  }
}

TEST(ScopedRegistry, NestsAndRestores) {
  obs::CounterRegistry a;
  obs::CounterRegistry b;
  obs::CounterRegistry* base = &obs::default_registry();
  {
    obs::ScopedRegistry sa(a);
    EXPECT_EQ(&obs::default_registry(), &a);
    {
      obs::ScopedRegistry sb(b);
      EXPECT_EQ(&obs::default_registry(), &b);
    }
    EXPECT_EQ(&obs::default_registry(), &a);
  }
  EXPECT_EQ(&obs::default_registry(), base);
}

TEST(RegistryMerge, HistogramsCombineExactly) {
  obs::Histogram h1;
  obs::Histogram h2;
  h1.record(2.0);
  h1.record(8.0);
  h2.record(1.0);
  h1.merge_from(h2);
  EXPECT_EQ(h1.count(), 3u);
  EXPECT_EQ(h1.sum(), 11.0);
  EXPECT_EQ(h1.min(), 1.0);
  EXPECT_EQ(h1.max(), 8.0);
}

}  // namespace
}  // namespace tc3i::sim
