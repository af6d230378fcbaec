#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/session.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sim {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("tc3i_sweep_" + name + "_" + std::to_string(::getpid()) + ".json");
}

obs::JsonValue parse_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = obs::json_parse(buf.str(), &error);
  EXPECT_TRUE(doc.has_value()) << path << ": " << error;
  return doc.value_or(obs::JsonValue{});
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

TEST(RunSweep, CountersMergeIntoCallerRegistry) {
  obs::CounterRegistry caller;
  obs::ScopedRegistry scope(caller);
  const auto r = run_sweep(8, 4, [](std::size_t i) {
    obs::default_registry().counter("sweep_test.points").add();
    obs::default_registry().counter("sweep_test.work").add(i);
    return static_cast<int>(i);
  });
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.points").value(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.work").value(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
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
  // Each point is recorded once, on the bus, and the three readers of
  // that record — the progress fold, the scheduler summary and the sweep
  // trace — agree, on the inline (jobs 1) and the pooled (jobs 4) path
  // alike.
  for (const int jobs : {1, 4}) {
    obs::LiveBus bus;
    obs::LiveBus* prev = obs::live_bus();
    obs::set_live_bus(&bus);
    (void)run_sweep(10, jobs, [](std::size_t i) { return i; });
    (void)run_sweep(3, jobs, [](std::size_t i) { return i; });
    obs::set_live_bus(prev);

    const obs::LiveBus::Progress progress = bus.progress(bus.now_seconds());
    EXPECT_EQ(progress.total, 13u) << "jobs=" << jobs;
    EXPECT_EQ(progress.done, progress.total) << "jobs=" << jobs;
    EXPECT_EQ(progress.eta_seconds, 0.0) << "jobs=" << jobs;
    const obs::LiveBus::Summary summary = bus.summary();
    EXPECT_EQ(summary.sweeps, 2u) << "jobs=" << jobs;
    EXPECT_EQ(summary.points, progress.done) << "jobs=" << jobs;

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
    EXPECT_EQ(run_spans, progress.done) << "jobs=" << jobs;
  }
}

TEST(RunSweep, SweepTraceOutAloneAddsHostSection) {
  // --sweep-trace-out alone installs the bus, so the scheduler totals
  // persist into the RunReport's host section beside the trace.
  const std::filesystem::path report = temp_path("trace_only_report");
  const std::filesystem::path trace = temp_path("trace_only_trace");
  std::filesystem::remove(report);
  std::filesystem::remove(trace);
  const std::string report_out = report.string();
  const std::string trace_out = trace.string();
  const char* argv[] = {"sim_sweep_test", "--report-out", report_out.c_str(),
                        "--sweep-trace-out", trace_out.c_str()};
  CliParser cli("sim_sweep_test");
  obs::RunSession::add_cli_flags(cli);
  ASSERT_TRUE(cli.parse(5, argv));
  {
    obs::RunSession session("trace_only", cli);
    ASSERT_NE(obs::live_bus(), nullptr);
    (void)run_sweep(2, 2, [](std::size_t i) { return i; });
    session.finish();
  }
  EXPECT_EQ(obs::live_bus(), nullptr);
  ASSERT_TRUE(std::filesystem::exists(report)) << report;
  ASSERT_TRUE(std::filesystem::exists(trace)) << trace;
  const obs::JsonValue doc = parse_file(report);
  EXPECT_EQ(doc.find("anomalies"), nullptr);
  const obs::JsonValue* host = doc.find_object("host");
  ASSERT_NE(host, nullptr);
  const obs::JsonValue* sched = host->find_object("sched");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->number_or("points", -1.0), 2.0);
  std::filesystem::remove(report);
  std::filesystem::remove(trace);
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

}  // namespace
}  // namespace tc3i::sim
