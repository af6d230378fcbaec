#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "core/cli.hpp"
#include "mta/machine.hpp"
#include "mta/stream_program.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"

namespace tc3i::obs {
namespace {

TEST(JsonWriter, EscapesAndFormats) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("s", std::string("a\"b\\c\nd"));
  w.field("i", std::int64_t{-3});
  w.field("u", std::uint64_t{7});
  w.field("d", 0.5);
  w.field("b", true);
  w.key("n");
  w.null();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"u\":7,\"d\":0.5,"
            "\"b\":true,\"n\":null}");
  EXPECT_FALSE(json_validate(os.str()).has_value());
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonValidate, RejectsMalformedDocuments) {
  EXPECT_TRUE(json_validate("").has_value());
  EXPECT_TRUE(json_validate("{").has_value());
  EXPECT_TRUE(json_validate("{}extra").has_value());
  EXPECT_TRUE(json_validate("{'single':1}").has_value());
  EXPECT_TRUE(json_validate("[1,]").has_value());
  EXPECT_FALSE(json_validate("{\"a\":[1,2.5,\"x\",null,true]}").has_value());
}

TEST(TraceSink, RecordsTypedEventsPerTrack) {
  TraceSink sink;
  const std::uint32_t pid = sink.register_track("machine-a");
  EXPECT_EQ(pid, 1u);
  sink.instant(Category::Spawn, "spawn_hw", 1.0, pid, 3);
  sink.begin(Category::Sync, "lock_wait", 2.0, pid, 3);
  sink.end(Category::Sync, "lock_wait", 5.0, pid, 3);
  sink.complete(Category::Sched, "phase", 1.0, 4.0, pid, 0);
  sink.counter(Category::Issue, "issue_utilization", 6.0, pid, 0.75);
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.events()[1].ph, 'B');
  EXPECT_EQ(sink.events()[2].ph, 'E');
  EXPECT_EQ(sink.events()[4].value, 0.75);
}

TEST(TraceSink, ChromeJsonIsValidAndMonotonicallyTimestamped) {
  TraceSink sink;
  const std::uint32_t pid = sink.register_track("m");
  // Emit deliberately out of order: export must stable-sort by timestamp.
  sink.instant(Category::Memory, "late", 30.0, pid, 0);
  sink.instant(Category::Issue, "early", 10.0, pid, 0);
  sink.counter(Category::Sync, "mid", 20.0, pid, 1.0);
  std::ostringstream os;
  sink.write_chrome_json(os);
  const std::string json = os.str();
  ASSERT_FALSE(json_validate(json).has_value()) << *json_validate(json);

  // Timestamps of non-metadata events appear in non-decreasing order.
  double last_ts = -1.0;
  std::size_t found = 0;
  for (std::size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1)) {
    const double ts = std::stod(json.substr(pos + 5));
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    ++found;
  }
  EXPECT_GE(found, 3u);
  // All four fields Chrome needs are present somewhere.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"issue\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

// /dev/full accepts the open and fails the flush with ENOSPC, so a writer
// that checks its stream before the close reports success there.
TEST(ObsWriters, FullDiskFailsEveryWriterNamingThePath) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << "no " << full;
  std::string error;
  const auto expect_failure = [&](bool ok, const char* writer) {
    EXPECT_FALSE(ok) << writer;
    EXPECT_NE(error.find(full), std::string::npos) << writer << ": " << error;
    error.clear();
  };
  const TimelineStore store(64);
  expect_failure(store.write_csv_file(full, &error), "TimelineStore");
  const TraceSink sink;
  expect_failure(sink.write_chrome_json_file(full, &error), "TraceSink");
  const RunReport report("full_disk");
  expect_failure(report.write_json_file(full, CounterRegistry{}, &error),
                 "RunReport");
  const LiveBus bus;
  expect_failure(bus.write_chrome_trace_file(full, &error), "LiveBus");
}

// Both documented spellings of the counter dump must parse identically:
// bare `--counters` (next token is another flag or end of line) and the
// explicit `--counters true`.
TEST(RunSessionFlags, BareCountersAndExplicitTrueBothWork) {
  {
    CliParser cli("test");
    obs::RunSession::add_cli_flags(cli);
    const char* argv[] = {"prog", "--counters"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_TRUE(cli.get_bool("counters"));
  }
  {
    CliParser cli("test");
    obs::RunSession::add_cli_flags(cli);
    const char* argv[] = {"prog", "--counters", "--jobs", "2"};
    ASSERT_TRUE(cli.parse(4, argv));
    EXPECT_TRUE(cli.get_bool("counters"));
    EXPECT_EQ(cli.get_int("jobs"), 2);
  }
  {
    CliParser cli("test");
    obs::RunSession::add_cli_flags(cli);
    const char* argv[] = {"prog", "--counters", "true"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_TRUE(cli.get_bool("counters"));
  }
  {
    CliParser cli("test");
    obs::RunSession::add_cli_flags(cli);
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_FALSE(cli.get_bool("counters"));
  }
}

TEST(RunReport, JsonContainsRowsConfigAndRegistrySnapshot) {
  CounterRegistry reg;
  reg.counter("test.ops").add(11);
  reg.gauge("test.level").set(0.5);
  reg.histogram("test.lat").record(2.0);

  RunReport report("unit_bench");
  report.set_config("chunks", 256.0);
  report.set_config("variant", "chunked");
  report.add_row("one_proc", 82.0, 80.0);

  std::ostringstream os;
  report.write_json(os, reg);
  const std::string json = os.str();
  ASSERT_FALSE(json_validate(json).has_value()) << *json_validate(json);
  EXPECT_NE(json.find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"machine_runs\":[]"), std::string::npos);
  // The "anomalies" array of older reports is no longer written.
  EXPECT_EQ(json.find("\"anomalies\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"label\":\"one_proc\""), std::string::npos);
  EXPECT_NE(json.find("\"test.ops\":11"), std::string::npos);
  EXPECT_NE(json.find("\"test.level\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.lat\""), std::string::npos);
  // Without a live bus there is no host section, not an empty one.
  EXPECT_EQ(json.find("\"host\""), std::string::npos) << json;

  // With one, the host section follows machine_runs and closes the report:
  // the six host-resource fields, then the scheduler totals.
  HostResUsage usage;
  usage.wall_seconds = 1.5;
  usage.user_cpu_seconds = 2.5;
  usage.max_rss_kb = 4096;
  usage.minor_faults = 7;
  LiveBus::Summary sched;
  sched.sweeps = 1;
  sched.points = 3;
  sched.max_jobs = 4;
  sched.execute_seconds = 0.25;
  report.set_host(usage, sched);
  std::ostringstream with_host;
  report.write_json(with_host, reg);
  const std::string hjson = with_host.str();
  ASSERT_FALSE(json_validate(hjson).has_value()) << *json_validate(hjson);
  EXPECT_NE(hjson.find("\"machine_runs\":[],\"host\":{\"wall_seconds\":1.5,"
                       "\"user_cpu_seconds\":2.5,\"sys_cpu_seconds\":0,"
                       "\"max_rss_kb\":4096,\"minor_faults\":7,"
                       "\"major_faults\":0,\"sched\":{\"sweeps\":1,"
                       "\"points\":3,\"jobs\":4,\"queue_wait_seconds\":0,"
                       "\"execute_seconds\":0.25}}}\n"),
            std::string::npos)
      << hjson;
}

// Regression: the per-bucket utilization timeline must integrate back to
// the scalar processor_utilization (bucket sums count every issued
// instruction exactly once).
TEST(MtaTimeline, BucketSumsMatchProcessorUtilization) {
  mta::MtaConfig cfg;
  cfg.num_processors = 2;
  TimelineStore store(64);
  mta::MtaRunResult r;
  {
    ScopedTimeline scope(store);
    mta::Machine machine(cfg);
    mta::ProgramPool pool;
    for (int s = 0; s < 8; ++s) {
      mta::VectorProgram* p = pool.make_vector();
      p->compute(200);
      p->load(16, 40);
      p->compute(100);
      machine.add_stream(p);
    }
    r = machine.run();
  }
  const std::vector<MachineTimeline> timelines = store.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const std::vector<TimelinePoint>& util =
      timelines.front().find("issue_utilization").points;
  ASSERT_FALSE(util.empty());
  ASSERT_GT(r.cycles, 0u);

  // sum(bucket_util * bucket_slots) == total issues == util * total_slots.
  const auto procs = static_cast<double>(cfg.num_processors);
  double issues_from_timeline = 0.0;
  std::uint64_t prev = 0;
  for (const TimelinePoint& pt : util) {
    issues_from_timeline +=
        pt.value * static_cast<double>(pt.cycle - prev) * procs;
    prev = pt.cycle;
  }
  const double issues_from_util =
      r.processor_utilization * static_cast<double>(r.cycles) * procs;
  EXPECT_NEAR(issues_from_timeline, issues_from_util, 0.5);
  EXPECT_NEAR(issues_from_timeline,
              static_cast<double>(r.instructions_issued), 0.5);
}

}  // namespace
}  // namespace tc3i::obs
