// End-to-end checks of the obs_report and json_check binaries: usage text
// and exit codes, flags accepted in any position, numeric flag values
// rejected with exit 2, the sweep view of a RunReport, json_check's
// RunReport pass, and the diff/monitor/trend exit-code contracts
// scripts/check.sh relies on. Each case runs a built binary on fixtures it
// writes to its own temp directory.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

struct Result {
  int code = -1;       ///< exit code (-1 when killed or not started)
  std::string output;  ///< stdout and stderr, interleaved
};

/// Runs `<binary> <args>` (shell words; obs_report by default) and
/// captures what it prints.
Result run(const std::string& args, const char* binary = OBS_REPORT_BIN) {
  Result r;
  const std::string command = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    r.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.code = WEXITSTATUS(status);
  return r;
}

class ObsReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tc3i_obs_report_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `text` to `name` under the temp dir; returns the quoted path.
  std::string write(const std::string& name, const std::string& text) {
    const std::filesystem::path path = dir_ / name;
    std::ofstream(path) << text;
    std::string quoted = "'";
    quoted += path.string();
    quoted += "'";
    return quoted;
  }

  /// One MTA run with a slot account, written to `name`; `members` (each
  /// ending in a comma) go in front of "machine_runs".
  std::string write_report(const std::string& name = "report.json",
                           const std::string& members = "") {
    return write(name, R"({"bench":"fixture",)" + members + R"("machine_runs":[
      {"model":"mta","name":"Tera MTA","processors":1,"threads":4,
       "cycles":100,"utilization":0.9,
       "slots":{"used":90,"no_stream":0,"spacing":5,"spawn":0,"memory":5,
                "sync":0}}]})");
  }

  std::filesystem::path dir_;
};

/// A complete RunReport with two groups — two runs (one entry with the
/// given "reps") of the MTA at one processor and one run at two — and
/// testbed cache counters. `members` (each starting with a comma) go in
/// after "anomalies", where RunSession writes the host section.
std::string full_report(const std::string& members = "",
                        const std::string& anomalies = "[]",
                        const std::string& reps = "2") {
  return R"({"bench":"fixture","schema_version":5,"config":{},"rows":[],
    "counters":{"testbed.cache.hit":3,"testbed.cache.miss":1},"gauges":{},
    "histograms":{},"machine_runs":[
      {"model":"mta","name":"Tera MTA","reps":)" + reps + R"(,
       "scenario":"threat","processors":1,"threads":4,"utilization":0.9,
       "cycles":100,"slots":{"used":90,"no_stream":0,"spacing":5,"spawn":0,
                             "memory":5,"sync":0}},
      {"model":"mta","name":"Tera MTA","scenario":"threat","processors":2,
       "threads":8,"utilization":0.5,"cycles":60,
       "slots":{"used":60,"no_stream":0,"spacing":40,"spawn":0,"memory":20,
                "sync":0}}],
    "anomalies":)" + anomalies + members + "}";
}

/// The host section a live bus adds: three points on two jobs.
const char* const kHost = R"(,"host":{"wall_seconds":1.5,
  "user_cpu_seconds":2,"sys_cpu_seconds":0.1,"max_rss_kb":4096,
  "minor_faults":10,"major_faults":0,"sched":{"sweeps":1,"points":3,
  "jobs":2,"queue_wait_seconds":0.01,"execute_seconds":0.5}})";

/// One anomaly of `worker` pinned to point 0.
std::string anomaly(int worker) {
  return R"([{"kind":"slow_point","worker":)" + std::to_string(worker) +
         R"(,"point":0,"at_seconds":1,"observed_seconds":2,
            "threshold_seconds":1}])";
}

std::size_t count_lines_starting(const std::string& text,
                                 const std::string& prefix) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    if (text.compare(pos, prefix.size(), prefix) == 0) ++n;
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return n;
}

const char* const kSubcommands[] = {"bottleneck", "sweep", "diff", "monitor",
                                    "trend"};

TEST_F(ObsReportTest, UsageNamesEverySubcommand) {
  // "flight" and "whatif" name deleted subcommands, now as unknown as
  // "frobnicate".
  for (const char* args : {"", "frobnicate", "flight", "whatif"}) {
    const Result r = run(args);
    EXPECT_EQ(r.code, 2) << "args: '" << args << "'";
    for (const char* sub : kSubcommands)
      EXPECT_NE(r.output.find(std::string("obs_report ") + sub + " "),
                std::string::npos)
          << sub << " missing from:\n"
          << r.output;
  }
}

TEST_F(ObsReportTest, DiffSelfMatchesAndRejectsBadTolerances) {
  const std::string f = write_report();
  const Result same = run("diff " + f + " " + f);
  EXPECT_EQ(same.code, 0) << same.output;
  EXPECT_NE(same.output.find("reports match"), std::string::npos);
  for (const char* bad : {"--abs-tol -1", "--rel-tol -0.5", "--rel-tol abc",
                          "--abs-tol 1e-2x", "--abs-tol nan", "--abs-tol"})
    EXPECT_EQ(run("diff " + f + " " + f + " " + bad).code, 2) << bad;
}

TEST_F(ObsReportTest, DiffAcceptsFlagAfterFiles) {
  const std::string a = write_report();
  const std::string b = write_report(
      "anomalous.json",
      R"("anomalies":[{"kind":"slow_point","worker":0,"point":0}],)");
  EXPECT_EQ(run("diff " + a + " " + b).code, 1);
  const Result before = run("diff --ignore anomalies " + a + " " + b);
  const Result after = run("diff " + a + " " + b + " --ignore anomalies");
  EXPECT_EQ(before.code, 0) << before.output;
  EXPECT_EQ(after.code, 0) << after.output;
  EXPECT_NE(before.output.find("reports match"), std::string::npos)
      << before.output;
  EXPECT_EQ(after.output, before.output);
}

TEST_F(ObsReportTest, BottleneckRejectsCriticalPathFlag) {
  const std::string f = write_report();
  const Result ok = run("bottleneck " + f);
  EXPECT_EQ(ok.code, 0) << ok.output;
  EXPECT_NE(ok.output.find("verdict run=0 model=mta"), std::string::npos)
      << ok.output;
  EXPECT_EQ(run("bottleneck --critical-path " + f).code, 2);
}

TEST_F(ObsReportTest, MonitorExitsThreeOnAnomalyAndRejectsBadTimeout) {
  const std::string status = write("status.json", R"({"kind":"live_status",
    "bench":"fixture","phase":"sweep","version":3,"done":true,
    "points":{"total":2,"done":2},
    "workers":[{"worker":0,"state":"idle","points_done":2}],
    "anomalies":[{"kind":"slow_point","worker":0,"point":1,
                  "observed_seconds":2,"threshold_seconds":1}]})");
  const Result once = run("monitor " + status);
  EXPECT_EQ(once.code, 3) << once.output;
  EXPECT_NE(once.output.find("done=1"), std::string::npos) << once.output;
  EXPECT_NE(once.output.find("anomaly kind=slow_point worker=0 point=1"),
            std::string::npos)
      << once.output;
  EXPECT_EQ(run("monitor " + status + " --follow --timeout x").code, 2);
  EXPECT_EQ(run("monitor " + status + " --follow --interval 0").code, 2);
}

TEST_F(ObsReportTest, TrendCheckFailsWhenNewestRowHalvesTheMedian) {
  std::string steady;
  for (int i = 0; i < 5; ++i)
    steady += R"({"bench":"b","rows":{"r.per_sec":100}})" "\n";
  EXPECT_EQ(run("trend check " + write("ok.jsonl", steady)).code, 0);
  const Result bad = run(
      "trend check " +
      write("bad.jsonl", steady + R"({"bench":"b","rows":{"r.per_sec":50}})"));
  EXPECT_EQ(bad.code, 1) << bad.output;
  EXPECT_NE(bad.output.find("REGRESSION"), std::string::npos) << bad.output;
}

TEST_F(ObsReportTest, SweepTwoFileDeltaIsRemoved) {
  const std::string f = write_report();
  EXPECT_EQ(run("sweep " + f + " " + f).code, 2);
}

TEST_F(ObsReportTest, SweepRendersRunReport) {
  const std::string f = write("host.json", full_report(kHost));
  const Result r = run("sweep " + f);
  ASSERT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find(": fixture, 3 runs, 2 groups\n"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("  group "), std::string::npos) << r.output;
  EXPECT_EQ(count_lines_starting(r.output, "  mta/Tera MTA/threat/p"), 2u)
      << r.output;
  EXPECT_NE(r.output.find("  mta/Tera MTA/threat/p1 "), std::string::npos);
  EXPECT_NE(r.output.find("  mta/Tera MTA/threat/p2 "), std::string::npos);
  EXPECT_NE(r.output.find("  host: wall 1.50s user 2.00s sys 0.10s rss 4096 "
                          "KB cache 3 hit / 1 miss\n"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("  sched: 3 points on 2 jobs, queue-wait 0.010s, "
                          "execute 0.500s\n"),
            std::string::npos)
      << r.output;

  // Without a host section: the same table and nothing after it.
  const Result bare = run("sweep " + write("bare.json", full_report()));
  ASSERT_EQ(bare.code, 0) << bare.output;
  EXPECT_EQ(count_lines_starting(bare.output, "  mta/Tera MTA/threat/p"), 2u)
      << bare.output;
  EXPECT_EQ(bare.output.find("host:"), std::string::npos) << bare.output;
  EXPECT_EQ(bare.output.find("sched:"), std::string::npos) << bare.output;

  // The recomputation form is gone, and a report without machine runs
  // (such as the retired sweep report) has nothing to aggregate.
  EXPECT_EQ(run("sweep --from-runs " + f).code, 2);
  const Result groups_only = run(
      "sweep " + write("groups.json", R"({"bench":"b","groups":[]})"));
  EXPECT_EQ(groups_only.code, 2);
  EXPECT_NE(groups_only.output.find("no machine_runs"), std::string::npos)
      << groups_only.output;
}

TEST_F(ObsReportTest, JsonCheckValidatesHostSection) {
  const auto json_check = [this](const std::string& name,
                                 const std::string& text) {
    return run(write(name, text), JSON_CHECK_BIN);
  };
  const Result ok = json_check("ok.json", full_report(kHost));
  EXPECT_EQ(ok.code, 0) << ok.output;
  EXPECT_NE(ok.output.find("report schema ok"), std::string::npos)
      << ok.output;
  EXPECT_EQ(json_check("bare.json", full_report()).code, 0);

  std::string negative = kHost;
  negative.replace(negative.find("\"minor_faults\":10"), 17,
                   "\"minor_faults\":-1");
  const Result neg = json_check("negative.json", full_report(negative));
  EXPECT_EQ(neg.code, 1) << neg.output;
  EXPECT_NE(neg.output.find("host.minor_faults"), std::string::npos)
      << neg.output;

  // host.sched.jobs is 2, so worker 1 is the last one the sweep had.
  EXPECT_EQ(json_check("worker1.json", full_report(kHost, anomaly(1))).code,
            0);
  const Result worker2 =
      json_check("worker2.json", full_report(kHost, anomaly(2)));
  EXPECT_EQ(worker2.code, 1) << worker2.output;
  EXPECT_NE(worker2.output.find("anomalies[0].worker"), std::string::npos)
      << worker2.output;
}

TEST_F(ObsReportTest, CorruptRepsIsReportedNotAborted) {
  const std::string f =
      write("reps.json", full_report(kHost, "[]", "2000000"));
  const Result bottleneck = run("bottleneck " + f);
  EXPECT_EQ(bottleneck.code, 1) << bottleneck.output;
  EXPECT_NE(bottleneck.output.find("reps.json: machine_runs[0].reps"),
            std::string::npos)
      << bottleneck.output;
  const Result sweep = run("sweep " + f);
  EXPECT_EQ(sweep.code, 2) << sweep.output;
  EXPECT_NE(sweep.output.find("reps.json: machine_runs[0].reps"),
            std::string::npos)
      << sweep.output;
  for (const char* bad : {"2000000", "0", "2.5", "\"2\""}) {
    const Result check =
        run(write("bad.json", full_report("", "[]", bad)), JSON_CHECK_BIN);
    EXPECT_EQ(check.code, 1) << bad << ": " << check.output;
    EXPECT_NE(check.output.find("machine_runs[0].reps"), std::string::npos)
        << check.output;
  }

  // diff expands valid counts only; a corrupt one stays a member.
  const std::string other =
      write("other.json", full_report(kHost, "[]", "3000000"));
  const Result differ = run("diff " + f + " " + other);
  EXPECT_EQ(differ.code, 1) << differ.output;
  EXPECT_NE(differ.output.find("machine_runs[0].reps: 2000000 != 3000000"),
            std::string::npos)
      << differ.output;
  EXPECT_NE(differ.output.find("1 difference\n"), std::string::npos)
      << differ.output;
}

}  // namespace
