// End-to-end checks of the obs_report binary: its usage text and exit
// codes, flags accepted in any position, numeric flag values rejected with
// exit 2, and the diff/monitor/trend exit-code contracts scripts/check.sh
// relies on. Each case runs the built binary on fixtures it writes to its
// own temp directory.
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

/// Runs `obs_report <args>` (shell words) and captures what it prints.
Result run(const std::string& args) {
  Result r;
  const std::string command =
      std::string(OBS_REPORT_BIN) + " " + args + " 2>&1";
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

}  // namespace
