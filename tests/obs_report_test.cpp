// End-to-end checks of the obs_report and json_check binaries: usage text
// and exit codes, flags accepted in any position, numeric flag values
// rejected with exit 2, the sweep view of a RunReport, json_check's
// RunReport pass, and the diff/trend exit-code contracts scripts/check.sh
// relies on. Each case runs a built binary on fixtures it
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

/// A complete RunReport with three MTA runs — two at one processor (one
/// entry with the given "reps") and one at two — and testbed cache
/// counters. `members` (each starting with a comma) go in
/// after "machine_runs", where RunSession writes the host section.
std::string full_report(const std::string& members = "",
                        const std::string& reps = "2") {
  return R"({"bench":"fixture","schema_version":5,"config":{},"rows":[],
    "counters":{"testbed.cache.hit":3,"testbed.cache.miss":1},
    "machine_runs":[
      {"model":"mta","name":"Tera MTA","reps":)" + reps + R"(,
       "scenario":"threat","processors":1,"threads":4,"utilization":0.9,
       "cycles":100,"slots":{"used":90,"no_stream":0,"spacing":5,"spawn":0,
                             "memory":5,"sync":0}},
      {"model":"mta","name":"Tera MTA","scenario":"threat","processors":2,
       "threads":8,"utilization":0.5,"cycles":60,
       "slots":{"used":60,"no_stream":0,"spacing":40,"spawn":0,"memory":20,
                "sync":0}}])" + members + "}";
}

/// The host section a live bus adds: three points on two jobs.
const char* const kHost = R"(,"host":{"wall_seconds":1.5,
  "user_cpu_seconds":2,"sys_cpu_seconds":0.1,"max_rss_kb":4096,
  "minor_faults":10,"major_faults":0,"sched":{"sweeps":1,"points":3,
  "jobs":2,"queue_wait_seconds":0.01,"execute_seconds":0.5}})";

const char* const kSubcommands[] = {"bottleneck", "sweep", "diff", "trend"};

TEST_F(ObsReportTest, UsageNamesEverySubcommand) {
  // "flight", "whatif" and "monitor" name deleted subcommands, now as
  // unknown as "frobnicate".
  for (const char* args : {"", "frobnicate", "flight", "whatif", "monitor"}) {
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
  // diff compares exactly: a tolerance of any value is an unknown flag.
  for (const char* bad : {"--rel-tol 0", "--abs-tol 0"}) {
    const Result r = run("diff " + f + " " + f + " " + bad);
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.output.find("unknown flag"), std::string::npos) << r.output;
  }
}

TEST_F(ObsReportTest, TrendAppendRejectsBadScale) {
  const std::string report = write(
      "rows.json", R"({"bench":"b","rows":[{"label":"r.per_sec",
      "paper":1,"measured":100,"ratio":100}]})");
  const std::string history = write("history.jsonl", "");
  for (const char* bad : {"0", "-1", "abc", "1e-2x", "nan", ""}) {
    const Result r =
        run("trend append " + history + " " + report + " --scale " + bad);
    EXPECT_EQ(r.code, 2) << "--scale '" << bad << "': " << r.output;
  }
  std::ifstream untouched(dir_ / "history.jsonl");
  EXPECT_EQ(untouched.peek(), std::ifstream::traits_type::eof());

  const Result ok =
      run("trend append " + history + " " + report + " --scale 2");
  EXPECT_EQ(ok.code, 0) << ok.output;
  std::ifstream appended(dir_ / "history.jsonl");
  std::string line;
  std::getline(appended, line);
  EXPECT_EQ(line, R"({"bench":"b","rows":{"r.per_sec":200}})");
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
  EXPECT_EQ(r.output,
            (dir_ / "host.json").string() + ": fixture\n"
            "  host: wall 1.50s user 2.00s sys 0.10s rss 4096 KB "
            "cache 3 hit / 1 miss\n"
            "  sched: 3 points on 2 jobs, queue-wait 0.010s, "
            "execute 0.500s\n");

  // Without a host section there is nothing to show: each run's own
  // accounting is `bottleneck`'s.
  const Result bare = run("sweep " + write("bare.json", full_report()));
  EXPECT_EQ(bare.code, 2) << bare.output;
  EXPECT_NE(bare.output.find("bare.json: no host section"), std::string::npos)
      << bare.output;
  EXPECT_EQ(bare.output.find("host:"), std::string::npos) << bare.output;

  // The recomputation form is gone.
  EXPECT_EQ(run("sweep --from-runs " + f).code, 2);
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

  // An older report carries an "anomalies" array in front of its host
  // section, and "gauges" and "histograms" objects; readers ignore them,
  // so it passes whatever they hold (here a worker past host.sched.jobs
  // and names outside the metric charset).
  const Result older = json_check(
      "anomalies.json",
      full_report(R"(,"anomalies":[{"kind":"slow_point","worker":7}],)"
                  R"("gauges":{"Peak Live":-1},)"
                  R"("histograms":{"mta.stream.instructions":{"count":2}})" +
                  std::string(kHost)));
  EXPECT_EQ(older.code, 0) << older.output;
}

TEST_F(ObsReportTest, CorruptRepsIsReportedNotAborted) {
  // A valid count stands for that many runs: two plus one.
  const Result valid =
      run("bottleneck " + write("valid.json", full_report(kHost)));
  EXPECT_EQ(valid.code, 0) << valid.output;
  EXPECT_NE(valid.output.find(": bench fixture, 3 machine runs\n"),
            std::string::npos)
      << valid.output;

  const std::string f = write("reps.json", full_report(kHost, "2000000"));
  const Result bottleneck = run("bottleneck " + f);
  EXPECT_EQ(bottleneck.code, 1) << bottleneck.output;
  EXPECT_NE(bottleneck.output.find("reps.json: machine_runs[0].reps"),
            std::string::npos)
      << bottleneck.output;
  for (const char* bad : {"2000000", "0", "2.5", "\"2\""}) {
    const Result check =
        run(write("bad.json", full_report("", bad)), JSON_CHECK_BIN);
    EXPECT_EQ(check.code, 1) << bad << ": " << check.output;
    EXPECT_NE(check.output.find("machine_runs[0].reps"), std::string::npos)
        << check.output;
  }

  // diff expands valid counts only; a corrupt one stays a member.
  const std::string other =
      write("other.json", full_report(kHost, "3000000"));
  const Result differ = run("diff " + f + " " + other);
  EXPECT_EQ(differ.code, 1) << differ.output;
  EXPECT_NE(differ.output.find("machine_runs[0].reps: 2000000 != 3000000"),
            std::string::npos)
      << differ.output;
  EXPECT_NE(differ.output.find("1 difference\n"), std::string::npos)
      << differ.output;
}

}  // namespace
