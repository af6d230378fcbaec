// The reproduction benchmark's driver: runs one workload (points.hpp) for a
// fixed time, checks every point's simulated result against the recorded
// values, and prints its metrics as one JSON line. README.md in this
// directory describes the workloads and metrics; run.py builds and runs it.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --expected <file> --out <dir> [--reps <n>]
//   perfbench_driver --record <file> --out <dir>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "c3i/terrain/sequential.hpp"
#include "c3i/threat/sequential.hpp"
#include "host_speed.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "platforms/testbed_cache.hpp"
#include "points.hpp"
#include "sim/sweep.hpp"
#include "spans.hpp"

namespace {

namespace fs = std::filesystem;
namespace obs = tc3i::obs;
namespace platforms = tc3i::platforms;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// True when one more repetition, as long as the typical one so far,
/// would end past `budget` seconds after `t0`.
bool out_of_time(Clock::time_point t0, double budget,
                 const std::vector<double>& rep_seconds) {
  return since(t0) + median(rep_seconds) > budget;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path expected;
  fs::path out;
  int reps = 0;  ///< fixed repetition count; 0 runs for `seconds`
  fs::path record;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error << "\nusage: perfbench_driver "
            << "--workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--expected <file> --out <dir> [--reps <n>]\n"
               "       perfbench_driver --record <file> --out <dir>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--expected") o.expected = v;
      else if (flag == "--out") o.out = v;
      else if (flag == "--reps") o.reps = std::stoi(v);
      else if (flag == "--record") o.record = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.out.empty()) usage("--out is required");
  if (o.record.empty() && (o.workload.empty() || o.expected.empty()))
    usage("--workload and --expected are required");
  return o;
}

// --- host stamp --------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

struct Host {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string cpu = cpu_model();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;

  [[nodiscard]] std::string json() const {
    return "{\"nproc\": " + std::to_string(nproc) + ", \"cpu\": " +
           quoted(cpu) + ", \"compiler\": " + quoted(compiler) +
           ", \"build_type\": " + quoted(build_type) + "}";
  }
};

// --- recorded point results --------------------------------------------------

using Expected = std::map<std::string, PointResult>;

Expected load_expected(const fs::path& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench_driver: cannot read " << path << '\n';
    std::exit(2);
  }
  Expected e;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    PointResult r;
    if (!(fields >> name >> r.seconds >> r.cycles >> r.instructions)) {
      std::cerr << "perfbench_driver: bad line in " << path << ": " << line
                << '\n';
      std::exit(2);
    }
    e[name] = r;
  }
  return e;
}

bool same_result(const PointResult& want, const PointResult& got) {
  return std::abs(got.seconds - want.seconds) <=
             1e-9 * std::abs(want.seconds) &&
         got.cycles == want.cycles && got.instructions == want.instructions;
}

/// Counts the points of one repetition that differ from the recorded
/// values (a point with no recorded value differs).
std::uint64_t count_failed(const Workload& w, const Expected& expected,
                           const std::vector<PointResult>& results) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const auto it = expected.find(w.points[i].name);
    if (it == expected.end() || !same_result(it->second, results[i])) {
      std::cerr << "perfbench_driver: point " << w.points[i].name
                << " differs from its recorded result\n";
      ++failed;
    }
  }
  return failed;
}

// --- set-up and sweep ---------------------------------------------------------

/// The run's private directory: its testbed caches and report files. No
/// run reads or writes the shared default cache in the system temp dir.
class RunDir {
 public:
  explicit RunDir(const fs::path& out)
      : path_(out / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
    use_cache("cache");
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }

  /// Points TC3I_TESTBED_CACHE at a subdirectory of the run dir.
  void use_cache(const std::string& name) {
    cache_ = path_ / name;
    ::setenv("TC3I_TESTBED_CACHE", cache_.c_str(), 1);
  }
  void drop_cache() {
    std::error_code ec;
    fs::remove_all(cache_, ec);
  }
  [[nodiscard]] fs::path report_path(const std::string& workload) const {
    return path_ / (workload + ".report.json");
  }

 private:
  fs::path path_;
  fs::path cache_;
};

struct Setup {
  std::optional<Testbed> tb;
  double seconds = 0.0;  ///< as measured
  double scaled_s = 0.0;  ///< scaled to the reference host (host_speed.hpp)
  std::uint64_t cache_hits = 0;
};

/// Builds the testbed through platforms' cache. A cold workload gets a
/// fresh, empty cache directory every time, removed afterwards.
Setup timed_setup(const Workload& w, RunDir& dir, int index) {
  if (w.cold) dir.use_cache("cold-" + std::to_string(index));
  obs::Counter& hits = obs::default_registry().counter("testbed.cache.hit");
  const std::uint64_t hits_before = hits.value();
  Setup s;
  const double factor = speed_factor();
  const auto t0 = Clock::now();
  s.tb.emplace(platforms::load_or_build_testbed());
  s.seconds = since(t0);
  s.scaled_s = factor * s.seconds;
  s.cache_hits = hits.value() - hits_before;
  if (w.cold) dir.drop_cache();
  return s;
}

/// The traced form of timed_setup: on a cold workload, the testbed stages
/// with the kernel profiling split per scenario.
Testbed traced_setup(const Workload& w, Tracer& tr, SpanId parent) {
  if (!w.cold) {
    const Span s(tr, "platforms.testbed_load", parent);
    return platforms::load_or_build_testbed();
  }
  platforms::TestbedScenarios scenarios;
  {
    const Span s(tr, "c3i.scenario_gen", parent);
    scenarios = platforms::testbed_scenarios();
  }
  // profile_testbed_kernels, one span per profiled scenario.
  platforms::TestbedProfiles profiles;
  const auto profile_one = [&](const auto& scenario) {
    const Span s(tr, "c3i.profile", parent);
    using tc3i::c3i::terrain::profile;
    using tc3i::c3i::threat::profile;
    return profile(scenario);
  };
  for (const auto& scenario : scenarios.threat)
    profiles.threat.push_back(profile_one(scenario));
  for (const auto& geometry : scenarios.terrain)
    profiles.terrain.push_back(profile_one(geometry));
  profiles.threat_scaled = profile_one(scenarios.threat_scaled);
  profiles.terrain_scaled = profile_one(scenarios.terrain_scaled);
  const Span s(tr, "platforms.assemble", parent);
  return platforms::assemble_testbed(std::move(profiles));
}

/// Writes the workload's RunReport (paper rows, counters, host stamp);
/// returns its size in bytes, 0 on failure.
std::uint64_t write_report(const Workload& w, const Host& host,
                           const std::vector<PointResult>& results,
                           const obs::CounterRegistry& reg,
                           const fs::path& path) {
  obs::RunReport report("perfbench_" + w.name);
  report.set_config("host.nproc", static_cast<double>(host.nproc));
  report.set_config("host.cpu", host.cpu);
  report.set_config("host.compiler", host.compiler);
  report.set_config("host.build_type", host.build_type);
  for (std::size_t i = 0; i < w.points.size(); ++i)
    if (w.points[i].paper_seconds > 0.0)
      report.add_row(w.points[i].name, w.points[i].paper_seconds,
                     results[i].seconds);
  std::string error;
  if (!report.write_json_file(path.string(), reg, &error)) {
    std::cerr << "perfbench_driver: " << error << '\n';
    return 0;
  }
  std::error_code ec;
  const std::uintmax_t bytes = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(bytes);
}

std::vector<PointResult> in_point_order(std::vector<PointResult> swept,
                                        const std::vector<std::size_t>& order) {
  std::vector<PointResult> results(swept.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    results[order[i]] = std::move(swept[i]);
  return results;
}

/// A parallel sweep submits its largest points (by recorded instructions)
/// first, so its wall time does not hang on where they fall in `order`.
void largest_first(const Workload& w, const Expected& expected,
                   std::vector<std::size_t>& order) {
  if (w.jobs <= 1) return;
  const auto size = [&](std::size_t p) {
    const auto it = expected.find(w.points[p].name);
    return it == expected.end() ? std::uint64_t{0} : it->second.instructions;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return size(a) > size(b);
                   });
}

/// The next repetition's submission order: shuffled with the seed's
/// generator, then largest first on a parallel sweep, where the shuffle
/// only breaks ties.
void next_order(const Workload& w, const Expected& expected,
                std::mt19937_64& rng, std::vector<std::size_t>& order) {
  std::shuffle(order.begin(), order.end(), rng);
  largest_first(w, expected, order);
}

struct Sweep {
  std::vector<PointResult> results;  ///< in workload point order
  /// Each point's host time scaled to the reference host (host_speed.hpp),
  /// and as measured; same order.
  std::vector<double> point_s;
  std::vector<double> point_raw_s;
  double write_s = 0.0;  ///< the report write, scaled
  double seconds = 0.0;  ///< wall time of points + report write, as measured
  std::uint64_t report_bytes = 0;
};

/// All points through sim::run_sweep, submitted in `order`, then the
/// report write. Each part is timed on its own and, when `scaled`, scaled by
/// the speed factor of the thread that ran it; unscaled, no probe runs.
Sweep timed_sweep(const Workload& w, const Testbed& tb, const Host& host,
                  const std::vector<std::size_t>& order,
                  const fs::path& report_path, bool scaled) {
  obs::CounterRegistry& reg = obs::default_registry();
  reg.reset_values();  // the report holds this sweep's counters only
  Sweep s;
  s.point_s.assign(order.size(), 0.0);
  s.point_raw_s.assign(order.size(), 0.0);
  const auto t0 = Clock::now();
  std::vector<PointResult> swept = tc3i::sim::run_sweep(
      order.size(), w.jobs, [&](std::size_t i) {
        const double factor = scaled ? speed_factor() : 1.0;
        const auto point_t0 = Clock::now();
        PointResult r = w.points[order[i]].run(tb);
        s.point_raw_s[order[i]] = since(point_t0);
        s.point_s[order[i]] = factor * s.point_raw_s[order[i]];
        return r;
      });
  s.results = in_point_order(std::move(swept), order);
  const double factor = scaled ? speed_factor() : 1.0;
  const auto write_t0 = Clock::now();
  s.report_bytes = write_report(w, host, s.results, reg, report_path);
  s.write_s = factor * since(write_t0);
  s.seconds = since(t0);
  return s;
}

/// The workload's sweep time, in seconds on the reference host, from the
/// repetitions so far. A serial sweep's time is the sum of its parts, so it
/// is the sum of each point's median plus the median report write. A
/// parallel sweep's time depends on how its points overlap, so it is the
/// median of the repetitions' wall times, each scaled by the point-time
/// weighted mean of its points' speed factors.
class SweepTime {
 public:
  explicit SweepTime(const Workload& w)
      : serial_(w.jobs <= 1), point_s_(w.points.size()) {}

  void add(const Sweep& s) {
    for (std::size_t p = 0; p < point_s_.size(); ++p)
      point_s_[p].push_back(s.point_s[p]);
    write_s_.push_back(s.write_s);
    const double raw = std::accumulate(s.point_raw_s.begin(),
                                       s.point_raw_s.end(), 0.0);
    const double scaled =
        std::accumulate(s.point_s.begin(), s.point_s.end(), 0.0);
    wall_s_.push_back(raw > 0.0 ? s.seconds * scaled / raw : s.seconds);
  }

  [[nodiscard]] double seconds() const {
    if (!serial_) return median(wall_s_);
    double sum = median(write_s_);
    for (const std::vector<double>& v : point_s_) sum += median(v);
    return sum;
  }

 private:
  bool serial_;
  std::vector<std::vector<double>> point_s_;
  std::vector<double> write_s_;
  std::vector<double> wall_s_;
};

struct TracedRep {
  std::vector<PointResult> results;  ///< in workload point order
  std::vector<SpanRecord> spans;
  std::uint64_t report_bytes = 0;
};

TracedRep traced_rep(const Workload& w, const Host& host,
                     const std::vector<std::size_t>& order,
                     const fs::path& report_path) {
  obs::CounterRegistry& reg = obs::default_registry();
  reg.reset_values();
  Tracer tr;
  TracedRep rep;
  std::optional<Testbed> tb;
  {
    const Span root(tr, "bench.rep", kNoParent);
    {
      const Span setup(tr, "bench.setup", root.id());
      tb.emplace(traced_setup(w, tr, setup.id()));
    }
    const Span sweep(tr, "bench.sweep", root.id());
    {
      const Span sim_sweep(tr, "sim.sweep", sweep.id());
      const SpanId parent = sim_sweep.id();
      std::vector<PointResult> swept = tc3i::sim::run_sweep(
          order.size(), w.jobs, [&](std::size_t i) {
            const Span point(tr, "bench.point", parent);
            return w.points[order[i]].run_traced(*tb, tr, point.id());
          });
      rep.results = in_point_order(std::move(swept), order);
    }
    const Span write(tr, "obs.report_write", sweep.id());
    rep.report_bytes = write_report(w, host, rep.results, reg, report_path);
  }
  rep.spans = tr.spans();
  return rep;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer values of one traced repetition.
std::map<std::string, double> layer_values(const Workload& w,
                                           const TracedRep& rep) {
  std::map<std::string, double> m;
  const std::map<std::string, double> self = self_times(rep.spans);
  double self_sum = 0.0;
  for (const auto& [name, seconds] : self) {
    self_sum += seconds;
    const bool driver = name.rfind("bench.", 0) == 0;
    m[driver ? "bench.other_s" : name + "_s"] += seconds;
  }
  m["trace.self_sum_s"] = self_sum;

  double run_span_s = 0.0;
  double idle_s = 0.0;
  for (std::size_t i = 0; i < rep.spans.size(); ++i) {
    const SpanRecord& s = rep.spans[i];
    const double d = s.end_s - s.start_s;
    if (s.name == "mta.run") {
      run_span_s += d;
      m["mta.runs"] += 1.0;
    } else if (s.name == "smp.run") {
      m["smp.runs"] += 1.0;
    } else if (s.name == "sim.sweep") {
      // Worker-seconds the sweep's pool held but no point used.
      const double workers = static_cast<double>(std::min(
          static_cast<std::size_t>(w.jobs), w.points.size()));
      idle_s += d * workers;
      for (const SpanRecord& c : rep.spans)
        if (c.parent == i) idle_s -= c.end_s - c.start_s;
    }
  }
  m["sim.sweep_idle_s"] = idle_s;

  tc3i::obs::IssueSlotAccount slots;
  for (const PointResult& r : rep.results) {
    m["mta.instructions"] += static_cast<double>(r.instructions);
    m["mta.cycles"] += static_cast<double>(r.cycles);
    slots += r.slots;
  }
  const double instr = m["mta.instructions"];
  m["mta.ns_per_instr"] = instr > 0.0 ? 1e9 * run_span_s / instr : 0.0;
  const double total = static_cast<double>(slots.total());
  const auto frac = [&](std::uint64_t v) {
    return total > 0.0 ? static_cast<double>(v) / total : 0.0;
  };
  m["mta.slot_used_frac"] = frac(slots.used);
  m["mta.slot_memory_frac"] = frac(slots.memory);
  m["mta.slot_sync_frac"] = frac(slots.sync);
  m["obs.report_bytes"] = static_cast<double>(rep.report_bytes);
  return m;
}

/// Every per-layer metric the benchmark reports, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"c3i.scenario_gen_s", "s"},     {"c3i.profile_s", "s"},
      {"c3i.trace_build_s", "s"},      {"c3i.program_build_s", "s"},
      {"platforms.testbed_load_s", "s"}, {"platforms.assemble_s", "s"},
      {"platforms.cache_hits", "count"}, {"mta.construct_s", "s"},
      {"mta.run_s", "s"},              {"mta.teardown_s", "s"},
      {"mta.ns_per_instr", "ns"},      {"mta.runs", "count"},
      {"mta.instructions", "count"},   {"mta.cycles", "count"},
      {"mta.slot_used_frac", "fraction"},
      {"mta.slot_memory_frac", "fraction"},
      {"mta.slot_sync_frac", "fraction"},
      {"smp.run_s", "s"},              {"smp.runs", "count"},
      {"sim.sweep_s", "s"},            {"sim.sweep_idle_s", "s"},
      {"obs.report_write_s", "s"},     {"obs.report_bytes", "bytes"},
      {"bench.other_s", "s"},          {"trace.self_sum_s", "s"},
      {"trace.untraced_s", "s"},       {"trace.overhead_s", "s"},
      {"host.probe_s", "s"}};
  return metrics;
}

/// Starts a new peak-resident-set window: Linux resets the process's
/// VmHWM to its current resident set. Elsewhere the window is the whole
/// process.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set of the process since the last reset_peak_rss(), in MB:
/// VmHWM from /proc/self/status, or getrusage where that is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double paper_err_max_pct(const Workload& w,
                         const std::vector<PointResult>& results) {
  double worst = 0.0;
  for (std::size_t i = 0; i < w.points.size(); ++i)
    if (w.points[i].paper_seconds > 0.0)
      worst = std::max(worst, std::abs(results[i].seconds /
                                           w.points[i].paper_seconds -
                                       1.0));
  return 100.0 * worst;
}

/// Simulated instructions per sweep: MTA instructions issued, or on a
/// workload that never runs the MTA, the operations the SMP model executed.
double simulated_instructions(const std::vector<PointResult>& results) {
  double instr = 0.0;
  double ops = 0.0;
  for (const PointResult& r : results) {
    instr += static_cast<double>(r.instructions);
    ops += static_cast<double>(r.smp_ops);
  }
  return instr > 0.0 ? instr : ops;
}

// --- the run -----------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool cache_ok = true;
  bool reports_ok = true;
  std::vector<Metric> metrics;
  std::vector<PointResult> first;  ///< one repetition's results, for the table
  std::string log;  ///< per-repetition times, printed before the result
};

std::string times_line(const std::string& what, const std::vector<double>& v,
                       const std::string& unit = "s") {
  std::string s = what + " x" + std::to_string(v.size()) + " (" + unit + "):";
  for (const double t : v) s += " " + std::to_string(t);
  return s + "\n";
}

void check_setup(const Workload& w, const Setup& s, Outcome& out) {
  if (s.cache_hits != (w.cold ? 0u : 1u)) {
    std::cerr << "perfbench_driver: set-up saw " << s.cache_hits
              << " testbed cache hits\n";
    out.cache_ok = false;
  }
}

void check_points(const Workload& w, const Expected& expected,
                  const std::vector<PointResult>& results, Outcome& out) {
  out.attempted += results.size();
  out.failed += count_failed(w, expected, results);
  if (out.first.empty()) out.first = results;
}

Outcome run_untraced(const Workload& w, const Options& opt, const Host& host,
                     const Expected& expected, RunDir& dir) {
  Outcome out;
  std::mt19937_64 rng(opt.seed);
  std::vector<std::size_t> order(w.points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!w.cold) (void)platforms::load_or_build_testbed();  // fills the cache

  const auto t0 = Clock::now();
  // Set-up takes a share of the run: most of it on a cold workload, where
  // one set-up costs as much as many sweeps.
  const double setup_budget = opt.seconds * (w.cold ? 0.5 : 0.05);
  // Peak resident set per repetition; the metric is the median
  // repetition's, so no single repetition sets it.
  std::vector<double> setup_s;
  std::vector<double> setup_rss;
  std::optional<Testbed> tb;
  for (int i = 0;; ++i) {
    reset_peak_rss();
    Setup s = timed_setup(w, dir, i);
    setup_rss.push_back(peak_rss_mb());
    check_setup(w, s, out);
    setup_s.push_back(s.scaled_s);
    tb = std::move(s.tb);
    if (opt.reps > 0 ? i + 1 >= opt.reps
                     : (i + 1 >= 3 && out_of_time(t0, setup_budget, setup_s)) ||
                           i + 1 >= 200)
      break;
  }

  // An untimed, uncounted warm-up sweep in the workload's own order. The
  // first sweep of a process sizes memory the program keeps (mta_threat's
  // peak resident set stays at 52 or 58 MB depending on it), so every seed
  // starts the timed sweeps from the same state.
  {
    std::vector<std::size_t> warm(w.points.size());
    std::iota(warm.begin(), warm.end(), std::size_t{0});
    largest_first(w, expected, warm);
    (void)timed_sweep(w, *tb, host, warm, dir.report_path(w.name), false);
  }

  std::vector<double> sweep_s;
  std::vector<double> sweep_rss;
  SweepTime sweep_time(w);
  for (int i = 0;; ++i) {
    next_order(w, expected, rng, order);
    reset_peak_rss();
    const Sweep s =
        timed_sweep(w, *tb, host, order, dir.report_path(w.name), true);
    sweep_rss.push_back(peak_rss_mb());
    out.reports_ok = out.reports_ok && s.report_bytes > 0;
    check_points(w, expected, s.results, out);
    sweep_s.push_back(s.seconds);
    sweep_time.add(s);
    if (opt.reps > 0 ? i + 1 >= opt.reps
                     : i + 1 >= 3 && out_of_time(t0, opt.seconds, sweep_s))
      break;
  }

  const double sweep = sweep_time.seconds();
  out.log = times_line("setup (scaled)", setup_s) +
            times_line("sweep (as measured)", sweep_s) +
            times_line("setup peak RSS", setup_rss, "MB") +
            times_line("sweep peak RSS", sweep_rss, "MB");
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"sweep_s", sweep, "s"},
      {"mta_minstr_per_s", simulated_instructions(out.first) / 1e6 / sweep,
       "Minstr/s"},
      {"peak_rss_mb", std::max(median(setup_rss), median(sweep_rss)), "MB"},
      {"paper_err_max_pct", paper_err_max_pct(w, out.first), "%"}};
  return out;
}

Outcome run_traced(const Workload& w, const Options& opt, const Host& host,
                   const Expected& expected, RunDir& dir) {
  Outcome out;
  std::mt19937_64 rng(opt.seed);
  std::vector<std::size_t> order(w.points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!w.cold) (void)platforms::load_or_build_testbed();  // fills the cache

  // Alternate untraced and traced repetitions of set-up + sweep, so the
  // tracing overhead compares like with like.
  const auto t0 = Clock::now();
  std::vector<double> untraced_s;
  std::vector<double> cache_hits;
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> pair_s;
  std::vector<double> probe_s;
  for (int i = 0;; ++i) {
    const auto pair_t0 = Clock::now();
    probe_s.push_back(probe_seconds());
    next_order(w, expected, rng, order);
    Setup s = timed_setup(w, dir, i);
    check_setup(w, s, out);
    cache_hits.push_back(static_cast<double>(s.cache_hits));
    const Sweep sweep =
        timed_sweep(w, *s.tb, host, order, dir.report_path(w.name), false);
    s.tb.reset();
    out.reports_ok = out.reports_ok && sweep.report_bytes > 0;
    check_points(w, expected, sweep.results, out);
    untraced_s.push_back(s.seconds + sweep.seconds);

    const TracedRep rep =
        traced_rep(w, host, order, dir.report_path(w.name));
    out.reports_ok = out.reports_ok && rep.report_bytes > 0;
    check_points(w, expected, rep.results, out);
    // The layer calls must reproduce the experiment functions exactly.
    for (std::size_t p = 0; p < w.points.size(); ++p)
      if (rep.results[p].seconds != sweep.results[p].seconds) {
        std::cerr << "perfbench_driver: traced point " << w.points[p].name
                  << " differs from its experiment function\n";
        ++out.failed;
      }
    for (const auto& [name, value] : layer_values(w, rep))
      layers[name].push_back(value);
    pair_s.push_back(since(pair_t0));
    if (opt.reps > 0 ? i + 1 >= opt.reps : out_of_time(t0, opt.seconds, pair_s))
      break;
  }

  // Means, not medians, so the self times still add up.
  const std::size_t reps = untraced_s.size();
  std::map<std::string, double> value;
  for (const auto& [name, values] : layers)
    value[name] = std::accumulate(values.begin(), values.end(), 0.0) /
                  static_cast<double>(reps);
  out.log = times_line("untraced setup+sweep", untraced_s) +
            times_line("traced setup+sweep", layers["trace.self_sum_s"]);
  value["platforms.cache_hits"] = mean(cache_hits);
  value["host.probe_s"] = mean(probe_s);
  value["trace.untraced_s"] = mean(untraced_s);
  value["trace.overhead_s"] = value["trace.self_sum_s"] - mean(untraced_s);
  for (const auto& [name, unit] : layer_metrics())
    out.metrics.push_back({name, value[name], unit});
  return out;
}

std::string result_json(const Outcome& out) {
  const bool correct = out.failed == 0 && out.cache_ok && out.reports_ok;
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
         num(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  return s + "}}";
}

void print_points(const Workload& w, const std::vector<PointResult>& results) {
  std::printf("%-28s %16s %10s\n", "point", "simulated (s)", "paper (s)");
  for (std::size_t i = 0; i < w.points.size() && i < results.size(); ++i)
    std::printf("%-28s %16.3f %10.0f\n", w.points[i].name.c_str(),
                results[i].seconds, w.points[i].paper_seconds);
}

/// Runs every point of every workload once, both ways, and writes the
/// results as the recorded values `--expected` checks against.
int record(const Options& opt) {
  RunDir dir(opt.out);
  std::ofstream file(opt.record);
  file << "# Simulated result of every benchmark point: name, seconds, MTA\n"
          "# cycles, MTA instructions issued (0 for SMP points). Written by\n"
          "# perfbench_driver --record; a point that differs fails.\n";
  for (const std::string& name : workload_names()) {
    const Workload w = *find_workload(name);
    dir.use_cache("record-" + name);
    const Testbed tb = platforms::load_or_build_testbed();
    Tracer tr;
    const Span root(tr, "bench.record", kNoParent);
    for (const Point& p : w.points) {
      const PointResult r = p.run(tb);
      const PointResult t = p.run_traced(tb, tr, root.id());
      if (t.seconds != r.seconds || t.cycles != r.cycles ||
          t.instructions != r.instructions) {
        std::cerr << "perfbench_driver: " << p.name
                  << ": traced and untraced results differ\n";
        return 1;
      }
      file << p.name << ' ' << num(r.seconds) << ' ' << r.cycles << ' '
           << r.instructions << '\n';
    }
  }
  return file.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (!opt.record.empty()) return record(opt);

  const std::optional<Workload> w = find_workload(opt.workload);
  if (!w) usage("unknown workload " + opt.workload);
  const Expected expected = load_expected(opt.expected);
  const Host host;
  Outcome out;
  {
    RunDir dir(opt.out);
    out = opt.trace ? run_traced(*w, opt, host, expected, dir)
                    : run_untraced(*w, opt, host, expected, dir);
  }

  std::cout << "perfbench " << w->name << " seed " << opt.seed << " trace "
            << opt.trace << " jobs " << w->jobs << "\nhost " << host.json()
            << '\n';
  std::cout << out.log;
  print_points(*w, out.first);
  const std::string result = result_json(out);
  std::ofstream(opt.out / "results.jsonl", std::ios::app)
      << "{\"workload\": " << quoted(w->name) << ", \"seed\": " << opt.seed
      << ", \"trace\": " << opt.trace << ", \"host\": " << host.json()
      << ", \"result\": " << result << "}\n";
  std::cout << result << std::endl;
  return 0;
}
