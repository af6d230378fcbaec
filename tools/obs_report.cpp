// One reader for every report the benches write.
//
//   obs_report <subcommand> [args...]
//
//   bottleneck  issue-slot verdicts of a RunReport
//   sweep       host and scheduler lines of a RunReport
//   diff        exact structural diff of two reports
//   trend       perf-trend history: append a run, or gate the newest runs
//
// Each subcommand's arguments, output and exit codes are documented at its
// run_* function below. Flags may appear anywhere after the subcommand.
// The one numeric flag value (trend's --scale) is parsed in parse_args and
// rejected (exit 2) unless it is wholly a finite number > 0. Exit code 2
// always means a usage error.
//
// json_check stays a separate binary: it is the schema gate, this is the
// reader.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/bottleneck.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"

namespace {

namespace obs = tc3i::obs;
using obs::JsonValue;

/// Returned by a run_* function for a usage error; main prints that
/// subcommand's usage and exits 2.
constexpr int kUsage = -1;

// --- arguments ---------------------------------------------------------------

/// A flag and what it takes after it: a number > 0 (--scale) or any
/// string (--ignore PATTERN).
struct FlagSpec {
  const char* name;
  bool positive_number;
};

struct Flag {
  std::string name;
  std::string text;     ///< the value as given
  double number = 0.0;  ///< the parsed value of a numeric flag
};

/// A subcommand's positional arguments and flags, in command-line order.
struct Args {
  std::vector<std::string> files;
  std::vector<Flag> flags;

  [[nodiscard]] const Flag* last(std::string_view name) const {
    for (auto it = flags.rbegin(); it != flags.rend(); ++it)
      if (it->name == name) return &*it;
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return last(name) != nullptr;
  }
  [[nodiscard]] double number(std::string_view name, double fallback) const {
    const Flag* f = last(name);
    return f == nullptr ? fallback : f->number;
  }
};

/// Parses `text` as the value of flag `name`; false (after printing why)
/// when it is not a finite number > 0 or has trailing characters.
bool parse_positive(const char* name, const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  const bool ok = !text.empty() && end == text.c_str() + text.size() &&
                  errno == 0 && std::isfinite(v) && v > 0.0;
  if (!ok)
    std::fprintf(stderr, "%s needs a number > 0, got '%s'\n", name,
                 text.c_str());
  *out = v;
  return ok;
}

/// The one flag loop: argv[first..] into `args`, checked against `specs`.
/// False (after printing why) on an unknown flag, a missing value or a bad
/// number.
bool parse_args(const std::vector<FlagSpec>& specs, int first, int argc,
                char** argv, Args* args) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args->files.push_back(arg);
      continue;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs)
      if (arg == s.name) spec = &s;
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      return false;
    }
    Flag flag{arg, argv[++i], 0.0};
    if (spec->positive_number &&
        !parse_positive(spec->name, flag.text, &flag.number))
      return false;
    args->flags.push_back(std::move(flag));
  }
  return true;
}

// --- shared readers ----------------------------------------------------------

/// Whole contents of `path`; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Reads and parses one JSON file. On failure prints "<path>: <why>" to
/// stderr and returns nullopt.
std::optional<JsonValue> load_json(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  std::optional<JsonValue> doc = obs::json_parse(*text, &error);
  if (!doc) std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  return doc;
}

// --- bottleneck --------------------------------------------------------------

int bottleneck_one(const std::string& path) {
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 1;
  std::string error;
  const std::optional<std::vector<obs::RunRecord>> loaded =
      obs::machine_runs_from_json(*doc, &error);
  if (!loaded) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const std::vector<obs::RunRecord>& runs = *loaded;
  std::printf("%s: bench %s, %zu machine run%s\n", path.c_str(),
              doc->string_or("bench", "?").c_str(), runs.size(),
              runs.size() == 1 ? "" : "s");
  if (runs.empty()) {
    std::fprintf(stderr, "%s: no machine_runs to classify (run the bench "
                 "under a schema-version >= 2 build)\n", path.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const obs::RunRecord& r = runs[i];
    std::printf("verdict run=%zu model=%s name=%s: %s\n", i, r.model.c_str(),
                r.name.c_str(), obs::verdict_name(obs::classify(r)));
    std::printf("    %s\n", obs::explain(r).c_str());
  }
  for (const char* model : {"mta", "smp"}) {
    obs::RunRecord agg;
    const std::size_t n = obs::aggregate(runs, model, &agg);
    if (n == 0) continue;
    std::printf("verdict aggregate model=%s runs=%zu: %s\n", model, n,
                obs::verdict_name(obs::classify(agg)));
    std::printf("    %s\n", obs::explain(agg).c_str());
  }
  return 0;
}

/// bottleneck <report.json>...
///
/// For every machine run in each report's "machine_runs", one `verdict`
/// line naming the limiting resource in the paper's vocabulary
/// (issue-limited, parallelism-limited, sync-limited, memory-bank-limited,
/// bus-limited, lock-limited) and the shares it rests on, then one
/// aggregate verdict per model. The thresholds are fixed
/// (docs/OBSERVABILITY.md). Exits 0 when every report parses and
/// has a run to classify, 1 otherwise (including a corrupt machine run).
int run_bottleneck(const Args& args) {
  if (args.files.empty()) return kUsage;
  int failures = 0;
  for (const std::string& path : args.files)
    failures += bottleneck_one(path);
  return failures == 0 ? 0 : 1;
}

// --- sweep -------------------------------------------------------------------

/// sweep <runreport.json>
///
/// Prints a `<path>: <bench>` header, then the host section a report
/// written under a live bus (--progress or --sweep-trace-out) carries: a
/// `host:` line (with the testbed cache hits and misses from "counters")
/// and a `sched:` line. Each run's own accounting is in "machine_runs"
/// (see `bottleneck`). Exits 0 on success, 2 on usage or read errors or a
/// report without a host section.
int run_sweep(const Args& args) {
  if (args.files.size() != 1) return kUsage;
  const std::string& path = args.files[0];
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 2;
  const JsonValue* host = doc->find_object("host");
  if (host == nullptr) {
    std::fprintf(stderr, "%s: no host section (write the report with "
                 "--progress or --sweep-trace-out)\n", path.c_str());
    return 2;
  }
  std::printf("%s: %s\n", path.c_str(),
              doc->string_or("bench", "?").c_str());
  const JsonValue* counters = doc->find_object("counters");
  const auto counter = [counters](const char* name) {
    return static_cast<long long>(
        counters == nullptr ? 0.0 : counters->number_or(name, 0.0));
  };
  std::printf("  host: wall %.2fs user %.2fs sys %.2fs rss %lld KB "
              "cache %lld hit / %lld miss\n",
              host->number_or("wall_seconds", 0.0),
              host->number_or("user_cpu_seconds", 0.0),
              host->number_or("sys_cpu_seconds", 0.0),
              static_cast<long long>(host->number_or("max_rss_kb", 0)),
              counter("testbed.cache.hit"), counter("testbed.cache.miss"));
  if (const JsonValue* sched = host->find_object("sched"))
    std::printf("  sched: %lld points on %lld jobs, queue-wait %.3fs, "
                "execute %.3fs\n",
                static_cast<long long>(sched->number_or("points", 0)),
                static_cast<long long>(sched->number_or("jobs", 0)),
                sched->number_or("queue_wait_seconds", 0.0),
                sched->number_or("execute_seconds", 0.0));
  return 0;
}

// --- diff --------------------------------------------------------------------

/// True when `pattern` matches `path` for --ignore purposes: a literal
/// prefix, or a whole path component anywhere in the path (so a bare
/// member name like "regions" also matches
/// "machine_runs[3].regions[0].streams"). Component boundaries are the
/// start/end of the path and the '.'/'[' separators.
bool ignore_matches(const std::string& path, const std::string& pattern) {
  if (pattern.empty()) return false;
  for (std::size_t pos = path.find(pattern); pos != std::string::npos;
       pos = path.find(pattern, pos + 1)) {
    const bool starts_component =
        pos == 0 || path[pos - 1] == '.' || path[pos - 1] == '[';
    const std::size_t end = pos + pattern.size();
    const bool ends_component =
        pos == 0 ||  // prefix semantics: any continuation is covered
        end == path.size() || path[end] == '.' || path[end] == '[' ||
        path[end] == ']';
    if (starts_component && ends_component) return true;
  }
  return false;
}

/// Context appended to "only in first/second report" messages so a whole
/// section appearing on one side (e.g. "machine_runs" from a newer-schema
/// report, or "anomalies" from an older one) is visibly an array or object
/// presence difference, not a stray scalar.
std::string presence_detail(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Array:
      return " (array with " + std::to_string(v.array.size()) + " entr" +
             (v.array.size() == 1 ? "y" : "ies") + ")";
    case JsonValue::Kind::Object:
      return " (object with " + std::to_string(v.object.size()) + " member" +
             (v.object.size() == 1 ? "" : "s") + ")";
    default:
      return "";
  }
}

struct Diff {
  std::vector<std::string> ignore;
  int count = 0;

  void report(const std::string& path, const std::string& what) {
    for (const std::string& pattern : ignore)
      if (ignore_matches(path, pattern)) return;
    std::printf("  %s: %s\n", path.empty() ? "(root)" : path.c_str(),
                what.c_str());
    ++count;
  }

  void compare(const std::string& path, const JsonValue& a,
               const JsonValue& b) {
    if (a.kind != b.kind) {
      report(path, "kind differs");
      return;
    }
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (a.boolean != b.boolean)
          report(path, a.boolean ? "true -> false" : "false -> true");
        return;
      case JsonValue::Kind::Number: {
        if (a.number != b.number) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "%.17g != %.17g", a.number, b.number);
          report(path, buf);
        }
        return;
      }
      case JsonValue::Kind::String:
        if (a.string != b.string)
          report(path, "\"" + a.string + "\" != \"" + b.string + "\"");
        return;
      case JsonValue::Kind::Array: {
        if (a.array.size() != b.array.size()) {
          report(path, "array length " + std::to_string(a.array.size()) +
                           " != " + std::to_string(b.array.size()));
          return;
        }
        for (std::size_t i = 0; i < a.array.size(); ++i)
          compare(path + "[" + std::to_string(i) + "]", a.array[i],
                  b.array[i]);
        return;
      }
      case JsonValue::Kind::Object: {
        for (const auto& [key, value] : a.object) {
          const JsonValue* other = b.find(key);
          const std::string sub = path.empty() ? key : path + "." + key;
          if (other == nullptr)
            report(sub, "only in first report" + presence_detail(value));
          else
            compare(sub, value, *other);
        }
        for (const auto& [key, value] : b.object) {
          if (a.find(key) == nullptr)
            report(path.empty() ? key : path + "." + key,
                   "only in second report" + presence_detail(value));
        }
        return;
      }
    }
  }
};

/// Expands the compact "machine_runs" form in place: an entry carrying a
/// valid "reps" count (RunReport's run-length encoding of consecutive
/// identical records, see obs::machine_run_reps) becomes that many copies
/// without the field, so a compact report diffs clean against an expanded
/// one. Any other "reps" member stays in place and is compared like any
/// other member.
void expand_machine_run_reps(JsonValue& doc) {
  if (!doc.is_object()) return;
  JsonValue* runs = nullptr;
  for (auto& [key, value] : doc.object)
    if (key == "machine_runs" && value.is_array()) runs = &value;
  if (runs == nullptr) return;
  std::vector<JsonValue> expanded;
  expanded.reserve(runs->array.size());
  for (JsonValue& run : runs->array) {
    // 0 marks a corrupt count: the entry stays one entry, "reps" and all.
    const std::uint64_t reps = obs::machine_run_reps(run);
    if (reps != 0)
      std::erase_if(run.object,
                    [](const auto& member) { return member.first == "reps"; });
    for (std::uint64_t i = 1; i < reps; ++i) expanded.push_back(run);
    expanded.push_back(std::move(run));
  }
  runs->array = std::move(expanded);
}

/// diff <a.json> <b.json> [--ignore PATTERN]...
///
/// Walks both JSON trees in parallel and prints every difference with its
/// path: missing/extra members, kind mismatches, string/bool changes, array
/// length changes, and unequal numbers. Comparison is exact, so
/// `diff r.json r.json` is a determinism check. A member present on one
/// side only is a difference like any other (a "machine_runs" array or a
/// "host" object is reported with its size, never skipped). `--ignore`
/// (repeatable) drops every difference whose path starts with the pattern
/// or contains it as a whole component: `--ignore regions` also drops
/// `machine_runs[3].regions[0].streams`. "machine_runs" entries with a
/// valid "reps" count are expanded first, so compact and expanded reports
/// diff clean. Exits 0 when the reports match, 1 when they differ, 2 on
/// usage or read errors.
int run_diff(const Args& args) {
  if (args.files.size() != 2) return kUsage;
  std::optional<JsonValue> a = load_json(args.files[0]);
  if (!a) return 2;
  std::optional<JsonValue> b = load_json(args.files[1]);
  if (!b) return 2;
  expand_machine_run_reps(*a);
  expand_machine_run_reps(*b);

  Diff diff;
  for (const Flag& f : args.flags)
    if (f.name == "--ignore") diff.ignore.push_back(f.text);
  std::printf("obs_report diff %s vs %s\n", args.files[0].c_str(),
              args.files[1].c_str());
  diff.compare("", *a, *b);
  if (diff.count == 0) {
    std::printf("reports match\n");
    return 0;
  }
  std::printf("%d difference%s\n", diff.count, diff.count == 1 ? "" : "s");
  return 1;
}

// --- trend -------------------------------------------------------------------

// The gate's policy. A row is gated against the trailing kTrendWindow
// earlier lines of its bench once it has kTrendMinRuns of them, and
// regresses when it is below both median - kTrendK x max(MAD, 1% of
// median) (K = 6 tolerates noisy shared CI hosts) and
// (1 - kTrendMinDrop) x median (the 0.7 min-ratio of the benches' own
// gates), so a tight history cannot fail on a 2% wobble and a noisy one
// cannot hide a 2x cliff.
constexpr std::size_t kTrendWindow = 10;
constexpr std::size_t kTrendMinRuns = 4;
constexpr double kTrendK = 6.0;
constexpr double kTrendMinDrop = 0.3;

struct HistoryLine {
  std::string bench;
  std::vector<std::pair<std::string, double>> rows;
};

bool parse_history(const std::string& path, std::vector<HistoryLine>* out) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return false;
  }
  std::istringstream in(*text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string error;
    const auto doc = obs::json_parse(line, &error);
    if (!doc || !doc->is_object()) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), lineno,
                   error.empty() ? "not an object" : error.c_str());
      return false;
    }
    HistoryLine h;
    h.bench = doc->string_or("bench", "");
    if (const JsonValue* rows = doc->find_object("rows"))
      for (const auto& [label, value] : rows->object)
        if (value.is_number()) h.rows.emplace_back(label, value.number);
    out->push_back(std::move(h));
  }
  return true;
}

double median_of(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0)
    m = 0.5 * (m + *std::max_element(
                        v.begin(),
                        v.begin() + static_cast<std::ptrdiff_t>(mid)));
  return m;
}

int trend_append(const std::string& history_path,
                 const std::string& report_path, double scale) {
  const std::optional<JsonValue> doc = load_json(report_path);
  if (!doc) return 2;
  const JsonValue* rows = doc->find_array("rows");
  if (rows == nullptr || rows->array.empty()) {
    std::fprintf(stderr, "%s: no rows to append\n", report_path.c_str());
    return 2;
  }
  std::ofstream out(history_path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open for append\n",
                 history_path.c_str());
    return 2;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("bench", doc->string_or("bench", "unknown"));
  w.key("rows");
  w.begin_object();
  std::size_t appended = 0;
  for (const JsonValue& row : rows->array) {
    const JsonValue* measured = row.find_number("measured");
    const std::string label = row.string_or("label", "");
    if (measured == nullptr || label.empty()) continue;
    w.field(label, measured->number * scale);
    ++appended;
  }
  w.end_object();
  w.end_object();
  out << '\n';
  std::printf("obs_report trend: appended %zu rows to %s%s\n", appended,
              history_path.c_str(),
              scale == 1.0
                  ? ""
                  : (" (scaled x" + std::to_string(scale) + ")").c_str());
  return 0;
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Gates the line at `latest_idx` (the newest line of its bench) against
/// the trailing window of earlier lines of the same bench. Returns the
/// number of regressing rows; each also appends a
/// "bench/label: measured ... < floor ..." line to *failures so the final
/// verdict names the offenders without scrolling back through the table.
int trend_check_bench(const std::vector<HistoryLine>& history,
                      std::size_t latest_idx,
                      std::vector<std::string>* failures) {
  const HistoryLine& latest = history[latest_idx];
  int regressions = 0;
  for (const auto& [label, value] : latest.rows) {
    // The most recent earlier lines of this bench that carry this label
    // (older lines may predate a row's introduction).
    std::vector<double> prior;
    for (std::size_t i = latest_idx; i-- > 0 && prior.size() < kTrendWindow;) {
      if (history[i].bench != latest.bench) continue;
      for (const auto& [plabel, pvalue] : history[i].rows)
        if (plabel == label) {
          prior.push_back(pvalue);
          break;
        }
    }
    if (prior.size() < kTrendMinRuns) {
      std::printf("  %-40s %12.4g  warming up (%zu/%zu prior runs)\n",
                  label.c_str(), value, prior.size(), kTrendMinRuns);
      continue;
    }
    const double med = median_of(prior);
    std::vector<double> dev;
    dev.reserve(prior.size());
    for (const double p : prior) dev.push_back(std::fabs(p - med));
    const double mad = median_of(dev);
    const double stat_floor =
        med - kTrendK * std::max(mad, 0.01 * std::fabs(med));
    const double drop_floor = (1.0 - kTrendMinDrop) * med;
    if (value < stat_floor && value < drop_floor) {
      std::printf("  %-40s %12.4g  REGRESSION: median %.4g, floor "
                  "max-of(%.4g stat, %.4g drop)\n",
                  label.c_str(), value, med, stat_floor, drop_floor);
      failures->push_back(latest.bench + "/" + label + ": measured " +
                          format_value(value) + " < floor " +
                          format_value(std::min(stat_floor, drop_floor)) +
                          " (median " + format_value(med) + " over " +
                          std::to_string(prior.size()) + " runs)");
      ++regressions;
    } else {
      std::printf("  %-40s %12.4g  ok (median %.4g over %zu runs)\n",
                  label.c_str(), value, med, prior.size());
    }
  }
  return regressions;
}

int trend_check(const std::string& history_path) {
  std::vector<HistoryLine> history;
  if (!parse_history(history_path, &history)) return 2;
  if (history.empty()) {
    std::fprintf(stderr, "%s: empty history\n", history_path.c_str());
    return 2;
  }
  // Newest line per distinct bench, in order of each bench's first
  // appearance: every regime in the history gates, not just the last line
  // appended.
  std::vector<std::size_t> newest;
  for (std::size_t i = 0; i < history.size(); ++i) {
    bool seen = false;
    for (std::size_t& idx : newest)
      if (history[idx].bench == history[i].bench) {
        idx = i;
        seen = true;
        break;
      }
    if (!seen) newest.push_back(i);
  }
  std::printf("obs_report trend check: %s (%zu lines, %zu bench%s, window "
              "%zu, k %g, min-drop %g)\n",
              history_path.c_str(), history.size(), newest.size(),
              newest.size() == 1 ? "" : "es", kTrendWindow, kTrendK,
              kTrendMinDrop);
  int regressions = 0;
  std::vector<std::string> failures;
  for (const std::size_t idx : newest) {
    std::printf(" bench %s (line %zu):\n", history[idx].bench.c_str(),
                idx + 1);
    regressions += trend_check_bench(history, idx, &failures);
  }
  if (regressions > 0) {
    std::printf("obs_report trend: %d regression%s\n", regressions,
                regressions == 1 ? "" : "s");
    for (const std::string& f : failures)
      std::printf("obs_report trend: FAIL %s\n", f.c_str());
    return 1;
  }
  std::printf("obs_report trend: no regressions\n");
  return 0;
}

/// trend append <history.jsonl> <runreport.json> [--scale F]
/// trend check <history.jsonl>
///
/// `append` pulls the {label -> measured} rows out of a RunReport (e.g.
/// bench/sim_throughput --report-out) and appends them as one JSONL line,
/// {"bench":"...","rows":{"saturated.cycles_per_sec":1.2e8,...}}. --scale
/// multiplies every value first: scripts/check.sh uses it to prove the
/// gate trips on an injected slowdown. `check` gates the newest line of
/// every distinct bench in the history against earlier lines of the same
/// bench under the policy above (rows are throughputs, so higher is
/// better); rows with too few prior samples report "warming up" and pass.
/// Exits 0 on pass, 1 on a regression, 2 on usage or read errors.
int run_trend(const Args& args) {
  const std::vector<std::string>& pos = args.files;
  if (pos.size() == 3 && pos[0] == "append")
    return trend_append(pos[1], pos[2], args.number("--scale", 1.0));
  if (pos.size() == 2 && pos[0] == "check" && !args.has("--scale"))
    return trend_check(pos[1]);
  return kUsage;
}

// --- main --------------------------------------------------------------------

struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<FlagSpec> flags;
  const char* usage;  ///< one line per form, each ending in '\n'
};

const Command kCommands[] = {
    {"bottleneck", run_bottleneck, {},
     "  obs_report bottleneck <report.json>...\n"},
    {"sweep", run_sweep, {}, "  obs_report sweep <runreport.json>\n"},
    {"diff", run_diff, {{"--ignore", false}},
     "  obs_report diff <a.json> <b.json> [--ignore PATTERN]...\n"},
    {"trend", run_trend, {{"--scale", true}},
     "  obs_report trend append <history.jsonl> <runreport.json> "
     "[--scale F]\n"
     "  obs_report trend check <history.jsonl>\n"},
};

/// Prints the usage of `only`, or of every subcommand when null; returns
/// the usage exit code.
int usage(const Command* only) {
  std::fputs("usage:\n", stderr);
  for (const Command& c : kCommands)
    if (only == nullptr || only == &c) std::fputs(c.usage, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(nullptr);
  for (const Command& c : kCommands) {
    if (c.name != std::string_view(argv[1])) continue;
    Args args;
    if (!parse_args(c.flags, 2, argc, argv, &args)) return usage(&c);
    const int rc = c.run(args);
    return rc == kUsage ? usage(&c) : rc;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
  return usage(nullptr);
}
