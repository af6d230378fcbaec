// One reader for every report, status file and dump the benches write.
//
//   obs_report <subcommand> [args...]
//
//   bottleneck  issue-slot (or critical-path) verdicts of a RunReport
//   whatif      what-if projections of the runs captured under --critpath
//   sweep       SweepReport group table, or a recomputation from a RunReport
//   diff        structural diff of two reports under numeric tolerances
//   flight      flight-recorder dump as one merged timeline
//   monitor     live status file (--status-out), once or followed
//   trend       perf-trend history: append a run, or gate the newest runs
//
// Each subcommand's arguments, output and exit codes are documented at its
// run_* function below. Flags may appear anywhere after the subcommand.
// Every numeric flag value is parsed in parse_args and rejected (exit 2)
// when it is not a finite number, has trailing characters or is out of
// the flag's range. Exit code 2 always means a usage error.
//
// json_check stays a separate binary: it is the schema gate, this is the
// reader.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/aggregate.hpp"
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

/// What a flag takes after it, and the range a numeric value must lie in.
enum class Value : std::uint8_t {
  kNone,           ///< a switch (--all)
  kText,           ///< any string (--ignore PREFIX)
  kNonNegative,    ///< a number >= 0 (--abs-tol, --timeout)
  kPositive,       ///< a number > 0 (--window-ms, --scale)
  kInteger,          ///< an integer >= 0 (--point)
  kPositiveInteger,  ///< an integer >= 1 (--interval)
};

struct FlagSpec {
  const char* name;
  Value value;
};

struct Flag {
  std::string name;
  std::string text;     ///< the value as given ("" for a switch)
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

/// Parses `text` as the value of `spec`; false (after printing why) when it
/// is not a finite number, has trailing characters, or is outside the
/// flag's range.
bool parse_number(const FlagSpec& spec, const std::string& text,
                  double* out) {
  const bool integer =
      spec.value == Value::kInteger || spec.value == Value::kPositiveInteger;
  const double min = spec.value == Value::kPositiveInteger ? 1.0 : 0.0;
  const bool strict = spec.value == Value::kPositive;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  // Integers stay exact in a double up to 2^53.
  const bool ok = !text.empty() && end == text.c_str() + text.size() &&
                  errno == 0 && std::isfinite(v) &&
                  (strict ? v > min : v >= min) &&
                  (!integer || (v == std::floor(v) && v <= 9007199254740992.0));
  if (!ok)
    std::fprintf(stderr, "%s needs %s %s %g, got '%s'\n", spec.name,
                 integer ? "an integer" : "a number", strict ? ">" : ">=",
                 min, text.c_str());
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
    Flag flag{arg, "", 0.0};
    if (spec->value != Value::kNone) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return false;
      }
      flag.text = argv[++i];
      if (spec->value != Value::kText &&
          !parse_number(*spec, flag.text, &flag.number))
        return false;
    }
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
/// stderr and returns nullopt; with `missing` given, a file that cannot be
/// opened is not reported but flagged there (a status file nobody has
/// published yet).
std::optional<JsonValue> load_json(const std::string& path,
                                   bool* missing = nullptr) {
  const std::optional<std::string> text = read_file(path);
  if (missing != nullptr) *missing = !text.has_value();
  if (!text) {
    if (missing == nullptr)
      std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  std::optional<JsonValue> doc = obs::json_parse(*text, &error);
  if (!doc) std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  return doc;
}

/// Number at a path of nested object members ({"metrics", "wall", "p50"}),
/// or `fallback` when any step is absent or of the wrong kind.
double number_at(const JsonValue& v, std::initializer_list<const char*> path,
                 double fallback = 0.0) {
  const JsonValue* at = &v;
  const char* const* leaf = path.end() - 1;
  for (const char* const* key = path.begin(); key != leaf && at != nullptr;
       ++key)
    at = at->find_object(*key);
  return at == nullptr ? fallback : at->number_or(*leaf, fallback);
}

std::size_t array_size(const JsonValue& v, const char* key) {
  const JsonValue* a = v.find_array(key);
  return a == nullptr ? 0 : a->array.size();
}

/// SweepReport group identity, "mta/Tera MTA/threat_seq/p4": the display
/// key of `sweep` and the matching key `diff` pairs groups by. Empty when
/// `g` is not a group object (missing any key member).
std::string group_key(const JsonValue& g) {
  if (!g.is_object() || g.find_string("model") == nullptr ||
      g.find_string("name") == nullptr ||
      g.find_string("scenario") == nullptr ||
      g.find_number("processors") == nullptr)
    return "";
  return g.string_or("model", "") + "/" + g.string_or("name", "") + "/" +
         g.string_or("scenario", "") + "/p" +
         std::to_string(static_cast<long long>(g.number_or("processors", 0)));
}

// --- bottleneck --------------------------------------------------------------

int bottleneck_one(const std::string& path, bool critical_path_mode) {
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 1;
  const std::vector<obs::RunRecord> runs = obs::machine_runs_from_json(*doc);
  std::printf("%s: bench %s, %zu machine run%s\n", path.c_str(),
              doc->string_or("bench", "?").c_str(), runs.size(),
              runs.size() == 1 ? "" : "s");
  if (runs.empty()) {
    std::fprintf(stderr, "%s: no machine_runs to classify (run the bench "
                 "under a schema-version >= 2 build)\n", path.c_str());
    return 1;
  }
  std::size_t classified = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const obs::RunRecord& r = runs[i];
    if (critical_path_mode && !r.critical_path.present) continue;
    ++classified;
    const obs::Verdict verdict =
        critical_path_mode
            ? obs::classify_critical_path(r.critical_path, r.model)
            : obs::classify(r);
    const std::string why = critical_path_mode
                                ? obs::explain_critical_path(r.critical_path)
                                : obs::explain(r);
    std::printf("verdict run=%zu model=%s name=%s: %s\n", i, r.model.c_str(),
                r.name.c_str(), obs::verdict_name(verdict));
    std::printf("    %s\n", why.c_str());
  }
  if (critical_path_mode) {
    if (classified > 0) return 0;
    std::fprintf(stderr, "%s: no critical_path sections (re-run the bench "
                 "with --critpath)\n", path.c_str());
    return 1;
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

/// bottleneck [--critical-path] <report.json>...
///
/// For every machine run in each report's "machine_runs", one `verdict`
/// line naming the limiting resource in the paper's vocabulary
/// (issue-limited, parallelism-limited, sync-limited, memory-bank-limited,
/// bus-limited, lock-limited) and the shares it rests on, then one
/// aggregate verdict per model. Thresholds are the obs::VerdictThresholds
/// defaults (docs/OBSERVABILITY.md). With --critical-path the verdicts
/// come from each run's "critical_path" section (--critpath reports)
/// instead; on the paper tables both views must agree run for run, which
/// scripts/check.sh asserts. Exits 0 when every report parses and has a
/// run to classify, 1 otherwise.
int run_bottleneck(const Args& args) {
  if (args.files.empty()) return kUsage;
  int failures = 0;
  for (const std::string& path : args.files)
    failures += bottleneck_one(path, args.has("--critical-path"));
  return failures == 0 ? 0 : 1;
}

// --- whatif ------------------------------------------------------------------

void print_projections(std::size_t index, const obs::RunRecord& run) {
  const obs::CritPathSummary& cp = run.critical_path;
  const double total = cp.total > 0 ? cp.total : 1.0;
  std::printf("run=%zu model=%s name=%s: total %.6g %s, coverage %.1f%%\n",
              index, run.model.c_str(), run.name.c_str(), cp.total,
              cp.unit.c_str(), 100.0 * cp.coverage);
  std::printf(
      "    path %.6g, bound %.6g%s%s | compute %.1f%% memory %.1f%% "
      "sync %.1f%% spawn %.1f%% queue %.1f%% gap %.1f%%\n",
      cp.path_length, cp.resource_bound,
      cp.binding_resource.empty() ? "" : " via ",
      cp.binding_resource.c_str(), 100.0 * cp.compute / total,
      100.0 * cp.memory / total, 100.0 * cp.sync / total,
      100.0 * cp.spawn / total, 100.0 * cp.queue / total,
      100.0 * cp.gap / total);
  std::printf("    %-16s %8s %14s %10s\n", "knob", "factor", "predicted",
              "speedup");
  for (const obs::KnobProjection& p : cp.projections) {
    const double speedup = p.predicted > 0.0 ? cp.total / p.predicted : 0.0;
    std::printf("    %-16s %8.2f %14.6g %9.3fx\n", p.knob.c_str(), p.factor,
                p.predicted, speedup);
  }
}

int whatif_one(const std::string& path) {
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 1;
  const std::vector<obs::RunRecord> runs =
      obs::machine_runs_from_json(*doc);
  std::size_t projected = 0;
  for (const obs::RunRecord& r : runs)
    if (r.critical_path.present) ++projected;
  std::printf("%s: bench %s, %zu machine run%s, %zu with critical_path\n",
              path.c_str(), doc->string_or("bench", "?").c_str(),
              runs.size(), runs.size() == 1 ? "" : "s", projected);
  if (projected == 0) {
    std::fprintf(stderr,
                 "%s: no critical_path sections (re-run the bench with "
                 "--critpath)\n",
                 path.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].critical_path.present) print_projections(i, runs[i]);
  return 0;
}

/// whatif <report.json>...
///
/// For every run captured under --critpath, its critical-path attribution
/// and the stored what-if projections: for each knob (compute,
/// memory_latency, sync_cost, spawn_cost) at 0.5x and 2x, the predicted
/// runtime and implied speedup. A speedup near 1x means the scaled cost is
/// off the critical path — the Coz-style answer to "would making X faster
/// help?". Exits 0 when every report parses and has a projected run, 1
/// otherwise.
int run_whatif(const Args& args) {
  if (args.files.empty()) return kUsage;
  int failures = 0;
  for (const std::string& path : args.files) failures += whatif_one(path);
  return failures == 0 ? 0 : 1;
}

// --- sweep -------------------------------------------------------------------

int sweep_render(const std::string& path) {
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 2;
  const JsonValue* groups = doc->find_array("groups");
  if (groups == nullptr) {
    std::fprintf(stderr, "%s: no \"groups\" array (not a sweep report?)\n",
                 path.c_str());
    return 2;
  }
  std::printf("%s: %s, %lld runs, %zu groups\n", path.c_str(),
              doc->string_or("bench", "?").c_str(),
              static_cast<long long>(doc->number_or("runs", 0)),
              groups->array.size());
  std::printf("  %-44s %5s %12s %12s %12s %6s %8s\n", "group", "count",
              "wall p50", "wall p90", "wall max", "util", "outliers");
  for (const JsonValue& g : groups->array)
    std::printf("  %-44s %5lld %12.4g %12.4g %12.4g %6.3f %8zu\n",
                group_key(g).c_str(),
                static_cast<long long>(g.number_or("count", 0)),
                number_at(g, {"metrics", "wall", "p50"}),
                number_at(g, {"metrics", "wall", "p90"}),
                number_at(g, {"metrics", "wall", "max"}),
                number_at(g, {"metrics", "utilization", "mean"}),
                array_size(g, "outlier_runs"));
  const JsonValue* host = doc->find_object("host");
  if (host != nullptr) {
    std::printf("  host: wall %.2fs user %.2fs sys %.2fs rss %lld KB "
                "cache %lld hit / %lld miss\n",
                host->number_or("wall_seconds", 0.0),
                host->number_or("user_cpu_seconds", 0.0),
                host->number_or("sys_cpu_seconds", 0.0),
                static_cast<long long>(host->number_or("max_rss_kb", 0)),
                static_cast<long long>(
                    host->number_or("testbed_cache_hits", 0)),
                static_cast<long long>(
                    host->number_or("testbed_cache_misses", 0)));
    if (const JsonValue* sched = host->find_object("sched"))
      std::printf("  sched: %lld points on %lld jobs, queue-wait %.3fs, "
                  "execute %.3fs\n",
                  static_cast<long long>(sched->number_or("points", 0)),
                  static_cast<long long>(sched->number_or("jobs", 0)),
                  sched->number_or("queue_wait_seconds", 0.0),
                  sched->number_or("execute_seconds", 0.0));
  }
  return 0;
}

int sweep_from_runs(const std::string& path) {
  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 2;
  const std::vector<obs::RunRecord> records =
      obs::machine_runs_from_json(*doc);
  if (records.empty()) {
    std::fprintf(stderr, "%s: no machine_runs to aggregate (need a "
                 "--report-out file with schema_version >= 2)\n",
                 path.c_str());
    return 2;
  }
  // Host accounting belongs to the emitting session; a recomputation has
  // none, so the section is all zeros (diff with --ignore host).
  obs::aggregate_records(records).write_report_json(
      std::cout, doc->string_or("bench", "unknown"),
      obs::SweepHostSection{});
  return 0;
}

/// sweep <sweep.json>
/// sweep --from-runs <runreport.json>
///
/// The first form renders a SweepReport (--sweep-report-out) as a group
/// rollup table plus host and scheduler lines. The second aggregates a
/// RunReport's machine_runs into a SweepReport on stdout with the host
/// section zeroed: the independent recomputation scripts/check.sh diffs
/// the session's own SweepReport against (`diff a b --ignore host`). Two
/// sweep reports are compared group by group with `diff`. Exits 0 on
/// success, 2 on usage or read errors.
int run_sweep(const Args& args) {
  const Flag* runs = args.last("--from-runs");
  if (runs != nullptr && args.files.empty()) return sweep_from_runs(runs->text);
  if (runs == nullptr && args.files.size() == 1)
    return sweep_render(args.files[0]);
  return kUsage;
}

// --- diff --------------------------------------------------------------------

/// True when `pattern` matches `path` for --ignore purposes: a literal
/// prefix, or a whole path component anywhere in the path (so a bare
/// member name like "critical_path" also matches
/// "machine_runs[3].critical_path.total"). Component boundaries are the
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
/// report, or "critical_path" from a --critpath run) is visibly an array
/// or object presence difference, not a stray scalar.
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

/// True when `v` is a non-empty array of sweep-report group objects.
bool is_group_array(const JsonValue& v) {
  if (!v.is_array() || v.array.empty()) return false;
  for (const JsonValue& g : v.array)
    if (group_key(g).empty()) return false;
  return true;
}

struct Diff {
  double rel_tol = 0.0;
  double abs_tol = 0.0;
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
        const double tol =
            abs_tol + rel_tol * std::max(std::fabs(a.number),
                                         std::fabs(b.number));
        if (std::fabs(a.number - b.number) > tol) {
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
        // SweepReport groups match by key, not position (see run_diff).
        const bool groups_path =
            path == "groups" ||
            (path.size() > 7 &&
             path.compare(path.size() - 7, 7, ".groups") == 0);
        if (groups_path && is_group_array(a) && is_group_array(b)) {
          compare_groups(path, a, b);
          return;
        }
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

  void compare_groups(const std::string& path, const JsonValue& a,
                      const JsonValue& b) {
    const auto find = [](const JsonValue& groups, const std::string& key) {
      for (const JsonValue& g : groups.array)
        if (group_key(g) == key) return &g;
      return static_cast<const JsonValue*>(nullptr);
    };
    for (const JsonValue& ga : a.array) {
      const std::string key = group_key(ga);
      const JsonValue* match = find(b, key);
      const std::string sub = path + "[" + key + "]";
      if (match == nullptr)
        report(sub, "group only in first report");
      else
        compare(sub, ga, *match);
    }
    for (const JsonValue& gb : b.array) {
      const std::string key = group_key(gb);
      if (find(a, key) == nullptr)
        report(path + "[" + key + "]", "group only in second report");
    }
  }
};

/// Expands the compact "machine_runs" form in place: an entry carrying a
/// "reps" count (RunReport's run-length encoding of consecutive identical
/// records) becomes that many copies without the field, so a compact
/// report diffs clean against an expanded one.
void expand_machine_run_reps(JsonValue& doc) {
  if (!doc.is_object()) return;
  JsonValue* runs = nullptr;
  for (auto& [key, value] : doc.object)
    if (key == "machine_runs" && value.is_array()) runs = &value;
  if (runs == nullptr) return;
  std::vector<JsonValue> expanded;
  expanded.reserve(runs->array.size());
  for (JsonValue& run : runs->array) {
    std::size_t reps = 1;
    if (run.is_object()) {
      for (std::size_t m = 0; m < run.object.size(); ++m) {
        if (run.object[m].first == "reps" && run.object[m].second.is_number()) {
          const double n = run.object[m].second.number;
          if (n >= 1.0 && n <= 1e6) reps = static_cast<std::size_t>(n);
          run.object.erase(run.object.begin() +
                           static_cast<std::ptrdiff_t>(m));
          break;
        }
      }
    }
    for (std::size_t i = 1; i < reps; ++i) expanded.push_back(run);
    expanded.push_back(std::move(run));
  }
  runs->array = std::move(expanded);
}

/// diff <a.json> <b.json> [--rel-tol R] [--abs-tol A] [--ignore PATTERN]...
///
/// Walks both JSON trees in parallel and prints every difference with its
/// path: missing/extra members, kind mismatches, string/bool changes, array
/// length changes, and numbers differing by more than
/// abs_tol + rel_tol * max(|a|, |b|). The default is exact comparison, so
/// `diff r.json r.json` is a determinism check. A member present on one
/// side only is a difference like any other (a "machine_runs" array or a
/// per-run "critical_path" section is reported with its size, never
/// skipped). `--ignore` (repeatable) drops every difference whose path
/// starts with the pattern or contains it as a whole component:
/// `--ignore critical_path` also drops `machine_runs[3].critical_path.total`.
/// SweepReport "groups" arrays are matched by group_key() instead of
/// position, so sweeps that enumerated the same points in another order
/// line up and a group on one side only is reported by key
/// (groups[mta/Tera MTA/threat_seq/p4]). "machine_runs" entries with a
/// "reps" count are expanded first, so compact and expanded reports diff
/// clean. Exits 0 when the reports match, 1 when they differ, 2 on usage
/// or read errors.
int run_diff(const Args& args) {
  if (args.files.size() != 2) return kUsage;
  std::optional<JsonValue> a = load_json(args.files[0]);
  if (!a) return 2;
  std::optional<JsonValue> b = load_json(args.files[1]);
  if (!b) return 2;
  expand_machine_run_reps(*a);
  expand_machine_run_reps(*b);

  Diff diff;
  diff.rel_tol = args.number("--rel-tol", 0.0);
  diff.abs_tol = args.number("--abs-tol", 0.0);
  for (const Flag& f : args.flags)
    if (f.name == "--ignore") diff.ignore.push_back(f.text);
  std::printf("obs_report diff %s vs %s (rel-tol %g, abs-tol %g)\n",
              args.files[0].c_str(), args.files[1].c_str(), diff.rel_tol,
              diff.abs_tol);
  diff.compare("", *a, *b);
  if (diff.count == 0) {
    std::printf("reports match\n");
    return 0;
  }
  std::printf("%d difference%s\n", diff.count, diff.count == 1 ? "" : "s");
  return 1;
}

// --- flight ------------------------------------------------------------------

struct FlightEvent {
  std::uint64_t t_ns = 0;
  std::uint32_t ring = 0;
  std::string kind;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Payload rendering of one event kind: the named meaning of `a` and `b`.
std::string event_detail(const FlightEvent& ev,
                         const std::vector<std::string>& labels) {
  const std::string a = std::to_string(ev.a);
  const std::string b = std::to_string(ev.b);
  if (ev.kind == "point_begin") return " point=" + a + " worker=" + b;
  if (ev.kind == "point_end") return " point=" + a;
  if (ev.kind == "phase" || ev.kind == "mark")
    return " label=" + (ev.a < labels.size() ? labels[ev.a] : a);
  if (ev.kind == "sweep_begin") return " points=" + a + " workers=" + b;
  if (ev.kind == "sweep_end") return " points=" + a;
  if (ev.kind == "counter_tick") return " delta=" + a + " total=" + b;
  if (ev.kind == "worker_idle") return " worker=" + a;
  if (ev.kind == "thread_attach") return " owner=" + a;
  if (ev.kind == "anomaly") return " ordinal=" + a + " worker=" + b;
  return "";
}

/// The dump's trigger as one greppable line:
/// "trigger reason=watchdog kind=slow_point worker=2 point=7 ...".
std::string trigger_line(const JsonValue& trig) {
  std::string line = "trigger reason=" + trig.string_or("reason", "?");
  if (const JsonValue* a = trig.find_object("anomaly"); a != nullptr) {
    char num[64];
    line += " kind=" + a->string_or("kind", "?");
    line += " worker=" + std::to_string(static_cast<std::uint64_t>(
                             a->number_or("worker", 0)));
    if (const JsonValue* p = a->find_number("point"); p != nullptr)
      line += " point=" + std::to_string(static_cast<std::uint64_t>(p->number));
    std::snprintf(num, sizeof(num), " observed_s=%.3f threshold_s=%.3f",
                  a->number_or("observed_seconds", 0.0),
                  a->number_or("threshold_seconds", 0.0));
    line += num;
  }
  if (const JsonValue* sig = trig.find_number("signal"); sig != nullptr) {
    line += " signal=" + std::to_string(static_cast<int>(sig->number)) +
            " name=" + trig.string_or("name", "?");
    if (const JsonValue* bt = trig.find_array("backtrace"); bt != nullptr)
      line += " frames=" + std::to_string(bt->array.size());
  }
  return line;
}

/// flight <dump.json> [--window-ms N] [--all] [--point IDX]
///
/// Merges a flight-recorder dump's per-thread rings (--flight-out, SIGUSR1
/// or crash) into one time-ordered timeline and prints the last
/// --window-ms milliseconds before the trigger (default 200; --all prints
/// everything), in greppable lines:
///
///   flight bench=<b> reason=<r> rings=<n> events=<n> dropped=<n> anomalies=<k>
///   trigger reason=watchdog kind=slow_point worker=2 point=7 ...
///   event t=+0.123456s ring=3 kind=point_begin point=7 worker=2 <-- anomaly
///
/// Events of a point an anomaly names are flagged "<-- anomaly <kind>";
/// --point keeps only one sweep point's events. Exits 0 when rendered, 1 on
/// read or shape errors.
int run_flight(const Args& args) {
  if (args.files.size() != 1) return kUsage;
  const std::string& path = args.files[0];
  const double window_ms = args.number("--window-ms", 200.0);
  const bool all = args.has("--all");
  const Flag* only_point = args.last("--point");

  const std::optional<JsonValue> doc = load_json(path);
  if (!doc) return 1;
  if (doc->string_or("kind", "") != "flight_dump") {
    std::fprintf(stderr, "%s: not a flight_dump\n", path.c_str());
    return 1;
  }
  const JsonValue* rings = doc->find_array("rings");
  if (rings == nullptr) {
    std::fprintf(stderr, "%s: no rings array\n", path.c_str());
    return 1;
  }

  // Labels resolve phase/mark payloads back to strings.
  std::vector<std::string> labels;
  if (const JsonValue* l = doc->find_array("labels"); l != nullptr)
    for (const JsonValue& v : l->array)
      labels.push_back(v.is_string() ? v.string : "?");

  // (point, kind) of every anomaly pinned to a point.
  std::vector<std::pair<std::uint64_t, std::string>> anomaly_points;
  const std::size_t anomalies = array_size(*doc, "anomalies");
  if (const JsonValue* arr = doc->find_array("anomalies"); arr != nullptr)
    for (const JsonValue& v : arr->array)
      if (const JsonValue* p = v.find_number("point"); p != nullptr)
        anomaly_points.emplace_back(static_cast<std::uint64_t>(p->number),
                                    v.string_or("kind", "?"));

  std::vector<FlightEvent> timeline;
  std::uint64_t dropped = 0;
  for (const JsonValue& ring : rings->array) {
    const auto ring_id = static_cast<std::uint32_t>(ring.number_or("ring", 0));
    dropped += static_cast<std::uint64_t>(ring.number_or("dropped", 0));
    const JsonValue* events = ring.find_array("events");
    if (events == nullptr) continue;
    for (const JsonValue& e : events->array)
      timeline.push_back(
          FlightEvent{static_cast<std::uint64_t>(e.number_or("t_ns", 0)),
                      ring_id, e.string_or("kind", "?"),
                      static_cast<std::uint64_t>(e.number_or("a", 0)),
                      static_cast<std::uint64_t>(e.number_or("b", 0))});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });

  std::printf("flight bench=%s reason=%s rings=%zu events=%zu dropped=%" PRIu64
              " anomalies=%zu at_s=%.3f\n",
              doc->string_or("bench", "").c_str(),
              doc->string_or("reason", "?").c_str(), rings->array.size(),
              timeline.size(), dropped, anomalies,
              doc->number_or("at_seconds", 0.0));
  if (const JsonValue* trig = doc->find_object("trigger"); trig != nullptr)
    std::printf("%s\n", trigger_line(*trig).c_str());

  // The window ends at the newest event (the trigger is always at the hot
  // end of the rings). It stays a double until it is known to be shorter
  // than end_ns, so a huge --window-ms cannot overflow the conversion.
  const std::uint64_t end_ns = timeline.empty() ? 0 : timeline.back().t_ns;
  const double window_ns = window_ms * 1e6;
  const std::uint64_t start_ns =
      all || static_cast<double>(end_ns) <= window_ns
          ? 0
          : end_ns - static_cast<std::uint64_t>(window_ns);
  std::size_t shown = 0;
  std::size_t skipped = 0;
  for (const FlightEvent& ev : timeline) {
    if (ev.t_ns < start_ns) {
      ++skipped;
      continue;
    }
    const bool has_point = ev.kind == "point_begin" || ev.kind == "point_end";
    if (only_point != nullptr &&
        (!has_point || ev.a != static_cast<std::uint64_t>(only_point->number)))
      continue;
    std::string flag;
    for (const auto& [point, kind] : anomaly_points)
      if (has_point && ev.a == point) {
        flag = "  <-- anomaly " + kind;
        break;
      }
    std::printf("event t=+%.6fs ring=%u kind=%s%s%s\n",
                static_cast<double>(ev.t_ns) / 1e9, ev.ring, ev.kind.c_str(),
                event_detail(ev, labels).c_str(), flag.c_str());
    ++shown;
  }
  if (skipped > 0)
    std::printf("window %zu event%s shown (last %.0f ms), %zu older "
                "skipped (use --all)\n",
                shown, shown == 1 ? "" : "s", window_ms, skipped);
  return 0;
}

// --- monitor -----------------------------------------------------------------

bool is_done(const JsonValue& s) {
  const JsonValue* done = s.find("done");
  return done != nullptr && done->is_bool() && done->boolean;
}

void print_status_line(const JsonValue& s) {
  const std::string bench = s.string_or("bench", "");
  const std::string phase = s.string_or("phase", "");
  std::printf("status bench=%s phase=%s version=%llu done=%d "
              "points=%.0f/%.0f pts_per_sec=%.2f eta_s=%.1f workers=%zu "
              "anomalies=%zu\n",
              bench.empty() ? "-" : bench.c_str(),
              phase.empty() ? "-" : phase.c_str(),
              static_cast<unsigned long long>(s.number_or("version", 0.0)),
              is_done(s) ? 1 : 0,
              number_at(s, {"points", "done"}),
              number_at(s, {"points", "total"}),
              number_at(s, {"points", "throughput_per_sec"}),
              number_at(s, {"points", "eta_seconds"}),
              array_size(s, "workers"), array_size(s, "anomalies"));
}

void print_anomaly_lines(const JsonValue& s) {
  const JsonValue* anomalies = s.find_array("anomalies");
  if (anomalies == nullptr) return;
  for (const JsonValue& a : anomalies->array) {
    const std::string kind = a.string_or("kind", "?");
    const double point = a.number_or("point", -1.0);
    if (point >= 0.0)
      std::printf("anomaly kind=%s worker=%.0f point=%.0f "
                  "observed_s=%.2f threshold_s=%.2f\n",
                  kind.c_str(), a.number_or("worker", 0.0), point,
                  a.number_or("observed_seconds", 0.0),
                  a.number_or("threshold_seconds", 0.0));
    else
      std::printf("anomaly kind=%s worker=%.0f observed_s=%.2f "
                  "threshold_s=%.2f\n",
                  kind.c_str(), a.number_or("worker", 0.0),
                  a.number_or("observed_seconds", 0.0),
                  a.number_or("threshold_seconds", 0.0));
  }
}

/// Redraws the --follow view on a TTY. Returns the number of lines printed
/// so the next frame can move the cursor back up.
int render_frame(const JsonValue& s) {
  const std::string bench = s.string_or("bench", "");
  const std::string phase = s.string_or("phase", "");
  const double total = number_at(s, {"points", "total"});
  const double points_done = number_at(s, {"points", "done"});
  const double hits = number_at(s, {"cache", "hits"});
  int lines = 2;
  std::printf("\x1b[K%s · %s · snapshot %llu%s\n",
              bench.empty() ? "(bench?)" : bench.c_str(),
              phase.empty() ? "(no phase)" : phase.c_str(),
              static_cast<unsigned long long>(s.number_or("version", 0.0)),
              is_done(s) ? " · DONE" : "");
  std::printf("\x1b[K  points %.0f/%.0f (%.0f%%)  %.2f pts/s  eta %.1fs  "
              "rss %.0f MiB  cache %.0f/%.0f\n",
              points_done, total,
              total > 0.0 ? 100.0 * points_done / total : 0.0,
              number_at(s, {"points", "throughput_per_sec"}),
              number_at(s, {"points", "eta_seconds"}),
              number_at(s, {"host", "max_rss_kb"}) / 1024.0, hits,
              hits + number_at(s, {"cache", "misses"}));
  if (const JsonValue* workers = s.find_array("workers"))
    for (const JsonValue& w : workers->array) {
      const std::string state = w.string_or("state", "?");
      if (state == "running")
        std::printf("\x1b[K  w%-3.0f running p%-6.0f done %-5.0f "
                    "hb %.1fs  age %.1fs\n",
                    w.number_or("worker", 0.0), w.number_or("point", -1.0),
                    w.number_or("points_done", 0.0),
                    w.number_or("heartbeat_age_seconds", 0.0),
                    w.number_or("point_age_seconds", 0.0));
      else
        std::printf("\x1b[K  w%-3.0f %-7s %7s done %-5.0f hb %.1fs\n",
                    w.number_or("worker", 0.0), state.c_str(), "",
                    w.number_or("points_done", 0.0),
                    w.number_or("heartbeat_age_seconds", 0.0));
      ++lines;
    }
  if (const JsonValue* anomalies = s.find_array("anomalies"))
    for (const JsonValue& a : anomalies->array) {
      const double point = a.number_or("point", -1.0);
      std::printf("\x1b[K  !! %s worker %.0f%s%s observed %.2fs "
                  "(threshold %.2fs)\n",
                  a.string_or("kind", "?").c_str(), a.number_or("worker", 0.0),
                  point >= 0.0 ? " point " : "",
                  point >= 0.0
                      ? std::to_string(static_cast<long long>(point)).c_str()
                      : "",
                  a.number_or("observed_seconds", 0.0),
                  a.number_or("threshold_seconds", 0.0));
      ++lines;
    }
  std::fflush(stdout);
  return lines;
}

/// Reads the status file; nullopt (after printing why, unless the file is
/// merely absent and `missing` is given) when it is not a live status.
std::optional<JsonValue> load_status(const std::string& path,
                                     bool* missing = nullptr) {
  std::optional<JsonValue> doc = load_json(path, missing);
  if (doc && (!doc->is_object() ||
              doc->string_or("kind", "") != "live_status")) {
    std::fprintf(stderr, "%s: not a live_status file\n", path.c_str());
    return std::nullopt;
  }
  return doc;
}

/// monitor <status.json> [--once]
/// monitor <status.json> --follow [--interval MS] [--timeout S]
///
/// --once (the default) reads the live status file (--status-out) once and
/// prints one summary line
///   status bench=<b> phase=<p> version=<v> done=<0|1> points=<done>/<total>
///          pts_per_sec=<r> eta_s=<e> workers=<n> anomalies=<k>
/// then one `anomaly kind=... worker=...` line per watchdog finding, for
/// CI to grep like bottleneck's verdict lines. --follow polls the file
/// every --interval ms (default 500) and redraws a live per-worker view
/// until a done=true snapshot lands; on a non-TTY stdout it prints one
/// summary line per new snapshot version. --timeout (default 0 = none)
/// bounds the wait. The publisher renames complete snapshots into place,
/// so a read never sees a torn file; a missing file means nothing is
/// published yet and --follow keeps waiting. Exits 0 healthy (done reached
/// under --follow), 3 when the last snapshot read carries anomalies, 1 on
/// read errors or a --follow timeout.
int run_monitor(const Args& args) {
  if (args.files.size() != 1) return kUsage;
  const std::string& path = args.files[0];
  bool follow = false;
  for (const Flag& f : args.flags)
    if (f.name == "--once" || f.name == "--follow")
      follow = f.name == "--follow";
  const auto interval = std::chrono::milliseconds(
      static_cast<long long>(args.number("--interval", 500.0)));
  const double timeout_s = args.number("--timeout", 0.0);

  if (!follow) {
    const std::optional<JsonValue> s = load_status(path);
    if (!s) return 1;
    print_status_line(*s);
    print_anomaly_lines(*s);
    return array_size(*s, "anomalies") == 0 ? 0 : 3;
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t last_version = 0;
  int last_lines = 0;
  for (;;) {
    bool missing = false;
    if (const std::optional<JsonValue> s = load_status(path, &missing)) {
      const auto version =
          static_cast<std::uint64_t>(s->number_or("version", 0.0));
      if (version != last_version) {
        last_version = version;
        if (tty) {
          if (last_lines > 0) std::printf("\x1b[%dA", last_lines);
          last_lines = render_frame(*s);
        } else {
          print_status_line(*s);
        }
      }
      if (is_done(*s)) {
        if (tty) print_anomaly_lines(*s);
        return array_size(*s, "anomalies") == 0 ? 0 : 3;
      }
    } else if (!missing) {
      // A present-but-unparsable file is a real error: the publisher
      // renames complete snapshots into place, so this never races.
      return 1;
    }
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - start;
    if (timeout_s > 0.0 && waited.count() >= timeout_s) {
      std::fprintf(stderr, "no done=true snapshot within %.1fs\n", timeout_s);
      return 1;
    }
    std::this_thread::sleep_for(interval);
  }
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
    {"bottleneck", run_bottleneck, {{"--critical-path", Value::kNone}},
     "  obs_report bottleneck [--critical-path] <report.json>...\n"},
    {"whatif", run_whatif, {}, "  obs_report whatif <report.json>...\n"},
    {"sweep", run_sweep, {{"--from-runs", Value::kText}},
     "  obs_report sweep <sweep.json>   (compare two with obs_report diff)\n"
     "  obs_report sweep --from-runs <runreport.json>\n"},
    {"diff",
     run_diff,
     {{"--rel-tol", Value::kNonNegative},
      {"--abs-tol", Value::kNonNegative},
      {"--ignore", Value::kText}},
     "  obs_report diff <a.json> <b.json> [--rel-tol R] [--abs-tol A] "
     "[--ignore PATTERN]...\n"},
    {"flight",
     run_flight,
     {{"--window-ms", Value::kPositive},
      {"--all", Value::kNone},
      {"--point", Value::kInteger}},
     "  obs_report flight <dump.json> [--window-ms N] [--all] "
     "[--point IDX]\n"},
    {"monitor",
     run_monitor,
     {{"--once", Value::kNone},
      {"--follow", Value::kNone},
      {"--interval", Value::kPositiveInteger},
      {"--timeout", Value::kNonNegative}},
     "  obs_report monitor <status.json> [--once]\n"
     "  obs_report monitor <status.json> --follow [--interval MS] "
     "[--timeout S]\n"},
    {"trend", run_trend, {{"--scale", Value::kPositive}},
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
