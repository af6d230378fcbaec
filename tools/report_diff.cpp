// Structural diff of two RunReport JSON files under numeric tolerances.
//
//   report_diff a.json b.json [--rel-tol R] [--abs-tol A] [--ignore PREFIX]
//
// Walks both JSON trees in parallel and reports every difference with its
// path: missing/extra object members, kind mismatches, string/bool
// changes, array length changes, and numbers differing by more than
// abs_tol + rel_tol * max(|a|, |b|). Defaults are exact comparison
// (rel-tol 0, abs-tol 0), which makes `report_diff r.json r.json` a
// determinism check. An object member present in only one report is a
// difference like any other — in particular a "machine_runs" array (or a
// per-run "critical_path" section) one report has and the other lacks is
// reported, with the array's length for context, never silently skipped.
// `--ignore` (repeatable) drops every difference whose path starts with
// the given prefix (e.g. `--ignore config.host`) or that contains it as a
// path component — `--ignore critical_path` also drops
// `machine_runs[3].critical_path.total`. SweepReport "groups" arrays
// (--sweep-report-out, schema v4) are diffed group-wise: entries are
// matched by their (model, name, scenario, processors) key instead of
// array position, so two sweeps that enumerated the same points in a
// different order still line up, and a group present on only one side is
// reported by key (paths look like groups[mta/Tera MTA/threat_seq/p4]).
// "machine_runs" entries carrying a "reps" count (RunReport's run-length
// encoding of consecutive identical records) are expanded before the
// comparison, so compact and expanded reports diff clean against each
// other. Exits 0 when the reports match, 1 when they differ, 2 on usage or
// parse errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using tc3i::obs::JsonValue;

struct Options {
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  std::vector<std::string> ignore;
};

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

/// SweepReport group identity, used to match "groups" entries across the
/// two reports regardless of array order. Empty when `g` is not a group
/// object (missing any key member).
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

/// True when `v` is a non-empty array of sweep-report group objects.
bool is_group_array(const JsonValue& v) {
  if (!v.is_array() || v.array.empty()) return false;
  for (const JsonValue& g : v.array)
    if (group_key(g).empty()) return false;
  return true;
}

struct Diff {
  const Options* opts = nullptr;
  int count = 0;

  void report(const std::string& path, const std::string& what) {
    for (const std::string& pattern : opts->ignore)
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
        const double tol = opts->abs_tol +
                           opts->rel_tol * std::max(std::fabs(a.number),
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
        // SweepReport groups match by key, not position (see file comment).
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
    for (const JsonValue& ga : a.array) {
      const std::string key = group_key(ga);
      const JsonValue* match = nullptr;
      for (const JsonValue& gb : b.array)
        if (group_key(gb) == key) {
          match = &gb;
          break;
        }
      const std::string sub = path + "[" + key + "]";
      if (match == nullptr)
        report(sub, "group only in first report");
      else
        compare(sub, ga, *match);
    }
    for (const JsonValue& gb : b.array) {
      const std::string key = group_key(gb);
      bool found = false;
      for (const JsonValue& ga : a.array)
        if (group_key(ga) == key) {
          found = true;
          break;
        }
      if (!found) report(path + "[" + key + "]", "group only in second report");
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

bool load(const char* path, JsonValue* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = tc3i::obs::json_parse(buf.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return false;
  }
  *out = std::move(*doc);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--rel-tol" && has_next) {
      opts.rel_tol = std::strtod(argv[++i], nullptr);
    } else if (arg == "--abs-tol" && has_next) {
      opts.abs_tol = std::strtod(argv[++i], nullptr);
    } else if (arg == "--ignore" && has_next) {
      opts.ignore.emplace_back(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: report_diff <a.json> <b.json> [--rel-tol R] "
                 "[--abs-tol A] [--ignore PREFIX]\n");
    return 2;
  }

  JsonValue a;
  JsonValue b;
  if (!load(files[0], &a) || !load(files[1], &b)) return 2;
  expand_machine_run_reps(a);
  expand_machine_run_reps(b);

  std::printf("report_diff %s vs %s (rel-tol %g, abs-tol %g)\n", files[0],
              files[1], opts.rel_tol, opts.abs_tol);
  Diff diff;
  diff.opts = &opts;
  diff.compare("", a, b);
  if (diff.count == 0) {
    std::printf("reports match\n");
    return 0;
  }
  std::printf("%d difference%s\n", diff.count, diff.count == 1 ? "" : "s");
  return 1;
}
