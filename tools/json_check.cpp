// Strict syntax/schema checker for exported traces, reports and timelines.
//
//   json_check file.json [timeline.csv ...]
//
// Every *.json file must parse as one complete JSON value. Files that look
// like a RunReport (an object carrying "schema_version") additionally get
// a schema pass: the required sections must be present with the right
// kinds, counter names must stick to the [a-z0-9_.] charset, counter
// values must be non-negative, each MTA machine-run's issue-slot account
// must sum to cycles x processors, a "reps" count must be an integer in
// [1, 10^6], and the optional "host" section must carry non-negative host
// and "sched" fields. Members the writer no longer emits (an older
// report's "anomalies", "notes", "gauges" or "histograms") are ignored.
// Arguments ending in .csv are validated as --timeline-out output instead
// (exact header, six columns, strictly increasing cycle grid per
// run+series, non-negative values — see obs::validate_timeline_csv).
// Exits 0 when every file passes, 1 otherwise (printing the first error
// per file). Used by scripts/check.sh to validate --trace-out /
// --report-out / --timeline-out / --sweep-trace-out output without a JSON
// library. It is the schema gate only; `obs_report`
// (tools/obs_report.cpp) reads and renders the same files.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"

namespace {

using tc3i::obs::JsonValue;

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
          c == '.'))
      return false;
  return true;
}

/// Returns an empty string when `doc` passes the RunReport schema checks,
/// else the first problem found.
std::string check_report_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  for (const char* section : {"config", "counters"})
    if (doc.find_object(section) == nullptr)
      return std::string("missing object \"") + section + "\"";
  if (doc.find_array("rows") == nullptr) return "missing array \"rows\"";

  for (const auto& [name, value] : doc.find_object("counters")->object) {
    if (!valid_metric_name(name))
      return "counters name \"" + name + "\" outside [a-z0-9_.]";
    if (!value.is_number()) return "counters." + name + " is not a number";
    if (value.number < 0.0) return "counters." + name + " is negative";
  }

  if (version->number < 2.0) return "";
  const JsonValue* runs = doc.find_array("machine_runs");
  if (runs == nullptr)
    return "schema_version >= 2 but no \"machine_runs\" array";
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const JsonValue& run = runs->array[i];
    const std::string at = "machine_runs[" + std::to_string(i) + "]";
    if (!run.is_object()) return at + " is not an object";
    const std::string model = run.string_or("model", "");
    if (model != "mta" && model != "smp")
      return at + ".model is neither \"mta\" nor \"smp\"";
    if (run.find_string("name") == nullptr) return at + " missing name";
    // Compact form: the object stands for `reps` consecutive identical
    // records (RunReport's run-length encoding).
    if (tc3i::obs::machine_run_reps(run) == 0)
      return at + ".reps is not an integer in [1, " +
             std::to_string(tc3i::obs::kMaxMachineRunReps) + "]";
    const double procs = run.number_or("processors", 0.0);
    if (procs < 1.0) return at + ".processors < 1";
    if (run.find_number("utilization") == nullptr)
      return at + " missing utilization";
    if (model != "mta") continue;
    const JsonValue* slots = run.find_object("slots");
    if (slots == nullptr) return at + " missing slots object";
    double total = 0.0;
    for (const char* field :
         {"used", "no_stream", "spacing", "spawn", "memory", "sync"}) {
      const JsonValue* v = slots->find_number(field);
      if (v == nullptr) return at + ".slots missing \"" + field + "\"";
      if (v->number < 0.0) return at + ".slots." + field + " is negative";
      total += v->number;
    }
    const double expect = run.number_or("cycles", 0.0) * procs;
    if (std::fabs(total - expect) > 0.5)
      return at + ".slots sum to " + std::to_string(total) +
             ", expected cycles x processors = " + std::to_string(expect);
  }
  // The optional host section (written whenever a live bus ran).
  if (const JsonValue* host = doc.find("host")) {
    if (!host->is_object()) return "host is not an object";
    for (const char* field :
         {"wall_seconds", "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
          "minor_faults", "major_faults"}) {
      const JsonValue* v = host->find_number(field);
      if (v == nullptr || v->number < 0.0)
        return std::string("host.") + field + " missing or negative";
    }
    const JsonValue* sched = host->find_object("sched");
    if (sched == nullptr) return "missing object \"host.sched\"";
    for (const char* field : {"sweeps", "points", "jobs",
                              "queue_wait_seconds", "execute_seconds"}) {
      const JsonValue* v = sched->find_number(field);
      if (v == nullptr || v->number < 0.0)
        return std::string("host.sched.") + field + " missing or negative";
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_check <file.json|file.csv> [...]\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string path = argv[i];
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
      const std::string problem = tc3i::obs::validate_timeline_csv(text);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: timeline csv: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, timeline csv ok)\n", argv[i],
                  text.size());
      continue;
    }
    std::string error;
    const auto doc = tc3i::obs::json_parse(text, &error);
    if (!doc) {
      std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
      ++failures;
      continue;
    }
    if (doc->is_object() && doc->find("schema_version") != nullptr) {
      const std::string problem = check_report_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: report schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, report schema ok)\n", argv[i],
                  text.size());
    } else {
      std::printf("%s: ok (%zu bytes)\n", argv[i], text.size());
    }
  }
  return failures == 0 ? 0 : 1;
}
