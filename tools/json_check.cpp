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
// [1, 10^6], the optional "host" section must carry non-negative host and
// "sched" fields, and from schema_version 5 the "anomalies" watchdog
// array must be present, well-formed, and referentially sound (a pinned
// point/worker must name a point present in machine_runs / a worker the
// sweep could have used, at most host.sched.jobs when that is known).
// Files carrying "kind":"live_status" (--status-out) get the LiveStatus
// pass instead: consistent points accounting (done <= total),
// non-negative rates/ages, per-worker state objects and the anomalies
// array (anomaly workers must appear in the workers roster). Arguments
// ending in .csv are validated as --timeline-out output instead (exact
// header, six columns, strictly increasing cycle grid per run+series,
// non-negative values — see obs::validate_timeline_csv). Exits 0 when
// every file passes, 1 otherwise (printing the first error per file).
// Used by scripts/check.sh to validate --trace-out / --report-out /
// --timeline-out / --status-out output without a JSON library. It is the
// schema gate only; `obs_report` (tools/obs_report.cpp) reads and renders
// the same files.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

/// Checks the six host-resource fields of a "host" object (RunReport and
/// LiveStatus share them) are present and non-negative. Empty string when
/// fine.
std::string check_host_usage(const JsonValue& host) {
  for (const char* field :
       {"wall_seconds", "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
        "minor_faults", "major_faults"}) {
    const JsonValue* v = host.find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.") + field + " missing or negative";
  }
  return "";
}

/// Validates a watchdog "anomalies" array (RunReport v5 and the
/// LiveStatus file share one shape). Beyond shape, anomalies are checked
/// referentially against the document they live in:
/// a pinned point index must name a point the sweep actually ran
/// (`max_point`, exclusive; < 0 disables), the worker id must be one the
/// sweep could schedule (`max_worker`, exclusive; < 0 disables), and when
/// the document lists its workers (`worker_ids` non-null, LiveStatus) the
/// anomaly's worker must appear in that list. Empty string when fine.
std::string check_anomalies(const JsonValue& doc, double max_point,
                            double max_worker,
                            const std::vector<double>* worker_ids) {
  const JsonValue* anomalies = doc.find_array("anomalies");
  if (anomalies == nullptr) return "missing array \"anomalies\"";
  for (std::size_t i = 0; i < anomalies->array.size(); ++i) {
    const JsonValue& a = anomalies->array[i];
    const std::string at = "anomalies[" + std::to_string(i) + "]";
    if (!a.is_object()) return at + " is not an object";
    const std::string kind = a.string_or("kind", "");
    if (kind != "slow_point" && kind != "stalled_worker")
      return at + ".kind is not \"slow_point\" or \"stalled_worker\"";
    const JsonValue* worker = a.find_number("worker");
    if (worker == nullptr || worker->number < 0.0)
      return at + ".worker missing or negative";
    if (max_worker >= 0.0 && worker->number >= max_worker)
      return at + ".worker " + std::to_string(worker->number) +
             " was never a sweep worker (max " + std::to_string(max_worker) +
             ")";
    if (worker_ids != nullptr &&
        std::find(worker_ids->begin(), worker_ids->end(), worker->number) ==
            worker_ids->end())
      return at + ".worker " + std::to_string(worker->number) +
             " does not appear in the workers array";
    if (const JsonValue* point = a.find_number("point");
        point != nullptr && max_point >= 0.0 && point->number >= max_point)
      return at + ".point " + std::to_string(point->number) +
             " names no point the sweep ran (have " +
             std::to_string(max_point) + ")";
    for (const char* field :
         {"at_seconds", "observed_seconds", "threshold_seconds"}) {
      const JsonValue* v = a.find_number(field);
      if (v == nullptr || v->number < 0.0)
        return at + "." + field + " missing or negative";
    }
    if (a.number_or("observed_seconds", 0.0) <
        a.number_or("threshold_seconds", 0.0))
      return at + ": observed_seconds below threshold_seconds";
  }
  return "";
}

/// Returns an empty string when `doc` passes the RunReport schema checks,
/// else the first problem found.
std::string check_report_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  for (const char* section : {"config", "counters", "gauges", "histograms"})
    if (doc.find_object(section) == nullptr)
      return std::string("missing object \"") + section + "\"";
  if (doc.find_array("rows") == nullptr) return "missing array \"rows\"";

  for (const char* section : {"counters", "gauges"}) {
    for (const auto& [name, value] : doc.find_object(section)->object) {
      if (!valid_metric_name(name))
        return std::string(section) + " name \"" + name +
               "\" outside [a-z0-9_.]";
      if (!value.is_number())
        return std::string(section) + "." + name + " is not a number";
      if (section == std::string("counters") && value.number < 0.0)
        return "counters." + name + " is negative";
    }
  }
  for (const auto& [name, value] : doc.find_object("histograms")->object) {
    if (!valid_metric_name(name))
      return "histogram name \"" + name + "\" outside [a-z0-9_.]";
    if (!value.is_object()) return "histograms." + name + " is not an object";
    for (const char* field : {"count", "sum", "p50", "p90", "p99", "max"})
      if (value.find(field) == nullptr)
        return "histograms." + name + " missing \"" + field + "\"";
  }

  if (version->number < 2.0) return "";
  const JsonValue* runs = doc.find_array("machine_runs");
  if (runs == nullptr)
    return "schema_version >= 2 but no \"machine_runs\" array";
  double total_runs = 0.0;
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
    const std::uint64_t reps = tc3i::obs::machine_run_reps(run);
    if (reps == 0)
      return at + ".reps is not an integer in [1, " +
             std::to_string(tc3i::obs::kMaxMachineRunReps) + "]";
    total_runs += static_cast<double>(reps);
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
  double max_worker = 256.0;  // the live bus's worker-slot table
  if (const JsonValue* host = doc.find("host")) {
    if (!host->is_object()) return "host is not an object";
    const std::string problem = check_host_usage(*host);
    if (!problem.empty()) return problem;
    const JsonValue* sched = host->find_object("sched");
    if (sched == nullptr) return "missing object \"host.sched\"";
    for (const char* field : {"sweeps", "points", "jobs",
                              "queue_wait_seconds", "execute_seconds"}) {
      const JsonValue* v = sched->find_number(field);
      if (v == nullptr || v->number < 0.0)
        return std::string("host.sched.") + field + " missing or negative";
    }
    // Zero jobs means no sweep ran: leave the table bound.
    if (sched->number_or("jobs", 0.0) > 0.0)
      max_worker = sched->number_or("jobs", 0.0);
  }
  if (version->number >= 5.0) {
    // Referential pass: an anomaly's pinned point must name one of the
    // machine runs recorded above (sweep point i produced run i), and its
    // worker id must be one the sweep scheduled.
    const std::string problem =
        check_anomalies(doc, total_runs, max_worker, nullptr);
    if (!problem.empty()) return problem;
  }
  return "";
}

/// Returns an empty string when `doc` passes the LiveStatus (--status-out,
/// kind "live_status") checks, else the first problem.
std::string check_live_status_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  if (doc.find_string("phase") == nullptr) return "missing string \"phase\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  if (version->number < 1.0) return "live_status needs schema_version >= 1";
  const JsonValue* snapshot = doc.find_number("version");
  if (snapshot == nullptr || snapshot->number < 1.0)
    return "missing \"version\" (snapshot counter) >= 1";
  if (doc.number_or("at_seconds", -1.0) < 0.0)
    return "at_seconds missing or negative";
  const JsonValue* done = doc.find("done");
  if (done == nullptr || !done->is_bool()) return "missing bool \"done\"";
  const JsonValue* points = doc.find_object("points");
  if (points == nullptr) return "missing object \"points\"";
  const double total = points->number_or("total", -1.0);
  const double points_done = points->number_or("done", -1.0);
  if (total < 0.0) return "points.total missing or negative";
  if (points_done < 0.0) return "points.done missing or negative";
  if (points_done > total) return "points.done exceeds points.total";
  for (const char* field :
       {"throughput_per_sec", "eta_seconds", "median_point_seconds"}) {
    const JsonValue* v = points->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("points.") + field + " missing or negative";
  }
  const JsonValue* cache = doc.find_object("cache");
  if (cache == nullptr) return "missing object \"cache\"";
  for (const char* field : {"hits", "misses"})
    if (cache->number_or(field, -1.0) < 0.0)
      return std::string("cache.") + field + " missing or negative";
  const JsonValue* host = doc.find_object("host");
  if (host == nullptr) return "missing object \"host\"";
  const std::string host_problem = check_host_usage(*host);
  if (!host_problem.empty()) return host_problem;
  const JsonValue* workers = doc.find_array("workers");
  if (workers == nullptr) return "missing array \"workers\"";
  double worker_points = 0.0;
  std::vector<double> worker_ids;
  for (std::size_t i = 0; i < workers->array.size(); ++i) {
    const JsonValue& ws = workers->array[i];
    const std::string at = "workers[" + std::to_string(i) + "]";
    if (!ws.is_object()) return at + " is not an object";
    if (ws.number_or("worker", -1.0) < 0.0)
      return at + ".worker missing or negative";
    worker_ids.push_back(ws.number_or("worker", -1.0));
    const std::string state = ws.string_or("state", "");
    if (state != "running" && state != "idle")
      return at + ".state is not \"running\" or \"idle\"";
    if (state == "running" && ws.find_number("point") == nullptr)
      return at + " running but missing point";
    for (const char* field :
         {"points_done", "heartbeat_age_seconds", "point_age_seconds"}) {
      const JsonValue* v = ws.find_number(field);
      if (v == nullptr || v->number < 0.0)
        return at + "." + field + " missing or negative";
    }
    worker_points += ws.number_or("points_done", 0.0);
  }
  // The top-level counter is the sum of the per-worker slots (both folded
  // from the same snapshot).
  if (worker_points != points_done)
    return "workers' points_done sum to " + std::to_string(worker_points) +
           ", expected points.done = " + std::to_string(points_done);
  // Referential pass: the snapshot carries its own worker roster and the
  // sweep's point count, so an anomaly must name one of those workers and
  // a point inside the sweep.
  return check_anomalies(doc, total > 0.0 ? total : -1.0, -1.0, &worker_ids);
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
    if (doc->is_object() && doc->string_or("kind", "") == "live_status") {
      const std::string problem = check_live_status_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: live status schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, live status schema ok)\n", argv[i],
                  text.size());
    } else if (doc->is_object() && doc->find("schema_version") != nullptr) {
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
