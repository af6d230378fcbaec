// Strict syntax/schema checker for exported traces, reports and timelines.
//
//   json_check file.json [timeline.csv ...]
//
// Every *.json file must parse as one complete JSON value. Files that look
// like a RunReport (an object carrying "schema_version") additionally get
// a schema pass: the required sections must be present with the right
// kinds, counter names must stick to the [a-z0-9_.] charset, counter
// values must be non-negative, each MTA machine-run's issue-slot account
// must sum to cycles x processors, any "critical_path" section (runs
// captured under --critpath) must carry non-negative attribution buckets
// that sum to its total, plus well-formed projections, and from
// schema_version 5 the "anomalies" watchdog array must be present,
// well-formed, and referentially sound (a pinned point/worker must name a
// point present in machine_runs / a worker the sweep could have used).
// Files carrying "kind":"sweep_report" (--sweep-report-out,
// schema_version >= 4) get the SweepReport pass instead: every group
// needs the full metric set with internally consistent summaries
// (count/sum/mean agree, min <= p10 <= p50 <= p90 <= max), MTA groups'
// six slot_share.* means must sum to 1, the
// host/sched accounting must be present and non-negative, and v5 reports
// need the "anomalies" array. Files carrying "kind":"live_status"
// (--status-out) get the LiveStatus pass: consistent points accounting
// (done <= total), non-negative rates/ages, per-worker state objects and
// the anomalies array (anomaly workers must appear in the workers
// roster). Files carrying "kind":"flight_dump" (--flight-out, SIGUSR1 or
// the crash handler) get the flight pass: trigger/labels/counters
// sections, and per-ring event accounting (events_total = kept +
// dropped, kept <= ring_capacity, known event kinds). Arguments ending
// in .csv are validated as
// --timeline-out output instead (exact header, six columns, strictly
// increasing cycle grid per run+series, non-negative values — see
// obs::validate_timeline_csv). Exits 0 when every file passes, 1
// otherwise (printing the first error per file). Used by scripts/check.sh
// to validate --trace-out / --report-out / --timeline-out /
// --sweep-report-out / --status-out output without a JSON library. It is
// the schema gate only; `obs_report` (tools/obs_report.cpp) reads and
// renders the same files.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
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

/// Validates one machine run's optional "critical_path" section. Empty
/// string when fine, else the first problem.
std::string check_critical_path(const JsonValue& cp, const std::string& at) {
  if (!cp.is_object()) return at + " is not an object";
  const std::string unit = cp.string_or("unit", "");
  if (unit != "cycles" && unit != "seconds")
    return at + ".unit is neither \"cycles\" nor \"seconds\"";
  const JsonValue* total = cp.find_number("total");
  if (total == nullptr || total->number < 0.0)
    return at + ".total missing or negative";
  for (const char* field : {"path_length", "resource_bound", "coverage"}) {
    const JsonValue* v = cp.find_number(field);
    if (v == nullptr || v->number < 0.0)
      return at + "." + field + " missing or negative";
  }
  const JsonValue* attribution = cp.find_object("attribution");
  if (attribution == nullptr) return at + " missing attribution object";
  double sum = 0.0;
  for (const char* field :
       {"compute", "memory", "sync", "spawn", "queue", "gap"}) {
    const JsonValue* v = attribution->find_number(field);
    if (v == nullptr) return at + ".attribution missing \"" + field + "\"";
    if (v->number < 0.0) return at + ".attribution." + field + " is negative";
    sum += v->number;
  }
  // Edge weights are stored as float32; allow that much accumulation slack.
  if (std::fabs(sum - total->number) > 1e-9 + 1e-4 * total->number)
    return at + ".attribution sums to " + std::to_string(sum) +
           ", expected total = " + std::to_string(total->number);
  const JsonValue* projections = cp.find_array("projections");
  if (projections == nullptr) return at + " missing projections array";
  for (std::size_t i = 0; i < projections->array.size(); ++i) {
    const JsonValue& p = projections->array[i];
    const std::string pat = at + ".projections[" + std::to_string(i) + "]";
    if (!p.is_object()) return pat + " is not an object";
    if (p.find_string("knob") == nullptr) return pat + " missing knob";
    if (p.number_or("factor", 0.0) <= 0.0) return pat + ".factor <= 0";
    const JsonValue* predicted = p.find_number("predicted");
    if (predicted == nullptr || predicted->number < 0.0)
      return pat + ".predicted missing or negative";
  }
  return "";
}

/// Validates a watchdog "anomalies" array (RunReport / SweepReport v5,
/// the LiveStatus file and flight dumps share one shape). Beyond shape,
/// anomalies are checked referentially against the document they live in:
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
  for (const char* section : {"rows", "notes"})
    if (doc.find_array(section) == nullptr)
      return std::string("missing array \"") + section + "\"";

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
    if (model != "mta" && model != "smp" && model != "sthreads")
      return at + ".model is not \"mta\", \"smp\" or \"sthreads\"";
    if (run.find_string("name") == nullptr) return at + " missing name";
    double reps_n = 1.0;
    if (const JsonValue* reps = run.find("reps")) {
      // Compact form: the object stands for `reps` consecutive identical
      // records (RunReport's run-length encoding).
      if (!reps->is_number() || reps->number < 1.0)
        return at + ".reps is not a number >= 1";
      reps_n = reps->number;
    }
    total_runs += reps_n;
    const double procs = run.number_or("processors", 0.0);
    if (procs < 1.0) return at + ".processors < 1";
    if (run.find_number("utilization") == nullptr)
      return at + " missing utilization";
    if (const JsonValue* cp = run.find("critical_path")) {
      const std::string problem =
          check_critical_path(*cp, at + ".critical_path");
      if (!problem.empty()) return problem;
    }
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
  if (version->number >= 5.0) {
    // Referential pass: an anomaly's pinned point must name one of the
    // machine runs recorded above (sweep point i produced run i), and its
    // worker id must fit the live bus's worker-slot table.
    const std::string problem =
        check_anomalies(doc, total_runs, 256.0, nullptr);
    if (!problem.empty()) return problem;
  }
  return "";
}

/// One aggregated metric of a sweep-report group: {count, sum, min, max,
/// mean, p10, p50, p90} with internally consistent values.
std::string check_sweep_metric(const JsonValue& m, const std::string& at) {
  if (!m.is_object()) return at + " is not an object";
  for (const char* field :
       {"count", "sum", "min", "max", "mean", "p10", "p50", "p90"})
    if (m.find_number(field) == nullptr)
      return at + " missing number \"" + field + "\"";
  const double count = m.number_or("count", 0.0);
  if (count < 1.0) return at + ".count < 1";
  // Quantiles are order statistics of the same stream: monotone and
  // bracketed by min/max.
  const double seq[5] = {m.number_or("min", 0.0), m.number_or("p10", 0.0),
                         m.number_or("p50", 0.0), m.number_or("p90", 0.0),
                         m.number_or("max", 0.0)};
  const char* names[5] = {"min", "p10", "p50", "p90", "max"};
  for (int i = 0; i + 1 < 5; ++i)
    if (seq[i] > seq[i + 1] + 1e-12)
      return at + ": " + names[i] + " > " + names[i + 1];
  const double mean = m.number_or("mean", 0.0);
  const double tol = 1e-9 + 1e-9 * std::fabs(m.number_or("sum", 0.0));
  if (std::fabs(mean * count - m.number_or("sum", 0.0)) > tol)
    return at + ": mean x count != sum";
  if (mean < seq[0] - 1e-12 || mean > seq[4] + 1e-12)
    return at + ": mean outside [min, max]";
  return "";
}

/// Returns an empty string when `doc` passes the SweepReport
/// (schema_version 4, kind "sweep_report") checks, else the first problem.
std::string check_sweep_report_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  if (version->number < 4.0) return "sweep_report needs schema_version >= 4";
  const JsonValue* runs = doc.find_number("runs");
  if (runs == nullptr || runs->number < 0.0)
    return "missing or negative \"runs\"";
  if (doc.number_or("outlier_k", 0.0) <= 0.0) return "outlier_k <= 0";
  const JsonValue* groups = doc.find_array("groups");
  if (groups == nullptr) return "missing array \"groups\"";
  double total_count = 0.0;
  for (std::size_t i = 0; i < groups->array.size(); ++i) {
    const JsonValue& g = groups->array[i];
    const std::string at = "groups[" + std::to_string(i) + "]";
    if (!g.is_object()) return at + " is not an object";
    const std::string model = g.string_or("model", "");
    if (model != "mta" && model != "smp" && model != "sthreads")
      return at + ".model is not \"mta\", \"smp\" or \"sthreads\"";
    if (g.find_string("name") == nullptr) return at + " missing name";
    if (g.find_string("scenario") == nullptr) return at + " missing scenario";
    if (g.number_or("processors", 0.0) < 1.0) return at + ".processors < 1";
    const double count = g.number_or("count", 0.0);
    if (count < 1.0) return at + ".count < 1";
    total_count += count;
    const std::string unit = g.string_or("wall_unit", "");
    if (unit != "cycles" && unit != "seconds")
      return at + ".wall_unit is neither \"cycles\" nor \"seconds\"";
    const JsonValue* metrics = g.find_object("metrics");
    if (metrics == nullptr) return at + " missing metrics object";
    for (const char* name : {"wall", "utilization", "threads"}) {
      const JsonValue* m = metrics->find(name);
      if (m == nullptr) return at + ".metrics missing \"" + name + "\"";
      const std::string problem =
          check_sweep_metric(*m, at + ".metrics." + name);
      if (!problem.empty()) return problem;
    }
    if (model == "mta") {
      double share_sum = 0.0;
      for (const char* cat :
           {"used", "no_stream", "spacing", "spawn", "memory", "sync"}) {
        const std::string name = std::string("slot_share.") + cat;
        const JsonValue* m = metrics->find(name);
        if (m == nullptr) return at + ".metrics missing \"" + name + "\"";
        const std::string problem =
            check_sweep_metric(*m, at + ".metrics." + name);
        if (!problem.empty()) return problem;
        share_sum += m->number_or("mean", 0.0);
      }
      // Shares are slots.<cat>/slots.total() per run, so the six means of
      // any group must sum to 1 (up to fp accumulation).
      if (std::fabs(share_sum - 1.0) > 1e-6)
        return at + ".metrics slot_share means sum to " +
               std::to_string(share_sum) + ", expected 1";
    }
    const JsonValue* outliers = g.find_array("outlier_runs");
    if (outliers == nullptr) return at + " missing outlier_runs array";
    for (const JsonValue& o : outliers->array)
      if (!o.is_number() || o.number < 0.0 || o.number >= runs->number)
        return at + ".outlier_runs has an out-of-range run index";
  }
  if (total_count != runs->number)
    return "group counts sum to " + std::to_string(total_count) +
           ", expected runs = " + std::to_string(runs->number);
  const JsonValue* host = doc.find_object("host");
  if (host == nullptr) return "missing object \"host\"";
  for (const char* field :
       {"wall_seconds", "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
        "minor_faults", "major_faults", "testbed_cache_hits",
        "testbed_cache_misses"}) {
    const JsonValue* v = host->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.") + field + " missing or negative";
  }
  const JsonValue* sched = host->find_object("sched");
  if (sched == nullptr) return "missing object \"host.sched\"";
  for (const char* field : {"sweeps", "points", "jobs", "queue_wait_seconds",
                            "execute_seconds"}) {
    const JsonValue* v = sched->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.sched.") + field + " missing or negative";
  }
  if (version->number >= 5.0) {
    // Referential pass: host.sched counts every point the sweep executed
    // and the worker pool it used, so an anomaly cannot pin a point or
    // worker beyond them. Zero counts mean no sweep ran — leave unbounded
    // rather than reject every anomaly.
    const double points = sched->number_or("points", 0.0);
    const double jobs = sched->number_or("jobs", 0.0);
    const std::string problem = check_anomalies(
        doc, points > 0.0 ? points : -1.0, jobs > 0.0 ? jobs : -1.0, nullptr);
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
  for (const char* field :
       {"wall_seconds", "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
        "minor_faults", "major_faults"}) {
    const JsonValue* v = host->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.") + field + " missing or negative";
  }
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

/// Returns an empty string when `doc` passes the flight-recorder dump
/// (--flight-out / SIGUSR1 / crash handler, kind "flight_dump") checks,
/// else the first problem.
std::string check_flight_dump_schema(const JsonValue& doc) {
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  if (version->number < 1.0) return "flight_dump needs schema_version >= 1";
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const std::string reason = doc.string_or("reason", "");
  if (reason.empty()) return "missing or empty string \"reason\"";
  if (doc.number_or("at_seconds", -1.0) < 0.0)
    return "at_seconds missing or negative";
  const double capacity = doc.number_or("ring_capacity", 0.0);
  if (capacity < 1.0) return "ring_capacity missing or < 1";

  const JsonValue* trigger = doc.find_object("trigger");
  if (trigger == nullptr) return "missing object \"trigger\"";
  // Signal dumps qualify the top-level reason ("signal:SIGABRT") while
  // trigger.reason keeps the bare category ("signal").
  const std::string trigger_reason = trigger->string_or("reason", "");
  if (trigger_reason != reason &&
      reason.compare(0, trigger_reason.size() + 1, trigger_reason + ":") != 0)
    return "trigger.reason does not match top-level reason";
  if (const JsonValue* sig = trigger->find("signal")) {
    if (!sig->is_number() || sig->number < 1.0)
      return "trigger.signal is not a number >= 1";
    if (trigger->find_string("name") == nullptr)
      return "trigger has signal but no name";
    const JsonValue* bt = trigger->find_array("backtrace");
    if (bt == nullptr) return "trigger has signal but no backtrace array";
    for (const JsonValue& frame : bt->array)
      if (!frame.is_string()) return "trigger.backtrace entry is not a string";
  }
  if (const JsonValue* anomaly = trigger->find("anomaly")) {
    if (!anomaly->is_object()) return "trigger.anomaly is not an object";
    const std::string kind = anomaly->string_or("kind", "");
    if (kind != "slow_point" && kind != "stalled_worker")
      return "trigger.anomaly.kind is not a watchdog anomaly kind";
  }

  const JsonValue* labels = doc.find_array("labels");
  if (labels == nullptr) return "missing array \"labels\"";
  for (std::size_t i = 0; i < labels->array.size(); ++i)
    if (!labels->array[i].is_string())
      return "labels[" + std::to_string(i) + "] is not a string";

  const JsonValue* counters = doc.find_object("counters");
  if (counters == nullptr) return "missing object \"counters\"";
  for (const char* field :
       {"events", "points_begun", "points_done", "cache_hits",
        "cache_misses"}) {
    const JsonValue* v = counters->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("counters.") + field + " missing or negative";
  }
  if (counters->number_or("points_done", 0.0) >
      counters->number_or("points_begun", 0.0))
    return "counters.points_done exceeds counters.points_begun";

  {
    const std::string problem = check_anomalies(doc, -1.0, -1.0, nullptr);
    if (!problem.empty()) return problem;
  }

  const JsonValue* rings = doc.find_array("rings");
  if (rings == nullptr) return "missing array \"rings\"";
  for (std::size_t i = 0; i < rings->array.size(); ++i) {
    const JsonValue& ring = rings->array[i];
    const std::string at = "rings[" + std::to_string(i) + "]";
    if (!ring.is_object()) return at + " is not an object";
    if (ring.number_or("ring", -1.0) < 0.0)
      return at + ".ring missing or negative";
    if (ring.number_or("owner", 0.0) < 1.0) return at + ".owner missing or < 1";
    const double total = ring.number_or("events_total", -1.0);
    const double dropped = ring.number_or("dropped", -1.0);
    if (total < 0.0) return at + ".events_total missing or negative";
    if (dropped < 0.0) return at + ".dropped missing or negative";
    const JsonValue* events = ring.find_array("events");
    if (events == nullptr) return at + " missing events array";
    const auto count = static_cast<double>(events->array.size());
    if (count > capacity)
      return at + " holds more events than ring_capacity";
    // The ring keeps the newest `capacity` events; everything older was
    // overwritten in place and is accounted as dropped.
    if (total != count + dropped)
      return at + ".events_total != events kept + dropped";
    for (std::size_t j = 0; j < events->array.size(); ++j) {
      const JsonValue& e = events->array[j];
      const std::string eat = at + ".events[" + std::to_string(j) + "]";
      if (!e.is_object()) return eat + " is not an object";
      if (e.number_or("t_ns", -1.0) < 0.0)
        return eat + ".t_ns missing or negative";
      static const char* const kKinds[] = {
          "thread_attach", "phase",      "sweep_begin", "sweep_end",
          "point_begin",   "point_end",  "cache_hit",   "cache_miss",
          "worker_idle",   "counter_tick", "anomaly",   "mark"};
      const std::string kind = e.string_or("kind", "");
      bool known = false;
      for (const char* k : kKinds) known = known || kind == k;
      // A slot torn by a concurrent writer can surface as "unknown";
      // dumps must record it rather than invent a kind.
      if (!known && kind != "unknown")
        return eat + ".kind \"" + kind + "\" is not a flight event kind";
      for (const char* field : {"a", "b"})
        if (e.find_number(field) == nullptr)
          return eat + " missing number \"" + field + "\"";
    }
  }
  // No ring-vs-counters.events cross-check: a watchdog or signal dump
  // snapshots rings while other workers are still emitting, so the two
  // tallies legitimately diverge by however many events landed between
  // the reads.
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
    } else if (doc->is_object() &&
               doc->string_or("kind", "") == "flight_dump") {
      // Must run before the generic schema_version branch: flight dumps
      // also carry "schema_version" but are not RunReports.
      const std::string problem = check_flight_dump_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: flight dump schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, flight dump schema ok)\n", argv[i],
                  text.size());
    } else if (doc->is_object() && doc->string_or("kind", "") == "sweep_report") {
      const std::string problem = check_sweep_report_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: sweep report schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, sweep report schema ok)\n", argv[i],
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
