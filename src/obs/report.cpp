#include "obs/report.hpp"

#include <cstdio>

#include "core/contracts.hpp"
#include "obs/json.hpp"
#include "obs/write_file.hpp"

namespace tc3i::obs {

namespace {

std::uint64_t u64_or(const JsonValue& v, std::string_view key) {
  const double d = v.number_or(key, 0.0);
  return d > 0.0 ? static_cast<std::uint64_t>(d) : 0;
}

CritPathSummary critical_path_from_json(const JsonValue& jcp) {
  CritPathSummary cp;
  cp.present = true;
  cp.unit = jcp.string_or("unit", "");
  cp.total = jcp.number_or("total", 0.0);
  cp.path_length = jcp.number_or("path_length", 0.0);
  cp.resource_bound = jcp.number_or("resource_bound", 0.0);
  cp.binding_resource = jcp.string_or("binding_resource", "");
  cp.coverage = jcp.number_or("coverage", 0.0);
  cp.nodes = u64_or(jcp, "nodes");
  cp.edges = u64_or(jcp, "edges");
  if (const JsonValue* attr = jcp.find_object("attribution")) {
    cp.compute = attr->number_or("compute", 0.0);
    cp.memory = attr->number_or("memory", 0.0);
    cp.sync = attr->number_or("sync", 0.0);
    cp.spawn = attr->number_or("spawn", 0.0);
    cp.queue = attr->number_or("queue", 0.0);
    cp.gap = attr->number_or("gap", 0.0);
  }
  if (const JsonValue* resources = jcp.find_array("resources")) {
    for (const JsonValue& jr : resources->array) {
      if (!jr.is_object()) continue;
      cp.resources.push_back(CritPathResource{jr.string_or("name", ""),
                                              jr.number_or("bound", 0.0)});
    }
  }
  if (const JsonValue* regions = jcp.find_array("regions")) {
    for (const JsonValue& jr : regions->array) {
      if (!jr.is_object()) continue;
      cp.regions.push_back(CritPathRegion{jr.string_or("name", ""),
                                          jr.number_or("weight", 0.0)});
    }
  }
  if (const JsonValue* projections = jcp.find_array("projections")) {
    for (const JsonValue& jp : projections->array) {
      if (!jp.is_object()) continue;
      KnobProjection kp;
      kp.knob = jp.string_or("knob", "");
      kp.factor = jp.number_or("factor", 1.0);
      kp.predicted = jp.number_or("predicted", 0.0);
      cp.projections.push_back(std::move(kp));
    }
  }
  return cp;
}

void write_critical_path(JsonWriter& w, const CritPathSummary& cp) {
  w.key("critical_path");
  w.begin_object();
  w.field("unit", cp.unit);
  w.field("total", cp.total);
  w.field("path_length", cp.path_length);
  w.field("resource_bound", cp.resource_bound);
  w.field("binding_resource", cp.binding_resource);
  w.field("coverage", cp.coverage);
  w.field("nodes", cp.nodes);
  w.field("edges", cp.edges);
  w.key("attribution");
  w.begin_object();
  w.field("compute", cp.compute);
  w.field("memory", cp.memory);
  w.field("sync", cp.sync);
  w.field("spawn", cp.spawn);
  w.field("queue", cp.queue);
  w.field("gap", cp.gap);
  w.end_object();
  w.key("resources");
  w.begin_array();
  for (const CritPathResource& r : cp.resources) {
    w.begin_object();
    w.field("name", r.name);
    w.field("bound", r.bound);
    w.end_object();
  }
  w.end_array();
  w.key("regions");
  w.begin_array();
  for (const CritPathRegion& r : cp.regions) {
    w.begin_object();
    w.field("name", r.name);
    w.field("weight", r.weight);
    w.end_object();
  }
  w.end_array();
  w.key("projections");
  w.begin_array();
  for (const KnobProjection& p : cp.projections) {
    w.begin_object();
    w.field("knob", p.knob);
    w.field("factor", p.factor);
    w.field("predicted", p.predicted);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::vector<RunRecord> machine_runs_from_json(const JsonValue& report) {
  std::vector<RunRecord> out;
  const JsonValue* runs = report.find_array("machine_runs");
  if (runs == nullptr) return out;
  for (const JsonValue& jr : runs->array) {
    if (!jr.is_object()) continue;
    RunRecord r;
    r.model = jr.string_or("model", "");
    r.name = jr.string_or("name", "");
    r.scenario = jr.string_or("scenario", "");
    r.processors = static_cast<int>(jr.number_or("processors", 1.0));
    r.threads = u64_or(jr, "threads");
    r.utilization = jr.number_or("utilization", 0.0);
    r.cycles = u64_or(jr, "cycles");
    r.memory_ops = u64_or(jr, "memory_ops");
    r.network_utilization = jr.number_or("network_utilization", 0.0);
    if (const JsonValue* slots = jr.find_object("slots")) {
      r.slots.used = u64_or(*slots, "used");
      r.slots.no_stream = u64_or(*slots, "no_stream");
      r.slots.spacing = u64_or(*slots, "spacing");
      r.slots.spawn = u64_or(*slots, "spawn");
      r.slots.memory = u64_or(*slots, "memory");
      r.slots.sync = u64_or(*slots, "sync");
    }
    if (const JsonValue* regions = jr.find_array("regions")) {
      for (const JsonValue& jreg : regions->array) {
        if (!jreg.is_object()) continue;
        RegionRollup reg;
        reg.name = jreg.string_or("name", "");
        reg.streams = u64_or(jreg, "streams");
        reg.instructions = u64_or(jreg, "instructions");
        reg.stream_cycles = u64_or(jreg, "stream_cycles");
        r.regions.push_back(std::move(reg));
      }
    }
    r.elapsed_seconds = jr.number_or("elapsed_seconds", 0.0);
    r.bus_utilization = jr.number_or("bus_utilization", 0.0);
    r.lock_wait_share = jr.number_or("lock_wait_share", 0.0);
    if (const JsonValue* jcp = jr.find_object("critical_path"))
      r.critical_path = critical_path_from_json(*jcp);
    // Compact form: one record object stands for `reps` consecutive
    // identical records (the writer run-length encodes repeats). Absent or
    // 1 means a single record; clamp so a corrupt file cannot OOM us.
    std::uint64_t reps = u64_or(jr, "reps");
    if (reps == 0) reps = 1;
    TC3I_EXPECTS(reps <= 1000000);
    for (std::uint64_t i = 1; i < reps; ++i) out.push_back(r);
    out.push_back(std::move(r));
  }
  return out;
}

RunReport::RunReport(std::string bench_name) : bench_(std::move(bench_name)) {
  TC3I_EXPECTS(!bench_.empty());
}

void RunReport::set_config(const std::string& key, const std::string& value) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  config_.emplace_back(key, value);
}

void RunReport::set_config(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  set_config(key, std::string(buf));
}

void RunReport::add_row(const std::string& label, double paper_seconds,
                        double measured_seconds) {
  rows_.push_back(Row{label, paper_seconds, measured_seconds});
}

void RunReport::add_note(std::string note) { notes_.push_back(std::move(note)); }

void RunReport::set_machine_runs(std::vector<RunRecord> runs) {
  machine_runs_ = std::move(runs);
}

void RunReport::set_anomalies(std::vector<LiveAnomaly> anomalies) {
  anomalies_ = std::move(anomalies);
}

void RunReport::write_json(std::ostream& out,
                           const CounterRegistry& registry) const {
  const std::vector<MetricSnapshot> metrics = registry.snapshot();

  JsonWriter w(out);
  w.begin_object();
  w.field("bench", bench_);
  w.field("schema_version", std::uint64_t{5});

  w.key("config");
  w.begin_object();
  for (const auto& [k, v] : config_) w.field(k, std::string_view(v));
  w.end_object();

  w.key("rows");
  w.begin_array();
  for (const Row& r : rows_) {
    w.begin_object();
    w.field("label", r.label);
    w.field("paper", r.paper_seconds);
    w.field("measured", r.measured_seconds);
    w.field("ratio",
            r.paper_seconds > 0.0 ? r.measured_seconds / r.paper_seconds : 0.0);
    w.end_object();
  }
  w.end_array();

  w.key("counters");
  w.begin_object();
  for (const MetricSnapshot& m : metrics)
    if (m.kind == MetricSnapshot::Kind::Counter) w.field(m.name, m.count);
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const MetricSnapshot& m : metrics)
    if (m.kind == MetricSnapshot::Kind::Gauge) w.field(m.name, m.value);
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const MetricSnapshot& m : metrics) {
    if (m.kind != MetricSnapshot::Kind::Histogram) continue;
    w.key(m.name);
    w.begin_object();
    w.field("count", m.count);
    w.field("sum", m.value);
    w.field("p50", m.p50);
    w.field("p90", m.p90);
    w.field("p99", m.p99);
    w.field("max", m.max);
    w.end_object();
  }
  w.end_object();

  w.key("machine_runs");
  w.begin_array();
  for (std::size_t ri = 0; ri < machine_runs_.size();) {
    const RunRecord& r = machine_runs_[ri];
    // Run-length encode repeats: rep loops (bench --reps) produce byte-
    // identical consecutive records, so one object with a "reps" count
    // stands for the whole run. machine_runs_from_json expands it back.
    std::size_t reps = 1;
    while (ri + reps < machine_runs_.size() &&
           machine_runs_[ri + reps] == r)
      ++reps;
    ri += reps;
    w.begin_object();
    w.field("model", r.model);
    w.field("name", r.name);
    if (reps > 1) w.field("reps", static_cast<std::uint64_t>(reps));
    // Emitted only when labeled, so reports from unlabeled runs keep their
    // pre-v4 byte layout.
    if (!r.scenario.empty()) w.field("scenario", r.scenario);
    w.field("processors", r.processors);
    w.field("threads", r.threads);
    w.field("utilization", r.utilization);
    if (r.model == "smp") {
      w.field("elapsed_seconds", r.elapsed_seconds);
      w.field("bus_utilization", r.bus_utilization);
      w.field("lock_wait_share", r.lock_wait_share);
    } else if (r.model == "sthreads") {
      w.field("elapsed_seconds", r.elapsed_seconds);
    } else {
      w.field("cycles", r.cycles);
      w.field("memory_ops", r.memory_ops);
      w.field("network_utilization", r.network_utilization);
      w.key("slots");
      w.begin_object();
      w.field("used", r.slots.used);
      w.field("no_stream", r.slots.no_stream);
      w.field("spacing", r.slots.spacing);
      w.field("spawn", r.slots.spawn);
      w.field("memory", r.slots.memory);
      w.field("sync", r.slots.sync);
      w.end_object();
      w.key("regions");
      w.begin_array();
      for (const RegionRollup& reg : r.regions) {
        w.begin_object();
        w.field("name", reg.name);
        w.field("streams", reg.streams);
        w.field("instructions", reg.instructions);
        w.field("stream_cycles", reg.stream_cycles);
        w.end_object();
      }
      w.end_array();
    }
    if (r.critical_path.present) write_critical_path(w, r.critical_path);
    w.end_object();
  }
  w.end_array();

  w.key("anomalies");
  write_anomalies_json(w, anomalies_);

  w.key("notes");
  w.begin_array();
  for (const std::string& n : notes_) w.value(std::string_view(n));
  w.end_array();

  w.end_object();
  out << '\n';
}

bool RunReport::write_json_file(const std::string& path,
                                const CounterRegistry& registry,
                                std::string* error) const {
  return write_file(
      path, [&](std::ostream& out) { write_json(out, registry); }, error);
}

}  // namespace tc3i::obs
