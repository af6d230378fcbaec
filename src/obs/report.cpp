#include "obs/report.hpp"

#include <cmath>
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

}  // namespace

std::uint64_t machine_run_reps(const JsonValue& run) {
  const JsonValue* reps = run.find("reps");
  if (reps == nullptr) return 1;
  if (!reps->is_number() || reps->number < 1.0 ||
      reps->number > static_cast<double>(kMaxMachineRunReps) ||
      reps->number != std::floor(reps->number))
    return 0;
  return static_cast<std::uint64_t>(reps->number);
}

std::optional<std::vector<RunRecord>> machine_runs_from_json(
    const JsonValue& report, std::string* error) {
  std::vector<RunRecord> out;
  const JsonValue* runs = report.find_array("machine_runs");
  if (runs == nullptr) return out;
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const JsonValue& jr = runs->array[i];
    if (!jr.is_object()) continue;
    // Compact form: one record object stands for `reps` consecutive
    // identical records (the writer run-length encodes repeats).
    const std::uint64_t reps = machine_run_reps(jr);
    if (reps == 0) {
      *error = "machine_runs[" + std::to_string(i) +
               "].reps is not an integer in [1, " +
               std::to_string(kMaxMachineRunReps) + "]";
      return std::nullopt;
    }
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
    for (std::uint64_t rep = 1; rep < reps; ++rep) out.push_back(r);
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

void RunReport::set_machine_runs(std::vector<RunRecord> runs) {
  machine_runs_ = std::move(runs);
}

void RunReport::set_host(const HostResUsage& usage,
                         const LiveBus::Summary& sched) {
  host_ = usage;
  sched_ = sched;
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
    w.end_object();
  }
  w.end_array();

  if (host_) {
    w.key("host");
    w.begin_object();
    w.field("wall_seconds", host_->wall_seconds);
    w.field("user_cpu_seconds", host_->user_cpu_seconds);
    w.field("sys_cpu_seconds", host_->sys_cpu_seconds);
    w.field("max_rss_kb", host_->max_rss_kb);
    w.field("minor_faults", host_->minor_faults);
    w.field("major_faults", host_->major_faults);
    w.key("sched");
    w.begin_object();
    w.field("sweeps", sched_.sweeps);
    w.field("points", sched_.points);
    w.field("jobs", sched_.max_jobs);
    w.field("queue_wait_seconds", sched_.queue_wait_seconds);
    w.field("execute_seconds", sched_.execute_seconds);
    w.end_object();
    w.end_object();
  }

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
