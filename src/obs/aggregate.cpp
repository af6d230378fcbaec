#include "obs/aggregate.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"

namespace tc3i::obs {

// --- MetricAggregate ---------------------------------------------------------

void MetricAggregate::add(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  values.push_back(value);
}

double MetricAggregate::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Every value has rank weight 1, so the first rank reaching q x n is
  // ceil(q x n), at least 1.
  const double rank =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// --- SweepAggregator ---------------------------------------------------------

const char* slot_share_name(std::size_t i) {
  static const char* kNames[6] = {"used",  "no_stream", "spacing",
                                  "spawn", "memory",    "sync"};
  TC3I_EXPECTS(i < 6);
  return kNames[i];
}

SweepGroup& SweepAggregator::group_for(const SweepGroupKey& key) {
  for (SweepGroup& g : groups_)
    if (g.key == key) return g;
  groups_.emplace_back();
  groups_.back().key = key;
  return groups_.back();
}

void SweepAggregator::add(const RunRecord& record) {
  const std::uint64_t run_index = runs_++;
  SweepGroup& g = group_for(SweepGroupKey{
      record.model, record.name, record.scenario, record.processors});
  const bool mta = record.model == "mta";
  g.wall_unit = mta ? "cycles" : "seconds";
  const double wall = mta ? static_cast<double>(record.cycles)
                          : record.elapsed_seconds;
  g.wall.add(wall);
  g.wall_runs.push_back(run_index);
  g.utilization.add(record.utilization);
  g.threads.add(static_cast<double>(record.threads));
  if (mta) {
    const double total = static_cast<double>(record.slots.total());
    const double values[6] = {
        static_cast<double>(record.slots.used),
        static_cast<double>(record.slots.no_stream),
        static_cast<double>(record.slots.spacing),
        static_cast<double>(record.slots.spawn),
        static_cast<double>(record.slots.memory),
        static_cast<double>(record.slots.sync)};
    for (std::size_t i = 0; i < 6; ++i)
      g.slot_share[i].add(total > 0.0 ? values[i] / total : 0.0);
  }
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    // Lower half's max completes the even-size average.
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (lo + m);
  }
  return m;
}

}  // namespace

std::vector<std::uint64_t> SweepAggregator::outlier_runs(
    const SweepGroup& group) const {
  std::vector<std::uint64_t> out;
  const std::vector<double>& walls = group.wall.values;
  if (walls.size() < 3) return out;  // no robust center yet
  const double med = median_of(walls);
  std::vector<double> dev;
  dev.reserve(walls.size());
  for (const double w : walls) dev.push_back(std::fabs(w - med));
  const double mad = median_of(dev);
  // A zero MAD (more than half the group identical, the common case for a
  // deterministic simulator) would flag any deviation at all; keep a tiny
  // relative floor so only genuine departures trip.
  const double threshold = kOutlierK * std::max(mad, 1e-12 * std::fabs(med));
  for (std::size_t i = 0; i < walls.size(); ++i)
    if (std::fabs(walls[i] - med) > threshold)
      out.push_back(group.wall_runs[i]);
  return out;
}

namespace {

void write_metric(JsonWriter& w, const char* name, const MetricAggregate& m) {
  w.key(name);
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(m.count));
  w.field("sum", m.sum);
  w.field("min", m.min);
  w.field("max", m.max);
  w.field("mean", m.mean());
  w.field("p10", m.quantile(0.10));
  w.field("p50", m.quantile(0.50));
  w.field("p90", m.quantile(0.90));
  w.end_object();
}

}  // namespace

void SweepAggregator::write_groups_json(JsonWriter& w) const {
  w.field("runs", runs_);
  w.field("outlier_k", kOutlierK);
  w.key("groups");
  w.begin_array();
  for (const SweepGroup& g : groups_) {
    w.begin_object();
    w.field("model", g.key.model);
    w.field("name", g.key.name);
    w.field("scenario", g.key.scenario);
    w.field("processors", g.key.processors);
    w.field("count", static_cast<std::uint64_t>(g.wall.count));
    w.field("wall_unit", g.wall_unit);
    w.key("metrics");
    w.begin_object();
    write_metric(w, "wall", g.wall);
    write_metric(w, "utilization", g.utilization);
    write_metric(w, "threads", g.threads);
    if (g.key.model == "mta")
      for (std::size_t i = 0; i < 6; ++i)
        write_metric(w, (std::string("slot_share.") + slot_share_name(i)).c_str(),
                     g.slot_share[i]);
    w.end_object();
    w.key("outlier_runs");
    w.begin_array();
    for (const std::uint64_t run : outlier_runs(g)) w.value(run);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void SweepAggregator::write_report_json(
    std::ostream& out, const std::string& bench, const SweepHostSection& host,
    const std::vector<LiveAnomaly>& anomalies) const {
  JsonWriter w(out);
  w.begin_object();
  w.field("bench", bench);
  w.field("schema_version", std::uint64_t{5});
  w.field("kind", "sweep_report");
  write_groups_json(w);
  w.key("host");
  w.begin_object();
  w.field("wall_seconds", host.wall_seconds);
  w.field("user_cpu_seconds", host.user_cpu_seconds);
  w.field("sys_cpu_seconds", host.sys_cpu_seconds);
  w.field("max_rss_kb", host.max_rss_kb);
  w.field("minor_faults", host.minor_faults);
  w.field("major_faults", host.major_faults);
  w.field("testbed_cache_hits", host.testbed_cache_hits);
  w.field("testbed_cache_misses", host.testbed_cache_misses);
  w.key("sched");
  w.begin_object();
  w.field("sweeps", host.sweeps);
  w.field("points", host.points);
  w.field("jobs", host.jobs);
  w.field("queue_wait_seconds", host.queue_wait_seconds);
  w.field("execute_seconds", host.execute_seconds);
  w.end_object();
  w.end_object();
  w.key("anomalies");
  write_anomalies_json(w, anomalies);
  w.end_object();
  out << '\n';
}

SweepAggregator aggregate_records(const std::vector<RunRecord>& records) {
  SweepAggregator agg;
  for (const RunRecord& r : records) agg.add(r);
  return agg;
}

}  // namespace tc3i::obs
