#include "obs/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

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

SweepGroup& SweepAggregator::group_for(const SweepGroupKey& key) {
  for (SweepGroup& g : groups_)
    if (g.key == key) return g;
  groups_.emplace_back();
  groups_.back().key = key;
  return groups_.back();
}

void SweepAggregator::add(const RunRecord& record) {
  ++runs_;
  SweepGroup& g = group_for(SweepGroupKey{
      record.model, record.name, record.scenario, record.processors});
  g.wall.add(record.model == "mta" ? static_cast<double>(record.cycles)
                                    : record.elapsed_seconds);
  g.utilization.add(record.utilization);
}

SweepAggregator aggregate_records(const std::vector<RunRecord>& records) {
  SweepAggregator agg;
  for (const RunRecord& r : records) agg.add(r);
  return agg;
}

}  // namespace tc3i::obs
