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
  const std::uint64_t run_index = runs_++;
  SweepGroup& g = group_for(SweepGroupKey{
      record.model, record.name, record.scenario, record.processors});
  g.wall.add(record.model == "mta" ? static_cast<double>(record.cycles)
                                    : record.elapsed_seconds);
  g.wall_runs.push_back(run_index);
  g.utilization.add(record.utilization);
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

SweepAggregator aggregate_records(const std::vector<RunRecord>& records) {
  SweepAggregator agg;
  for (const RunRecord& r : records) agg.add(r);
  return agg;
}

}  // namespace tc3i::obs
