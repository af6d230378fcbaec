// Cross-run aggregation for simulation sweeps.
//
// A sweep produces hundreds of RunRecords — (config x scenario) points,
// each replicated — and per-run reporting stops being readable at that
// scale. This module folds RunRecords into per-group (model, platform
// name, scenario, processors) rollups of wall time and utilization, each
// summarized by exact count/sum/min/max/mean and quantiles. Aggregation
// is deterministic: groups appear in first-seen submission order and
// every statistic is a pure fold over the records in submission order, so
// a sweep aggregated after sim::run_sweep's submission-order merge gives
// equal groups at any --jobs.
//
// `obs_report sweep` aggregates a RunReport's machine_runs with it and
// renders the group table (docs/OBSERVABILITY.md, "Sweep telemetry").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/run_record.hpp"

namespace tc3i::obs {

/// One aggregated metric: exact moments plus every value, for quantiles.
struct MetricAggregate {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> values;  ///< in add() order

  void add(double value);
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Lower quantile: the smallest value whose rank reaches q x count (q
  /// clamped to [0, 1]), so quantile(q) = sorted[ceil(q*n) - 1] for q in
  /// (0, 1]. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  bool operator==(const MetricAggregate&) const = default;
};

/// Group identity for rollups: the config-side knobs of a run.
struct SweepGroupKey {
  std::string model;     ///< "mta" or "smp"
  std::string name;      ///< platform / machine config name
  std::string scenario;  ///< ScopedScenarioLabel at record time ("" = none)
  int processors = 1;

  bool operator==(const SweepGroupKey&) const = default;
};

/// Aggregates of one group. `wall` is cycles for MTA runs and seconds for
/// SMP runs.
struct SweepGroup {
  SweepGroupKey key;
  MetricAggregate wall;
  MetricAggregate utilization;

  bool operator==(const SweepGroup&) const = default;
};

/// Folds RunRecords into per-group aggregates. add() order is the record
/// submission order.
class SweepAggregator {
 public:
  void add(const RunRecord& record);

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] const std::vector<SweepGroup>& groups() const {
    return groups_;
  }

 private:
  SweepGroup& group_for(const SweepGroupKey& key);

  std::uint64_t runs_ = 0;
  std::vector<SweepGroup> groups_;
};

/// Convenience: aggregate a whole record vector in order (e.g. the
/// machine_runs of a parsed RunReport).
[[nodiscard]] SweepAggregator aggregate_records(
    const std::vector<RunRecord>& records);

}  // namespace tc3i::obs
