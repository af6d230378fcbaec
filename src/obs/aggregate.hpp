// Cross-run aggregation for simulation sweeps.
//
// A sweep produces hundreds of RunRecords — (config x scenario) points,
// each replicated — and per-run reporting stops being readable at that
// scale. This module folds RunRecords into a SweepReport: per-group
// (model, platform name, scenario, processors) rollups of wall time,
// utilization, thread counts and the six issue-slot stall shares, each
// summarized by exact count/sum/min/max/mean and p10/p50/p90, with
// robust outlier flagging (runs beyond k x MAD from their group median
// wall time). Aggregation is deterministic: groups appear in
// first-seen submission order and every statistic is a pure fold over the
// records in submission order, so a sweep aggregated after sim::run_sweep's
// submission-order merge serializes byte-identically at any --jobs.
//
// The JSON schema ("sweep_report", schema_version 5; v4 lacked the
// "anomalies" watchdog section) is documented in docs/OBSERVABILITY.md and
// validated by tools/json_check; `obs_report sweep` renders it and
// recomputes it from a RunReport, and `obs_report diff` diffs it
// group-wise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/run_record.hpp"

namespace tc3i::obs {

class JsonWriter;
struct LiveAnomaly;

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
};

/// Group identity for rollups. `threads` (peak live streams on the MTA) is
/// a per-run *measurement*, not a knob, so it is aggregated as a metric
/// rather than splitting groups; the config-side knobs are the key.
struct SweepGroupKey {
  std::string model;     ///< "mta", "smp", or "sthreads"
  std::string name;      ///< platform / machine config name
  std::string scenario;  ///< ScopedScenarioLabel at record time ("" = none)
  int processors = 1;

  bool operator==(const SweepGroupKey&) const = default;
};

/// Aggregates of one group, metrics in a fixed serialization order.
struct SweepGroup {
  SweepGroupKey key;
  std::string wall_unit;  ///< "cycles" (mta) or "seconds" (smp/sthreads)
  MetricAggregate wall;
  MetricAggregate utilization;
  MetricAggregate threads;
  /// MTA only: per-run share of each issue-slot category
  /// (slots.<cat> / slots.total()); the six means sum to 1.
  MetricAggregate slot_share[6];
  /// Submission-order run index of each value in `wall.values`, for MAD
  /// outlier flagging at build time.
  std::vector<std::uint64_t> wall_runs;
};

/// Names of the six slot-share metrics, in SweepGroup::slot_share order.
[[nodiscard]] const char* slot_share_name(std::size_t i);

/// Host-side accounting attached to a SweepReport (all optional; zeroed
/// fields are emitted as zeros). Wall/cpu seconds and max RSS come from
/// obs::sample_host_usage() deltas; cache hits/misses from the
/// testbed.cache.* counters; the sched section from the spans recorded by
/// obs::LiveBus (LiveBus::summary()).
struct SweepHostSection {
  double wall_seconds = 0.0;
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t testbed_cache_hits = 0;
  std::uint64_t testbed_cache_misses = 0;
  // Sweep-scheduler totals (sim::run_sweep spans).
  std::uint64_t sweeps = 0;
  std::uint64_t points = 0;
  int jobs = 0;
  double queue_wait_seconds = 0.0;
  double execute_seconds = 0.0;
};

/// Folds RunRecords into per-group aggregates. add() order is the record
/// submission order. The byte-identical-at-any---jobs guarantee comes from
/// RunSession aggregating the submission-order-merged records serially.
class SweepAggregator {
 public:
  /// Outlier threshold k, in MADs (the report's "outlier_k").
  static constexpr double kOutlierK = 5.0;

  void add(const RunRecord& record);

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] const std::vector<SweepGroup>& groups() const {
    return groups_;
  }

  /// Run indices flagged as outliers in `group`: |wall - median| >
  /// k x max(MAD, 1e-12 x |median|), computed over the group's runs.
  [[nodiscard]] std::vector<std::uint64_t> outlier_runs(
      const SweepGroup& group) const;

  /// Serializes only the deterministic aggregate sections (bench/runs/
  /// groups) — the part that is byte-identical at any --jobs.
  void write_groups_json(JsonWriter& w) const;

  /// Full SweepReport (schema_version 5, kind "sweep_report"): aggregate
  /// sections plus the host/sched accounting and the watchdog `anomalies`
  /// (empty for runs without a live bus). Ends with a newline.
  void write_report_json(std::ostream& out, const std::string& bench,
                         const SweepHostSection& host,
                         const std::vector<LiveAnomaly>& anomalies = {}) const;

 private:
  SweepGroup& group_for(const SweepGroupKey& key);

  std::uint64_t runs_ = 0;
  std::vector<SweepGroup> groups_;
};

/// Convenience: aggregate a whole record vector in order (e.g. the
/// machine_runs of a parsed RunReport, for independent recomputation).
[[nodiscard]] SweepAggregator aggregate_records(
    const std::vector<RunRecord>& records);

}  // namespace tc3i::obs
