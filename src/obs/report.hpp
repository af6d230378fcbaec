// Machine-readable run reports.
//
// A RunReport collects everything a bench binary prints as a table —
// paper-vs-measured rows, configuration, free-form notes — plus a snapshot
// of the counter registry, and serializes it as JSON (schema below) so
// result trajectories can be produced and diffed mechanically.
//
// Schema (schema_version 5; version 1 lacked "machine_runs", version 2
// lacked the optional per-run "critical_path" section, versions 3 and
// below lacked the "anomalies" watchdog section — 4 is skipped so
// RunReport and SweepReport share one version number from v5 on):
//   {
//     "bench": "<name>", "schema_version": 5,
//     "config": { "<key>": "<value>", ... },
//     "rows": [ { "label": ..., "paper": s, "measured": s, "ratio": r } ],
//     "counters": { "<name>": u64, ... },
//     "gauges": { "<name>": double, ... },
//     "histograms": { "<name>": {"count","sum","p50","p90","p99","max"} },
//     "machine_runs": [ per-run accounting records, see set_machine_runs() ],
//     "anomalies": [ watchdog findings from the live bus, see
//                    obs::write_anomalies_json(); [] without --status-out ],
//     "notes": [ "...", ... ]
//   }
//
// A "machine_runs" entry for an MTA run looks like (the optional
// "scenario" member appears after "name" when the run was captured under
// an obs::ScopedScenarioLabel)
//   { "model":"mta", "name":..., "processors":p, "threads":peak,
//     "cycles":c, "memory_ops":m, "utilization":u, "network_utilization":n,
//     "slots": {"used","no_stream","spacing","spawn","memory","sync"},
//     "regions": [ {"name","streams","instructions","stream_cycles"} ] }
// and for an SMP run
//   { "model":"smp", "name":..., "processors":p, "threads":t,
//     "elapsed_seconds":e, "utilization":u, "bus_utilization":b,
//     "lock_wait_share":l }
// A run captured under --critpath additionally carries
//   "critical_path": { "unit", "total", "path_length", "resource_bound",
//     "binding_resource", "coverage", "nodes", "edges",
//     "attribution": {"compute","memory","sync","spawn","queue","gap"},
//     "resources": [ {"name","bound"} ], "regions": [ {"name","weight"} ],
//     "projections": [ {"knob","factor","predicted"} ] }
// and "sthreads" runs (wall-clock host captures from the c3ipbs driver)
// carry only model/name/processors/threads/utilization, elapsed_seconds,
// and critical_path.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/live.hpp"
#include "obs/run_record.hpp"

namespace tc3i::obs {

class JsonValue;

/// Rebuilds the RunRecords serialized in a parsed report's "machine_runs"
/// array (the inverse of write_json's emission; absent fields keep their
/// defaults, non-array / absent "machine_runs" yields an empty vector).
/// Used by `obs_report bottleneck`, `whatif` and `sweep --from-runs`.
[[nodiscard]] std::vector<RunRecord> machine_runs_from_json(
    const JsonValue& report);

class RunReport {
 public:
  explicit RunReport(std::string bench_name);

  [[nodiscard]] const std::string& bench_name() const { return bench_; }

  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, double value);

  /// Adds one paper-vs-measured comparison row (seconds; ratio derived).
  void add_row(const std::string& label, double paper_seconds,
               double measured_seconds);

  void add_note(std::string note);

  /// Replaces the per-machine-run accounting records serialized as the
  /// "machine_runs" array (RunSession feeds these from its RunRecordStore
  /// at finish()).
  void set_machine_runs(std::vector<RunRecord> runs);

  /// Replaces the watchdog findings serialized as the "anomalies" array
  /// (RunSession feeds these from its LiveBus at finish(); the array is
  /// always emitted, empty for runs without a live bus).
  void set_anomalies(std::vector<LiveAnomaly> anomalies);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<RunRecord>& machine_runs() const {
    return machine_runs_;
  }

  /// Serializes the report with a snapshot of `registry` taken now.
  void write_json(std::ostream& out, const CounterRegistry& registry) const;

  /// Writes to `path`, creating parent directories. Returns false with
  /// `*error` set on I/O failure.
  [[nodiscard]] bool write_json_file(const std::string& path,
                                     const CounterRegistry& registry,
                                     std::string* error) const;

 private:
  struct Row {
    std::string label;
    double paper_seconds;
    double measured_seconds;
  };

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
  std::vector<RunRecord> machine_runs_;
  std::vector<LiveAnomaly> anomalies_;
};

}  // namespace tc3i::obs
