// Machine-readable run reports.
//
// A RunReport collects everything a bench binary prints as a table —
// paper-vs-measured rows and configuration — plus a snapshot of the
// counter registry, and serializes it as JSON (schema below) so result
// trajectories can be produced and diffed mechanically.
//
// Schema (schema_version 5; version 1 lacked "machine_runs", and 4 was
// the retired sweep report's; older reports could also carry a per-run
// critical-path section (versions 3 and 5), a "notes" array and an
// "anomalies" array (version 5), none of which is written any more and
// which readers ignore):
//   {
//     "bench": "<name>", "schema_version": 5,
//     "config": { "<key>": "<value>", ... },
//     "rows": [ { "label": ..., "paper": s, "measured": s, "ratio": r } ],
//     "counters": { "<name>": u64, ... },
//     "gauges": { "<name>": double, ... },
//     "histograms": { "<name>": {"count","sum","p50","p90","p99","max"} },
//     "machine_runs": [ per-run accounting records, see set_machine_runs() ],
//     "host": { optional, see set_host(): "wall_seconds",
//               "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
//               "minor_faults", "major_faults",
//               "sched": {"sweeps","points","jobs","queue_wait_seconds",
//                         "execute_seconds"} }
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
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/hostres.hpp"
#include "obs/live.hpp"
#include "obs/run_record.hpp"

namespace tc3i::obs {

class JsonValue;

/// Largest "reps" count a machine_runs entry may carry.
inline constexpr std::uint64_t kMaxMachineRunReps = 1000000;

/// How many runs one "machine_runs" entry stands for: 1 without a "reps"
/// member, its value when that is an integer in [1, kMaxMachineRunReps],
/// and 0 for any other "reps" (a corrupt count, which readers reject).
[[nodiscard]] std::uint64_t machine_run_reps(const JsonValue& run);

/// Rebuilds the RunRecords serialized in a parsed report's "machine_runs"
/// array (the inverse of write_json's emission; absent fields keep their
/// defaults, non-array / absent "machine_runs" yields an empty vector).
/// Returns nullopt with *error naming the first entry whose "reps" count
/// is corrupt. Used by `obs_report bottleneck` and `obs_report sweep`.
[[nodiscard]] std::optional<std::vector<RunRecord>> machine_runs_from_json(
    const JsonValue& report, std::string* error);

class RunReport {
 public:
  explicit RunReport(std::string bench_name);

  [[nodiscard]] const std::string& bench_name() const { return bench_; }

  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, double value);

  /// Adds one paper-vs-measured comparison row (seconds; ratio derived).
  void add_row(const std::string& label, double paper_seconds,
               double measured_seconds);

  /// Replaces the per-machine-run accounting records serialized as the
  /// "machine_runs" array (RunSession feeds these from its RunRecordStore
  /// at finish()).
  void set_machine_runs(std::vector<RunRecord> runs);

  /// Adds the "host" section: the session's host-resource delta and the
  /// live bus's scheduler totals. RunSession calls it whenever a live bus
  /// is installed; a report without it has no "host" member at all.
  void set_host(const HostResUsage& usage, const LiveBus::Summary& sched);

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
  std::vector<RunRecord> machine_runs_;
  std::optional<HostResUsage> host_;
  LiveBus::Summary sched_;
};

}  // namespace tc3i::obs
