// Per-binary observability session: owns the trace sink and run report and
// wires them to the standard flag set every instrumented binary exposes:
//
//   --trace-out <path>    write Chrome trace JSON
//   --report-out <path>   write the RunReport JSON
//   --timeline-out <path> write sampled per-run utilization timelines as CSV
//   --sample-period <n>   simulated cycles per timeline sample (default
//                         4096); with --timeline-out it is also the grid
//                         of the MTA trace counters, which a trace alone
//                         samples at the default
//   --counters            dump the counter registry to stdout at exit
//                         (bare flag; `--counters true` also accepted)
//   --progress            stderr ticker for sim::run_sweep (runs done /
//                         total + throughput + ETA from the live bus;
//                         auto-off when stderr is not a TTY)
//   --sweep-trace-out <path>   write a Chrome trace of the sweep scheduler
//                         itself (one lane per --jobs worker, queue-wait
//                         vs execute spans per point); unlike --trace-out
//                         this is host-time telemetry and composes with
//                         any --jobs value
//   --jobs <n>            host threads for independent simulation points
//                         (0 = hardware concurrency). Tracing requires a
//                         single deterministic event stream, so --trace-out
//                         forces jobs to 1 (an explicit --jobs > 1 with
//                         --trace-out is an error).
//
// Construction installs the global trace sink (when --trace-out is given)
// and the process-wide RunRecordStore / TimelineStore the machine models
// feed. Whenever --progress or --sweep-trace-out is given it also installs
// one obs::LiveBus, the single host-side record of every sim::run_sweep
// point: the ticker and the sweep trace read it, and the RunReport gains a
// "host" section (the session's host-resource delta plus the bus's
// scheduler totals). The session starts no thread of its own.
// Destruction (or finish()) writes all requested outputs. Exactly one
// session may be active at a time; RunSession::active() lets shared helper
// code (e.g. the bench harness row formatter) feed the report without
// threading a pointer through every call site.
#pragma once

#include <memory>
#include <string>

#include "core/cli.hpp"
#include "obs/hostres.hpp"
#include "obs/live.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"

namespace tc3i::obs {

/// --progress flag state, read by sim::run_sweep's stderr ticker (lives
/// here so the sweep runner can see the session flag without an obs -> sim
/// dependency). Off by default; RunSession sets it for its lifetime.
[[nodiscard]] bool sweep_progress_requested();
void set_sweep_progress_requested(bool requested);

class RunSession {
 public:
  /// Registers --trace-out / --report-out / --counters on `cli`.
  static void add_cli_flags(CliParser& cli);

  /// Reads the flags registered by add_cli_flags from a parsed `cli`.
  RunSession(std::string name, const CliParser& cli);

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;
  ~RunSession();

  /// The active session, or null. Set for the session's whole lifetime.
  [[nodiscard]] static RunSession* active();

  [[nodiscard]] RunReport& report() { return report_; }
  /// Non-null iff --trace-out was given.
  [[nodiscard]] TraceSink* sink() { return sink_.get(); }
  /// Non-null iff --timeline-out was given.
  [[nodiscard]] TimelineStore* timeline() { return timeline_.get(); }

  /// Resolved host worker-thread count for sim::run_sweep: the --jobs flag
  /// with 0 replaced by std::thread::hardware_concurrency() and tracing
  /// runs pinned to 1. Always >= 1.
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Writes trace/report/counter outputs now (idempotent; the destructor
  /// calls it). Prints one line per file written.
  void finish();

 private:
  std::string name_;
  std::string trace_path_;
  std::string report_path_;
  std::string timeline_path_;
  std::string sweep_trace_path_;
  int jobs_ = 1;
  bool dump_counters_ = false;
  bool finished_ = false;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<RunRecordStore> records_;
  std::unique_ptr<TimelineStore> timeline_;
  std::unique_ptr<LiveBus> live_;
  HostResUsage host_begin_;
  RunReport report_;
};

}  // namespace tc3i::obs
