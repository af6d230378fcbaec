// Shared harness for the table/figure bench binaries: lazily-built
// testbed, paper-vs-measured row formatting, per-binary observability
// session, and simple shape checks.
#pragma once

#include <iostream>
#include <memory>
#include <string>

#include "core/chart.hpp"
#include "core/table.hpp"
#include "obs/session.hpp"
#include "platforms/experiment.hpp"
#include "platforms/paper.hpp"
#include "sim/sweep.hpp"

namespace tc3i::bench {

/// Standard per-binary wrapper: parses the shared observability flags
/// (obs::RunSession::add_cli_flags) and owns the obs::RunSession for the
/// process. Construct it first thing in main(); outputs are
/// written when it goes out of scope. Exits the process on --help or on
/// a flag parse error.
class Session {
 public:
  Session(std::string bench_name, int argc, const char* const* argv);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  [[nodiscard]] obs::RunSession& obs() { return *run_; }
  /// Resolved --jobs value (see obs::RunSession::jobs()).
  [[nodiscard]] int jobs() const { return run_->jobs(); }

 private:
  std::unique_ptr<obs::RunSession> run_;
};

/// The calibrated testbed, built once per process.
[[nodiscard]] const platforms::Testbed& testbed();

/// Adds a "paper vs measured" row: label, paper seconds, measured seconds,
/// measured/paper ratio.
void add_comparison_row(TextTable& table, const std::string& label,
                        double paper_seconds, double measured_seconds);

/// A conventional-platform scaling experiment: one of the paper's Tables
/// 3, 4, 9 and 10 with its Figure 1-4.
struct ScalingExperiment {
  std::string table_title;
  std::string figure_title;
  std::string row_prefix;  ///< report rows are "<row_prefix>_<p>proc"
  smp::SmpConfig platforms::Testbed::*platform;
  double (*seq_seconds)(const platforms::Testbed&, const smp::SmpConfig&);
  /// Seconds on `processors` processors, one thread per processor.
  double (*parallel_seconds)(const platforms::Testbed&, const smp::SmpConfig&,
                             int processors);
  const std::vector<platforms::paper::ScalingRow>& paper_rows;
  double paper_seq_seconds;
};

/// Measured seconds of a ScalingExperiment.
struct ScalingTimes {
  double seq = 0.0;
  std::vector<double> parallel;  ///< one per paper row
};

/// Sweeps the sequential baseline and the scaling rows, adds one report
/// row per scaling row, and prints the paper-vs-measured table and the
/// speedup figure (paper and measured side by side).
ScalingTimes run_scaling_experiment(Session& session,
                                    const ScalingExperiment& e);

}  // namespace tc3i::bench
