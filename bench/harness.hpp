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

/// Renders a speedup figure (the paper's Figures 1-4) for a series of
/// (processors, seconds) pairs, paper and measured side by side.
void print_speedup_figure(const std::string& title,
                          const std::vector<platforms::paper::ScalingRow>& paper_rows,
                          const std::vector<double>& measured_seconds,
                          double paper_seq_seconds, double measured_seq_seconds);

}  // namespace tc3i::bench
