#include "harness.hpp"

#include <cstdlib>
#include <cstring>

#include "core/cli.hpp"
#include "core/contracts.hpp"
#include "platforms/testbed_cache.hpp"

namespace tc3i::bench {

Session::Session(std::string bench_name, int argc, const char* const* argv) {
  CliParser cli(bench_name);
  obs::RunSession::add_cli_flags(cli);
  if (!cli.parse(argc, argv)) {
    // parse() already printed usage; --help is a clean exit, a bad flag
    // is not.
    for (int i = 1; i < argc; ++i)
      if (std::strcmp(argv[i], "--help") == 0) std::exit(0);
    std::exit(2);
  }
  run_ = std::make_unique<obs::RunSession>(std::move(bench_name), cli);
}

Session::~Session() = default;

const platforms::Testbed& testbed() {
  // Kernel profiles come from the disk cache when available (identical
  // testbed either way; see platforms/testbed_cache.hpp).
  static const platforms::Testbed tb = platforms::load_or_build_testbed();
  return tb;
}

void add_comparison_row(TextTable& table, const std::string& label,
                        double paper_seconds, double measured_seconds) {
  TC3I_EXPECTS(paper_seconds > 0.0);
  table.row({label, TextTable::num(paper_seconds, 0),
             TextTable::num(measured_seconds, 1),
             TextTable::num(measured_seconds / paper_seconds, 2)});
  if (obs::RunSession* s = obs::RunSession::active())
    s->report().add_row(label, paper_seconds, measured_seconds);
}

void print_speedup_figure(
    const std::string& title,
    const std::vector<platforms::paper::ScalingRow>& paper_rows,
    const std::vector<double>& measured_seconds, double paper_seq_seconds,
    double measured_seq_seconds) {
  TC3I_EXPECTS(paper_rows.size() == measured_seconds.size());
  AsciiChart chart(title, "processors", "speedup");
  ChartSeries paper_series{"paper", 'o', {}, {}};
  ChartSeries measured_series{"measured", '#', {}, {}};
  double max_procs = 1.0;
  for (std::size_t i = 0; i < paper_rows.size(); ++i) {
    const double procs = paper_rows[i].processors;
    max_procs = std::max(max_procs, procs);
    paper_series.x.push_back(procs);
    paper_series.y.push_back(paper_seq_seconds / paper_rows[i].seconds);
    measured_series.x.push_back(procs);
    measured_series.y.push_back(measured_seq_seconds / measured_seconds[i]);
  }
  chart.add_identity_line(max_procs);
  chart.add_series(std::move(paper_series));
  chart.add_series(std::move(measured_series));
  chart.render(std::cout);
}

}  // namespace tc3i::bench
