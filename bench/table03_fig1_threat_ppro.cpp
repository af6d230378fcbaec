// Table 3 + Figure 1: multithreaded Threat Analysis on the quad-processor
// Pentium Pro (one chunk/thread per processor). Near-linear speedup is the
// expected shape: the threads are independent and cache-resident.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table03_fig1_threat_ppro", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();
  const auto& rows = platforms::paper::threat_ppro_rows();
  // Point 0 is the sequential baseline, points 1.. the scaling rows.
  const std::vector<double> swept =
      sim::run_sweep(rows.size() + 1, session.jobs(), [&](std::size_t i) {
        if (i == 0) return platforms::threat_seq_seconds(tb, tb.ppro);
        const auto& row = rows[i - 1];
        return platforms::threat_chunked_seconds(tb, tb.ppro, row.processors,
                                                 row.processors);
      });
  const double seq = swept[0];

  TextTable table(
      "Table 3: multithreaded Threat Analysis on quad-processor Pentium Pro");
  table.header({"Processors", "Paper (s)", "Measured (s)", "Paper speedup",
                "Measured speedup"});
  std::vector<double> measured;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const double t = swept[i + 1];
    measured.push_back(t);
    session.obs().report().add_row(
        "threat_ppro_" + std::to_string(row.processors) + "proc", row.seconds, t);
    table.row({std::to_string(row.processors), TextTable::num(row.seconds, 0),
               TextTable::num(t, 1),
               TextTable::num(platforms::paper::kThreatSeqPPro / row.seconds, 1),
               TextTable::num(seq / t, 1)});
  }
  table.render(std::cout);
  std::cout << '\n';
  bench::print_speedup_figure(
      "Figure 1: speedup of multithreaded Threat Analysis on Pentium Pro",
      platforms::paper::threat_ppro_rows(), measured,
      platforms::paper::kThreatSeqPPro, seq);
  return 0;
}
