// Table 9 + Figure 3: coarse-grained multithreaded Terrain Masking on the
// Pentium Pro (10x10 blocking, one thread per processor). Expected shape:
// incidental >1x speedup on one processor (the temp/masking role swap does
// one fewer region pass), then saturation near 3x at 4 processors — the
// program is memory-bound and the shared bus is the bottleneck.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table09_fig3_terrain_ppro", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();
  const auto& rows = platforms::paper::terrain_ppro_rows();
  // Point 0 is the sequential baseline, points 1.. the scaling rows.
  const std::vector<double> swept =
      sim::run_sweep(rows.size() + 1, session.jobs(), [&](std::size_t i) {
        if (i == 0) return platforms::terrain_seq_seconds(tb, tb.ppro);
        const auto& row = rows[i - 1];
        return platforms::terrain_coarse_seconds(tb, tb.ppro, row.processors,
                                                 row.processors);
      });
  const double seq = swept[0];

  TextTable table(
      "Table 9: multithreaded Terrain Masking on quad-processor Pentium Pro");
  table.header({"Processors", "Paper (s)", "Measured (s)", "Paper speedup",
                "Measured speedup"});
  std::vector<double> measured;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const double t = swept[i + 1];
    measured.push_back(t);
    session.obs().report().add_row(
        "terrain_ppro_" + std::to_string(row.processors) + "proc", row.seconds, t);
    table.row({std::to_string(row.processors), TextTable::num(row.seconds, 0),
               TextTable::num(t, 1),
               TextTable::num(platforms::paper::kTerrainSeqPPro / row.seconds, 1),
               TextTable::num(seq / t, 1)});
  }
  table.render(std::cout);
  std::cout << '\n';
  bench::print_speedup_figure(
      "Figure 3: speedup of coarse-grained Terrain Masking on Pentium Pro",
      platforms::paper::terrain_ppro_rows(), measured,
      platforms::paper::kTerrainSeqPPro, seq);
  return 0;
}
