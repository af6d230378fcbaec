// Table 10 + Figure 4: coarse-grained multithreaded Terrain Masking on the
// 16-processor Exemplar. The paper's curve is noisy and saturates around
// 6-7x — memory contention plus 60-task imbalance.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table10_fig4_terrain_exemplar", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();
  const auto& rows = platforms::paper::terrain_exemplar_rows();
  // Point 0 is the sequential baseline, points 1.. the scaling rows.
  const std::vector<double> swept =
      sim::run_sweep(rows.size() + 1, session.jobs(), [&](std::size_t i) {
        if (i == 0) return platforms::terrain_seq_seconds(tb, tb.exemplar);
        const auto& row = rows[i - 1];
        return platforms::terrain_coarse_seconds(tb, tb.exemplar,
                                                 row.processors,
                                                 row.processors);
      });
  const double seq = swept[0];

  TextTable table(
      "Table 10: multithreaded Terrain Masking on 16-processor Exemplar");
  table.header({"Processors", "Paper (s)", "Measured (s)", "Paper speedup",
                "Measured speedup"});
  std::vector<double> measured;
  double best_speedup = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const double t = swept[i + 1];
    measured.push_back(t);
    session.obs().report().add_row(
        "terrain_exemplar_" + std::to_string(row.processors) + "proc", row.seconds, t);
    best_speedup = std::max(best_speedup, seq / t);
    table.row({std::to_string(row.processors), TextTable::num(row.seconds, 0),
               TextTable::num(t, 1),
               TextTable::num(platforms::paper::kTerrainSeqExemplar / row.seconds,
                              1),
               TextTable::num(seq / t, 1)});
  }
  table.render(std::cout);
  std::cout << '\n';
  bench::print_speedup_figure(
      "Figure 4: speedup of coarse-grained Terrain Masking on Exemplar",
      platforms::paper::terrain_exemplar_rows(), measured,
      platforms::paper::kTerrainSeqExemplar, seq);
  std::cout << "Shape check: speedup saturates well below linear (paper max "
               "~7.1x at 13 procs); measured max "
            << TextTable::num(best_speedup, 1) << "x\n";
  return 0;
}
