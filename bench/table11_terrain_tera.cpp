// Table 11: fine-grained multithreaded Terrain Masking on the Tera MTA.
// The paper: 48 s on one processor (20x over its own sequential run),
// 34 s on two (1.4x — the memory-heavy mix saturates the network sooner
// than Threat Analysis's 1.8x).
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table11_terrain_tera", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  const std::vector<double> swept = platforms::run_mta_points(
      {platforms::mta_terrain_fine_point(tb, 1),
       platforms::mta_terrain_fine_point(tb, 2),
       platforms::mta_terrain_seq_point(tb)},
      session.jobs());
  const double t1 = swept[0];
  const double t2 = swept[1];

  TextTable table(
      "Table 11: fine-grained multithreaded Terrain Masking on Tera MTA");
  table.header({"Processors", "Paper (s)", "Measured (s)", "Paper speedup",
                "Measured speedup"});
  table.row({"1", TextTable::num(platforms::paper::kTerrainTera1Proc, 0),
             TextTable::num(t1, 1), "1.0", "1.0"});
  table.row({"2", TextTable::num(platforms::paper::kTerrainTera2Proc, 0),
             TextTable::num(t2, 1),
             TextTable::num(platforms::paper::kTerrainTera1Proc /
                                platforms::paper::kTerrainTera2Proc,
                            1),
             TextTable::num(t1 / t2, 1)});
  table.render(std::cout);

  session.obs().report().add_row("terrain_tera_1proc",
                                 platforms::paper::kTerrainTera1Proc, t1);
  session.obs().report().add_row("terrain_tera_2proc",
                                 platforms::paper::kTerrainTera2Proc, t2);

  const double seq = swept[2];
  std::cout << "\nMultithreaded vs sequential on one MTA processor: paper "
            << TextTable::num(978.0 / 48.0, 1) << "x, measured "
            << TextTable::num(seq / t1, 1) << "x\n";
  return 0;
}
