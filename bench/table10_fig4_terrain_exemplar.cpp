// Table 10 + Figure 4: coarse-grained multithreaded Terrain Masking on the
// 16-processor Exemplar. The paper's curve is noisy and saturates around
// 6-7x — memory contention plus 60-task imbalance.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table10_fig4_terrain_exemplar", argc, argv);
  using namespace tc3i;
  const bench::ScalingTimes times = bench::run_scaling_experiment(
      session,
      {"Table 10: multithreaded Terrain Masking on 16-processor Exemplar",
       "Figure 4: speedup of coarse-grained Terrain Masking on Exemplar",
       "terrain_exemplar", &platforms::Testbed::exemplar,
       platforms::terrain_seq_seconds,
       [](const platforms::Testbed& tb, const smp::SmpConfig& cfg, int p) {
         return platforms::terrain_coarse_seconds(tb, cfg, p, p);
       },
       platforms::paper::terrain_exemplar_rows(),
       platforms::paper::kTerrainSeqExemplar});
  double best_speedup = 0.0;
  for (const double t : times.parallel)
    best_speedup = std::max(best_speedup, times.seq / t);
  std::cout << "Shape check: speedup saturates well below linear (paper max "
               "~7.1x at 13 procs); measured max "
            << TextTable::num(best_speedup, 1) << "x\n";
  return 0;
}
