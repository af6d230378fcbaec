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
  bench::run_scaling_experiment(
      session,
      {"Table 9: multithreaded Terrain Masking on quad-processor Pentium Pro",
       "Figure 3: speedup of coarse-grained Terrain Masking on Pentium Pro",
       "terrain_ppro", &platforms::Testbed::ppro,
       platforms::terrain_seq_seconds,
       [](const platforms::Testbed& tb, const smp::SmpConfig& cfg, int p) {
         return platforms::terrain_coarse_seconds(tb, cfg, p, p);
       },
       platforms::paper::terrain_ppro_rows(),
       platforms::paper::kTerrainSeqPPro});
  return 0;
}
