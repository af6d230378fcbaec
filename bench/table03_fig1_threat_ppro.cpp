// Table 3 + Figure 1: multithreaded Threat Analysis on the quad-processor
// Pentium Pro (one chunk/thread per processor). Near-linear speedup is the
// expected shape: the threads are independent and cache-resident.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table03_fig1_threat_ppro", argc, argv);
  using namespace tc3i;
  bench::run_scaling_experiment(
      session,
      {"Table 3: multithreaded Threat Analysis on quad-processor Pentium Pro",
       "Figure 1: speedup of multithreaded Threat Analysis on Pentium Pro",
       "threat_ppro", &platforms::Testbed::ppro,
       platforms::threat_seq_seconds,
       [](const platforms::Testbed& tb, const smp::SmpConfig& cfg, int p) {
         return platforms::threat_chunked_seconds(tb, cfg, p, p);
       },
       platforms::paper::threat_ppro_rows(),
       platforms::paper::kThreatSeqPPro});
  return 0;
}
