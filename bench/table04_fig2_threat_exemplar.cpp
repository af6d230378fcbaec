// Table 4 + Figure 2: multithreaded Threat Analysis on the 16-processor
// HP Exemplar (one chunk/thread per processor). The paper reports
// near-linear scaling to 15.4x at 16 processors.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table04_fig2_threat_exemplar", argc, argv);
  using namespace tc3i;
  bench::run_scaling_experiment(
      session,
      {"Table 4: multithreaded Threat Analysis on 16-processor Exemplar",
       "Figure 2: speedup of multithreaded Threat Analysis on Exemplar",
       "threat_exemplar", &platforms::Testbed::exemplar,
       platforms::threat_seq_seconds,
       [](const platforms::Testbed& tb, const smp::SmpConfig& cfg, int p) {
         return platforms::threat_chunked_seconds(tb, cfg, p, p);
       },
       platforms::paper::threat_exemplar_rows(),
       platforms::paper::kThreatSeqExemplar});
  return 0;
}
