// Ablation: Program 4 uses a *dynamic* threat queue ("threat = next
// unprocessed threat"). With only 60 tasks of uneven size (clipped
// regions), static round-robin assignment strands work on the slowest
// thread; the dynamic queue is the right call.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("ablate_terrain_sched", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  const std::vector<int> procs = {2, 4, 8, 12, 16};
  // Two points per processor count: dynamic queue, then static assignment.
  const std::vector<double> swept =
      sim::run_sweep(procs.size() * 2, session.jobs(), [&](std::size_t i) {
        const int p = procs[i / 2];
        return i % 2 == 0
                   ? platforms::terrain_coarse_seconds(tb, tb.exemplar, p, p)
                   : platforms::terrain_coarse_static_seconds(tb, tb.exemplar,
                                                              p, p);
      });

  TextTable table(
      "Coarse Terrain Masking on Exemplar: dynamic queue vs static "
      "round-robin assignment");
  table.header({"Processors", "Dynamic (s)", "Static (s)", "Static penalty"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int p = procs[i];
    const double dyn = swept[i * 2];
    const double sta = swept[i * 2 + 1];
    std::string penalty = "+";
    penalty += TextTable::num(100.0 * (sta / dyn - 1.0), 1);
    penalty += "%";
    table.row({std::to_string(p), TextTable::num(dyn, 1),
               TextTable::num(sta, 1), penalty});
  }
  table.render(std::cout);
  std::cout << "\nExpected shape: the static penalty grows with processor "
               "count as per-thread task counts shrink (60 tasks / N "
               "threads).\n";
  return 0;
}
