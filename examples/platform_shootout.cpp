// The whole evaluation in one binary: build the calibrated testbed and
// sweep a user-chosen benchmark across every platform and thread count —
// the tool you would use to explore configurations the paper didn't run.
//
// Run:   ./build/examples/platform_shootout --benchmark=terrain
//        ./build/examples/platform_shootout --benchmark=threat --chunks=64
#include <cstdio>
#include <iostream>
#include <string>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "platforms/experiment.hpp"

using namespace tc3i;

int main(int argc, char** argv) {
  CliParser cli("Cross-platform shootout on the calibrated 1998 testbed");
  cli.add_flag("benchmark", "threat", "'threat' or 'terrain'");
  cli.add_flag("chunks", "256", "MTA chunk count (threat only)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  const std::string which = cli.get("benchmark");
  const int chunks = static_cast<int>(cli.get_int("chunks"));
  if (which != "threat" && which != "terrain") {
    std::fprintf(stderr,
                 "error: --benchmark must be 'threat' or 'terrain' (got '%s')\n",
                 which.c_str());
    return 2;
  }

  std::printf("Calibrating testbed (runs the instrumented kernels)...\n");
  const platforms::Testbed tb = platforms::build_testbed();

  TextTable table("Benchmark: " + which + " (seconds, 5-scenario totals)");
  table.header({"Platform", "Config", "Time (s)", "vs Alpha seq"});
  const double alpha_seq = which == "threat"
                               ? platforms::threat_seq_seconds(tb, tb.alpha)
                               : platforms::terrain_seq_seconds(tb, tb.alpha);
  auto add = [&](const std::string& platform, const std::string& config,
                 double seconds) {
    table.row({platform, config, TextTable::num(seconds, 1),
               TextTable::num(alpha_seq / seconds, 2) + "x"});
  };

  if (which == "threat") {
    add("Alpha", "sequential", alpha_seq);
    add("Pentium Pro", "sequential",
        platforms::threat_seq_seconds(tb, tb.ppro));
    for (int p : {2, 4})
      add("Pentium Pro", std::to_string(p) + " threads",
          platforms::threat_chunked_seconds(tb, tb.ppro, p, p));
    add("Exemplar", "sequential",
        platforms::threat_seq_seconds(tb, tb.exemplar));
    for (int p : {4, 8, 16})
      add("Exemplar", std::to_string(p) + " threads",
          platforms::threat_chunked_seconds(tb, tb.exemplar, p, p));
    add("Tera MTA", "sequential (1 proc)", platforms::mta_threat_seq_seconds(tb));
    for (int p : {1, 2})
      add("Tera MTA",
          std::to_string(chunks) + " chunks, " + std::to_string(p) + " proc",
          platforms::mta_threat_chunked_seconds(tb, chunks, p));
  } else {
    add("Alpha", "sequential", alpha_seq);
    add("Pentium Pro", "sequential",
        platforms::terrain_seq_seconds(tb, tb.ppro));
    for (int p : {2, 4})
      add("Pentium Pro", std::to_string(p) + " threads, 10x10 blocks",
          platforms::terrain_coarse_seconds(tb, tb.ppro, p, p));
    add("Exemplar", "sequential",
        platforms::terrain_seq_seconds(tb, tb.exemplar));
    for (int p : {4, 8, 16})
      add("Exemplar", std::to_string(p) + " threads, 10x10 blocks",
          platforms::terrain_coarse_seconds(tb, tb.exemplar, p, p));
    add("Tera MTA", "sequential (1 proc)", platforms::mta_terrain_seq_seconds(tb));
    for (int p : {1, 2})
      add("Tera MTA", "fine-grained, " + std::to_string(p) + " proc",
          platforms::mta_terrain_fine_seconds(tb, p));
  }
  table.render(std::cout);
  return 0;
}
