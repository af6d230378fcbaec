// Ablation: sensitivity of the MTA saturation point (Table 6's shape) to
// the two architectural constants the design hinges on — the per-stream
// issue spacing (pipeline depth, 21 on the MTA-1) and the memory latency
// that multithreading must mask.
#include <iostream>

#include "core/contracts.hpp"
#include "core/table.hpp"
#include "harness.hpp"

using namespace tc3i;

namespace {

double chunked_time(const platforms::Testbed& tb, mta::MtaConfig cfg,
                    int chunks) {
  mta::Machine machine(std::move(cfg));
  mta::ProgramPool pool;
  c3i::threat::build_mta_chunked(pool, machine, tb.threat_profile_scaled,
                                 static_cast<std::size_t>(chunks),
                                 tb.threat_costs_scaled);
  return machine.run().seconds * tb.threat_mta_factor;
}

}  // namespace

int main(int argc, char** argv) {
  tc3i::bench::Session session("ablate_mta_latency", argc, argv);
  const auto& tb = bench::testbed();

  const std::vector<int> chunk_counts = {8, 16, 32, 64, 128, 256};

  // The MTA-1 configuration (spacing 21, latency 70) is the middle column
  // of both tables. The spacing sweep simulates it, and the latency table
  // reuses that column.
  TC3I_ASSERT(platforms::make_mta_config(1).issue_spacing_cycles == 21 &&
              platforms::make_mta_config(1).memory_latency_cycles == 70);
  const std::vector<int> spacings = {11, 21, 42};
  const std::vector<double> by_spacing = sim::run_sweep(
      chunk_counts.size() * spacings.size(), session.jobs(),
      [&](std::size_t i) {
        mta::MtaConfig cfg = platforms::make_mta_config(1);
        cfg.issue_spacing_cycles = spacings[i % spacings.size()];
        return chunked_time(tb, cfg, chunk_counts[i / spacings.size()]);
      });
  {
    TextTable table(
        "Threat Analysis chunk sweep (1 proc) vs issue spacing "
        "(21 = the MTA-1 pipeline depth)");
    table.header({"Chunks", "spacing 11", "spacing 21", "spacing 42"});
    for (std::size_t c = 0; c < chunk_counts.size(); ++c) {
      std::vector<std::string> row{std::to_string(chunk_counts[c])};
      for (std::size_t s = 0; s < spacings.size(); ++s)
        row.push_back(TextTable::num(by_spacing[c * spacings.size() + s], 1));
      table.row(std::move(row));
    }
    table.render(std::cout);
    std::cout << "Expected: saturation moves to ~spacing streams — a deeper "
                 "pipeline needs more threads.\n\n";
  }

  {
    const std::vector<int> latencies = {35, 140};
    const std::vector<double> swept = sim::run_sweep(
        chunk_counts.size() * latencies.size(), session.jobs(),
        [&](std::size_t i) {
          mta::MtaConfig cfg = platforms::make_mta_config(1);
          cfg.memory_latency_cycles = latencies[i % latencies.size()];
          return chunked_time(tb, cfg, chunk_counts[i / latencies.size()]);
        });
    TextTable table(
        "Threat Analysis chunk sweep (1 proc) vs memory latency "
        "(70 = the modeled MTA-1 round trip)");
    table.header({"Chunks", "latency 35", "latency 70", "latency 140"});
    for (std::size_t c = 0; c < chunk_counts.size(); ++c) {
      std::vector<std::string> row{std::to_string(chunk_counts[c])};
      row.push_back(TextTable::num(swept[c * latencies.size()], 1));
      row.push_back(TextTable::num(by_spacing[c * spacings.size() + 1], 1));
      row.push_back(TextTable::num(swept[c * latencies.size() + 1], 1));
      table.row(std::move(row));
    }
    table.render(std::cout);
    std::cout << "Expected: with few streams, time tracks latency (nothing "
                 "masks it); at 128+ streams the latency columns converge — "
                 "latency masking in action, the MTA's core claim.\n";
  }
  return 0;
}
