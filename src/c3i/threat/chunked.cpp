#include "c3i/threat/chunked.hpp"

#include <atomic>

#include "core/contracts.hpp"
#include "sthreads/parallel_for.hpp"

namespace tc3i::c3i::threat {

AnalysisResult run_chunked(const Scenario& scenario, int num_chunks,
                           int num_threads) {
  TC3I_EXPECTS(num_chunks > 0);
  TC3I_EXPECTS(num_threads > 0);

  std::vector<std::vector<Interval>> chunk_intervals(
      static_cast<std::size_t>(num_chunks));
  std::vector<std::uint64_t> chunk_steps(static_cast<std::size_t>(num_chunks),
                                         0);

  sthreads::parallel_for_chunked(
      scenario.threats.size(), num_chunks, num_threads,
      [&](std::size_t first_threat, std::size_t last_threat, int chunk) {
        auto& local = chunk_intervals[static_cast<std::size_t>(chunk)];
        std::uint64_t steps = 0;
        ThreatScan scan;
        for (std::size_t t = first_threat; t < last_threat; ++t) {
          scan_threat(scenario.threats[t], static_cast<std::int32_t>(t),
                      scenario.weapons, scenario.dt, scan);
          steps += scan.steps * scenario.weapons.size();
          local.insert(local.end(), scan.intervals.begin(),
                       scan.intervals.end());
        }
        chunk_steps[static_cast<std::size_t>(chunk)] = steps;
      });

  AnalysisResult result;
  for (int c = 0; c < num_chunks; ++c) {
    const auto& local = chunk_intervals[static_cast<std::size_t>(c)];
    result.intervals.insert(result.intervals.end(), local.begin(), local.end());
    result.steps += chunk_steps[static_cast<std::size_t>(c)];
  }
  return result;
}

}  // namespace tc3i::c3i::threat
