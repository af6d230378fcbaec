#include "c3i/threat/finegrained.hpp"

#include <algorithm>
#include <atomic>

#include "core/contracts.hpp"
#include "sthreads/parallel_for.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::c3i::threat {

AnalysisResult run_finegrained(const Scenario& scenario, int num_threads) {
  TC3I_EXPECTS(num_threads > 0);
  // The shared intervals array must be generously sized up front (there is
  // no way to know the count in advance — the same storage issue the paper
  // discusses). We size from a conservative per-pair bound and verify.
  const std::size_t capacity =
      scenario.threats.size() * scenario.weapons.size() * 4 + 1024;
  std::vector<Interval> intervals(capacity);
  sthreads::SyncCounter num_intervals(0);
  std::atomic<std::uint64_t> steps{0};
  std::vector<ThreatScan> scans(static_cast<std::size_t>(num_threads));

  sthreads::parallel_for_dynamic(
      scenario.threats.size(), num_threads,
      [&](std::size_t t, int worker) {
        ThreatScan& scan = scans[static_cast<std::size_t>(worker)];
        scan_threat(scenario.threats[t], static_cast<std::int32_t>(t),
                    scenario.weapons, scenario.dt, scan);
        const Interval* next = scan.intervals.data();
        for (const std::uint32_t found : scan.found) {
          if (found == 0) continue;
          // One fetch-add claims a run of slots for this pair's intervals
          // (the MTA would use one full/empty round-trip).
          const auto base =
              static_cast<std::size_t>(num_intervals.fetch_add(found));
          TC3I_ASSERT(base + found <= intervals.size());
          std::copy_n(next, found, intervals.data() + base);
          next += found;
        }
        steps.fetch_add(scan.steps * scenario.weapons.size(),
                        std::memory_order_relaxed);
      });

  AnalysisResult result;
  intervals.resize(static_cast<std::size_t>(num_intervals.value()));
  result.intervals = std::move(intervals);
  result.steps = steps.load();
  return result;
}

}  // namespace tc3i::c3i::threat
