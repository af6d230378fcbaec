// Sequential Threat Analysis (the paper's Program 1) and per-pair work
// profiling used by the trace builders.
#pragma once

#include <cstdint>
#include <vector>

#include "c3i/threat/physics.hpp"
#include "c3i/threat/scenario_gen.hpp"

namespace tc3i::c3i::threat {

struct AnalysisResult {
  std::vector<Interval> intervals;
  std::uint64_t steps = 0;  ///< total predicate evaluations
};

/// Program 1: the three nested loops, appending to one shared intervals
/// array through one shared counter — inherently sequential as written.
[[nodiscard]] AnalysisResult run_sequential(const Scenario& scenario);

/// Per-(threat, weapon) work profile: what the trace builders replay on the
/// machine models.
struct PairProfile {
  std::size_t num_threats = 0;
  std::size_t num_weapons = 0;
  std::vector<std::uint32_t> steps;           ///< [threat * W + weapon]
  std::vector<std::uint32_t> intervals_found; ///< [threat * W + weapon]

  [[nodiscard]] std::uint32_t steps_at(std::size_t threat,
                                       std::size_t weapon) const {
    return steps[threat * num_weapons + weapon];
  }
  [[nodiscard]] std::uint32_t intervals_at(std::size_t threat,
                                           std::size_t weapon) const {
    return intervals_found[threat * num_weapons + weapon];
  }
  [[nodiscard]] std::uint64_t total_steps() const;
  [[nodiscard]] std::uint64_t total_intervals() const;
};

/// Runs the scans and records per-pair work (same kernel as
/// run_sequential; result intervals are discarded).
[[nodiscard]] PairProfile profile(const Scenario& scenario);

/// A PairProfile shaped for `scenario`, with every count zero.
[[nodiscard]] PairProfile sized_profile(const Scenario& scenario);

/// Fills rows [t_begin, t_end) of `out`, a sized_profile of `scenario`;
/// profile() runs it over every threat. Each row writes only its own
/// elements, so disjoint ranges may run on different threads.
void profile_rows(const Scenario& scenario, std::size_t t_begin,
                  std::size_t t_end, PairProfile& out);

}  // namespace tc3i::c3i::threat
