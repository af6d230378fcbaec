#include "c3i/threat/sequential.hpp"

#include "core/contracts.hpp"

namespace tc3i::c3i::threat {

AnalysisResult run_sequential(const Scenario& scenario) {
  AnalysisResult result;
  ThreatScan scan;
  for (std::size_t t = 0; t < scenario.threats.size(); ++t) {
    scan_threat(scenario.threats[t], static_cast<std::int32_t>(t),
                scenario.weapons, scenario.dt, scan);
    result.steps += scan.steps * scenario.weapons.size();
    result.intervals.insert(result.intervals.end(), scan.intervals.begin(),
                            scan.intervals.end());
  }
  return result;
}

std::uint64_t PairProfile::total_steps() const {
  std::uint64_t total = 0;
  for (auto s : steps) total += s;
  return total;
}

std::uint64_t PairProfile::total_intervals() const {
  std::uint64_t total = 0;
  for (auto i : intervals_found) total += i;
  return total;
}

PairProfile profile(const Scenario& scenario) {
  PairProfile p = sized_profile(scenario);
  profile_rows(scenario, 0, p.num_threats, p);
  return p;
}

PairProfile sized_profile(const Scenario& scenario) {
  PairProfile p;
  p.num_threats = scenario.threats.size();
  p.num_weapons = scenario.weapons.size();
  p.steps.resize(p.num_threats * p.num_weapons);
  p.intervals_found.resize(p.num_threats * p.num_weapons);
  return p;
}

void profile_rows(const Scenario& scenario, std::size_t t_begin,
                  std::size_t t_end, PairProfile& out) {
  TC3I_EXPECTS(t_begin <= t_end && t_end <= out.num_threats);
  TC3I_EXPECTS(out.num_threats == scenario.threats.size() &&
               out.num_weapons == scenario.weapons.size());
  const std::size_t num_weapons = out.num_weapons;
  ThreatScan scan;
  for (std::size_t t = t_begin; t < t_end; ++t) {
    scan_threat(scenario.threats[t], static_cast<std::int32_t>(t),
                scenario.weapons, scenario.dt, scan);
    for (std::size_t w = 0; w < num_weapons; ++w) {
      out.steps[t * num_weapons + w] = static_cast<std::uint32_t>(scan.steps);
      out.intervals_found[t * num_weapons + w] = scan.found[w];
    }
  }
}

}  // namespace tc3i::c3i::threat
