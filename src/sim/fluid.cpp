#include "sim/fluid.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace tc3i::sim {

bool water_fill(double total_capacity, std::span<const double> private_caps,
                std::vector<double>& rates) {
  TC3I_EXPECTS(total_capacity >= 0.0);
  // A flow is open until granted: its rate reads kOpen, which no granted
  // rate (a cap, never negative) can equal.
  constexpr double kOpen = -1.0;
  rates.assign(private_caps.size(), kOpen);

  // Iterate: grant every cap below the current fair share, then re-divide.
  std::size_t open = private_caps.size();
  double remaining = total_capacity;
  while (open > 0) {
    const double fair = remaining / static_cast<double>(open);
    bool granted_any = false;
    for (std::size_t i = 0; i < private_caps.size(); ++i) {
      if (rates[i] != kOpen) continue;
      TC3I_EXPECTS(private_caps[i] >= 0.0);
      if (private_caps[i] <= fair) {
        rates[i] = private_caps[i];
        remaining -= private_caps[i];
        --open;
        granted_any = true;
      }
    }
    if (!granted_any) {
      // Every remaining flow is capacity-limited: split evenly.
      for (double& r : rates)
        if (r == kOpen) r = fair;
      return true;
    }
  }
  return false;
}

double water_fill_uniform(double total_capacity, int n_flows,
                          double private_cap) {
  TC3I_EXPECTS(n_flows > 0);
  TC3I_EXPECTS(private_cap >= 0.0);
  return std::min(private_cap, total_capacity / n_flows);
}

}  // namespace tc3i::sim
