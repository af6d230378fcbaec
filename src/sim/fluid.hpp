// Fluid (processor-sharing) rate allocation.
//
// The conventional-SMP machine model treats the shared memory bus as a fluid
// resource: at any instant each active thread demands bandwidth up to its
// private cap (a single core cannot saturate the bus by itself) and the bus
// divides its total capacity fairly among demanders. The classic solution is
// water-filling: caps below the fair share are granted in full and the
// remainder is re-divided among the rest.
#pragma once

#include <span>
#include <vector>

namespace tc3i::sim {

/// Computes per-flow rates for a shared resource of `total_capacity`,
/// where flow i can consume at most `private_caps[i]`, into `rates`
/// (resized to match; its storage is reused from call to call). Returns
/// true when the resource saturated: the flows whose caps exceed the fair
/// share split what the others left evenly. The caller counts calls and
/// saturations (the SMP engine's sim.fluid.water_fill.* counters).
///
/// Postconditions: rates[i] <= private_caps[i]; sum(rates) <=
/// total_capacity (with equality when the demand is binding); max-min fair.
bool water_fill(double total_capacity, std::span<const double> private_caps,
                std::vector<double>& rates);

/// Convenience for the common homogeneous case: n identical flows with the
/// same cap. Returns the per-flow rate.
[[nodiscard]] double water_fill_uniform(double total_capacity, int n_flows,
                                        double private_cap);

}  // namespace tc3i::sim
