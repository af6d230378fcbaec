#include "c3i/terrain/sequential.hpp"

#include <algorithm>

namespace tc3i::c3i::terrain {

Grid run_sequential(const Scenario& scenario) {
  const Grid& terrain = scenario.terrain;
  Grid masking(terrain.x_size(), terrain.y_size(), kInfinity);
  Grid temp(terrain.x_size(), terrain.y_size(), 0.0);
  KernelScratch scratch;

  for (const auto& threat : scenario.threats) {
    const Region region = threat_region(terrain, threat);
    // Pass 1: save current masking of the region.
    for (int y = region.y0; y <= region.y1; ++y)
      for (int x = region.x0; x <= region.x1; ++x)
        temp.at(x, y) = masking.at(x, y);
    // Pass 2: reset the region (the kernel computes absolute altitudes).
    for (int y = region.y0; y <= region.y1; ++y)
      for (int x = region.x0; x <= region.x1; ++x)
        masking.at(x, y) = kInfinity;
    // Pass 3 (kernel): masking altitudes due to this threat.
    compute_threat_masking(terrain, threat, masking, scratch);
    // Pass 4: minimize the saved values back in.
    for (int y = region.y0; y <= region.y1; ++y)
      for (int x = region.x0; x <= region.x1; ++x)
        masking.at(x, y) = std::min(masking.at(x, y), temp.at(x, y));
  }
  return masking;
}

std::uint64_t TerrainProfile::total_kernel_cells() const {
  std::uint64_t total = 0;
  for (const auto& t : threats) total += t.kernel_cells;
  return total;
}

std::uint64_t TerrainProfile::total_simple_cells() const {
  std::uint64_t total = 0;
  for (const auto& t : threats) total += t.simple_cells;
  return total;
}

namespace {

TerrainProfile profile_impl(int x_size, int y_size,
                            const std::vector<GroundThreat>& threats) {
  TerrainProfile p;
  p.x_size = x_size;
  p.y_size = y_size;
  p.threats.reserve(threats.size());
  for (const auto& threat : threats) {
    ThreatWork w;
    w.region = threat_region(x_size, y_size, threat);
    const auto cells = static_cast<std::uint64_t>(w.region.cell_count());
    // The kernel visits every region cell once; ring sizes recorded for
    // the fine-grained builders.
    w.kernel_cells = cells;
    // Program 3: passes 1, 2 and 4 are simple per-cell passes.
    w.simple_cells = 3 * cells;
    const int rings = max_ring(w.region, threat.x, threat.y);
    w.ring_sizes.reserve(static_cast<std::size_t>(rings));
    for (int r = 1; r <= rings; ++r)
      w.ring_sizes.push_back(ring_size(w.region, threat.x, threat.y, r));
    p.threats.push_back(std::move(w));
  }
  return p;
}

}  // namespace

TerrainProfile profile(const GeometryScenario& scenario) {
  return profile_impl(scenario.x_size, scenario.y_size, scenario.threats);
}

TerrainProfile profile(const Scenario& scenario) {
  return profile_impl(scenario.terrain.x_size(), scenario.terrain.y_size(),
                      scenario.threats);
}

}  // namespace tc3i::c3i::terrain
