#include "c3i/terrain/masking_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace tc3i::c3i::terrain {

namespace {

constexpr double kNoShadowSlope = -1e30;

int sgn(int v) { return (v > 0) - (v < 0); }

}  // namespace

std::pair<int, int> parent_cell(int cx, int cy, int x, int y) {
  const int dx = x - cx;
  const int dy = y - cy;
  const int ring = std::max(std::abs(dx), std::abs(dy));
  TC3I_EXPECTS(ring > 0);
  if (ring == 1) return {cx, cy};
  int px, py;
  if (std::abs(dx) == ring) {
    px = x - sgn(dx);
    // Nearest cell on ring-1 to the exact ray: scale the minor offset.
    const double scaled = static_cast<double>(dy) *
                          static_cast<double>(ring - 1) /
                          static_cast<double>(ring);
    py = cy + static_cast<int>(std::lround(scaled));
  } else {
    py = y - sgn(dy);
    const double scaled = static_cast<double>(dx) *
                          static_cast<double>(ring - 1) /
                          static_cast<double>(ring);
    px = cx + static_cast<int>(std::lround(scaled));
  }
  TC3I_ENSURES(std::max(std::abs(px - cx), std::abs(py - cy)) == ring - 1);
  return {px, py};
}

void ring_cells(const Region& region, int cx, int cy, int r,
                std::vector<std::pair<int, int>>& out) {
  out.clear();
  TC3I_EXPECTS(r >= 1);
  // Top and bottom edges (full width), then left/right edges (excluding
  // corners), all clipped. Deterministic scan order.
  const int x_lo = std::max(region.x0, cx - r);
  const int x_hi = std::min(region.x1, cx + r);
  if (cy - r >= region.y0)
    for (int x = x_lo; x <= x_hi; ++x) out.emplace_back(x, cy - r);
  if (cy + r <= region.y1)
    for (int x = x_lo; x <= x_hi; ++x) out.emplace_back(x, cy + r);
  const int y_lo = std::max(region.y0, cy - r + 1);
  const int y_hi = std::min(region.y1, cy + r - 1);
  if (cx - r >= region.x0)
    for (int y = y_lo; y <= y_hi; ++y) out.emplace_back(cx - r, y);
  if (cx + r <= region.x1)
    for (int y = y_lo; y <= y_hi; ++y) out.emplace_back(cx + r, y);
}

std::uint32_t ring_size(const Region& region, int cx, int cy, int r) {
  TC3I_EXPECTS(r >= 1);
  // ring_cells' four clipped edges: each present edge adds its span.
  const int width = std::max(
      0, std::min(region.x1, cx + r) - std::max(region.x0, cx - r) + 1);
  const int height = std::max(0, std::min(region.y1, cy + r - 1) -
                                     std::max(region.y0, cy - r + 1) + 1);
  int cells = 0;
  if (cy - r >= region.y0) cells += width;
  if (cy + r <= region.y1) cells += width;
  if (cx - r >= region.x0) cells += height;
  if (cx + r <= region.x1) cells += height;
  return static_cast<std::uint32_t>(cells);
}

int max_ring(const Region& region, int cx, int cy) {
  int r = 0;
  r = std::max(r, cx - region.x0);
  r = std::max(r, region.x1 - cx);
  r = std::max(r, cy - region.y0);
  r = std::max(r, region.y1 - cy);
  return r;
}

CellResult evaluate_cell(const Grid& terrain, const GroundThreat& threat,
                         double sensor_z, int x, int y, double parent_slope) {
  const double dx = static_cast<double>(x - threat.x);
  const double dy = static_cast<double>(y - threat.y);
  const double dist = std::sqrt(dx * dx + dy * dy);
  const double ground = terrain.at(x, y);
  // Shadow line from terrain strictly closer to the sensor.
  const double shadow_alt = sensor_z + dist * parent_slope;
  // An aircraft can always "hide" at ground level only if the shadow line
  // is above the ground; the safe ceiling is at least the ground itself.
  const double masking = std::max(ground, shadow_alt);
  // Propagate: this cell's terrain may deepen the shadow for cells beyond.
  const double own_slope = (ground - sensor_z) / dist;
  return CellResult{masking, std::max(parent_slope, own_slope)};
}

std::uint64_t compute_threat_masking(const Grid& terrain,
                                     const GroundThreat& threat, Grid& out,
                                     KernelScratch& scratch) {
  TC3I_EXPECTS(out.x_size() == terrain.x_size() &&
               out.y_size() == terrain.y_size());
  const Region region = threat_region(terrain, threat);
  const int side = 2 * threat.radius + 1;
  scratch.slope.assign(static_cast<std::size_t>(side) *
                           static_cast<std::size_t>(side),
                       kNoShadowSlope);

  auto slope_at = [&](int x, int y) -> double& {
    const int lx = x - (threat.x - threat.radius);
    const int ly = y - (threat.y - threat.radius);
    TC3I_ASSERT(lx >= 0 && lx < side && ly >= 0 && ly < side);
    return scratch.slope[static_cast<std::size_t>(ly) *
                             static_cast<std::size_t>(side) +
                         static_cast<std::size_t>(lx)];
  };

  const double sensor_z = terrain.at(threat.x, threat.y) + threat.sensor_height;

  // Ring 0: the threat's own cell is fully visible at any altitude.
  out.at(threat.x, threat.y) = terrain.at(threat.x, threat.y);
  slope_at(threat.x, threat.y) = kNoShadowSlope;
  std::uint64_t cells = 1;

  std::vector<std::pair<int, int>> ring;
  const int rings = max_ring(region, threat.x, threat.y);
  for (int r = 1; r <= rings; ++r) {
    ring_cells(region, threat.x, threat.y, r, ring);
    for (const auto& [x, y] : ring) {
      const auto [px, py] = parent_cell(threat.x, threat.y, x, y);
      const double parent_slope = slope_at(px, py);
      const CellResult res =
          evaluate_cell(terrain, threat, sensor_z, x, y, parent_slope);
      out.at(x, y) = res.masking;
      slope_at(x, y) = res.slope;
      ++cells;
    }
  }
  return cells;
}

}  // namespace tc3i::c3i::terrain
