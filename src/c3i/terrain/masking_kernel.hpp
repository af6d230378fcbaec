// The per-threat masking kernel: maximum safe (invisible) flight altitude
// over the threat's region of influence.
//
// Line-of-sight model: the threat's sensor sits at the terrain height of
// its cell plus `sensor_height`. A point at distance d is shadowed below
// altitude  z_sensor + d * s_max , where s_max is the maximum terrain
// elevation slope (relative to the sensor) over the path from sensor to
// point. The kernel propagates s_max outward ring by ring: each cell's
// value is computed from a parent cell one ring closer, chosen on the ray
// to the sensor — "the value at one point is computed from the values at
// neighboring points" (the paper's stated reason the altitudes cannot be
// computed directly into the shared result). Cells within one ring are
// independent of each other: that is exactly the inner-loop parallelism
// the fine-grained MTA variant exploits.
#pragma once

#include <cstdint>
#include <vector>

#include "c3i/terrain/terrain.hpp"

namespace tc3i::c3i::terrain {

/// Scratch buffers reused across threats to avoid reallocation.
struct KernelScratch {
  std::vector<double> slope;  ///< region-local propagated max slope
};

/// Parent cell of (x, y) relative to threat center (cx, cy): the cell one
/// Chebyshev ring closer, nearest the exact ray (the R2 viewshed rule).
[[nodiscard]] std::pair<int, int> parent_cell(int cx, int cy, int x, int y);

/// Computes the masking altitude due to `threat` for every cell of its
/// region, writing into `out` (a full-terrain-sized grid; only region
/// cells are written). Returns the number of kernel cell evaluations.
std::uint64_t compute_threat_masking(const Grid& terrain,
                                     const GroundThreat& threat, Grid& out,
                                     KernelScratch& scratch);

/// Enumerates the cells of Chebyshev ring `r` around the threat, clipped
/// to `region`, in deterministic scan order. Used by the kernel itself and
/// by the fine-grained variants (host and MTA) so all variants visit cells
/// identically.
void ring_cells(const Region& region, int cx, int cy, int r,
                std::vector<std::pair<int, int>>& out);

/// The number of cells ring_cells() lists, counted without listing them.
[[nodiscard]] std::uint32_t ring_size(const Region& region, int cx, int cy,
                                      int r);

/// Largest Chebyshev ring index that intersects `region` from (cx, cy).
[[nodiscard]] int max_ring(const Region& region, int cx, int cy);

/// Single-cell kernel evaluation: given the parent's propagated slope,
/// returns {masking altitude, propagated slope} for (x, y).
struct CellResult {
  double masking;
  double slope;
};
[[nodiscard]] CellResult evaluate_cell(const Grid& terrain,
                                       const GroundThreat& threat,
                                       double sensor_z, int x, int y,
                                       double parent_slope);

}  // namespace tc3i::c3i::terrain
