// Terrain grid, regions, ring enumeration and parent selection.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "c3i/terrain/masking_kernel.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/terrain/terrain.hpp"

namespace tc3i::c3i::terrain {
namespace {

TEST(Grid, StoresAndRetrieves) {
  Grid g(4, 3, 1.5);
  EXPECT_EQ(g.x_size(), 4);
  EXPECT_EQ(g.y_size(), 3);
  EXPECT_EQ(g.cells(), 12u);
  EXPECT_DOUBLE_EQ(g.at(2, 1), 1.5);
  g.at(2, 1) = 9.0;
  EXPECT_DOUBLE_EQ(g.at(2, 1), 9.0);
  EXPECT_DOUBLE_EQ(g.at(3, 2), 1.5);
}

TEST(Grid, ContainsChecksBounds) {
  const Grid g(4, 3);
  EXPECT_TRUE(g.contains(0, 0));
  EXPECT_TRUE(g.contains(3, 2));
  EXPECT_FALSE(g.contains(4, 0));
  EXPECT_FALSE(g.contains(0, 3));
  EXPECT_FALSE(g.contains(-1, 0));
}

TEST(GridDeathTest, OutOfBoundsAccessAborts) {
  Grid g(4, 3);
  EXPECT_DEATH((void)g.at(4, 0), "Precondition");
}

TEST(Region, GeometryHelpers) {
  const Region r{2, 3, 5, 7};
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.cell_count(), 20);
  EXPECT_TRUE(r.contains(2, 3));
  EXPECT_TRUE(r.contains(5, 7));
  EXPECT_FALSE(r.contains(6, 7));
}

TEST(Region, OverlapAndIntersect) {
  const Region a{0, 0, 4, 4};
  const Region b{3, 3, 8, 8};
  const Region c{6, 0, 9, 2};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  const Region i = a.intersect(b);
  EXPECT_EQ(i.x0, 3);
  EXPECT_EQ(i.y0, 3);
  EXPECT_EQ(i.x1, 4);
  EXPECT_EQ(i.y1, 4);
}

TEST(ThreatRegion, ClipsAtEdges) {
  GroundThreat t;
  t.x = 2;
  t.y = 98;
  t.radius = 10;
  const Region r = threat_region(100, 100, t);
  EXPECT_EQ(r.x0, 0);
  EXPECT_EQ(r.x1, 12);
  EXPECT_EQ(r.y0, 88);
  EXPECT_EQ(r.y1, 99);
}

TEST(ThreatRegion, InteriorThreatIsFullSquare) {
  GroundThreat t;
  t.x = 50;
  t.y = 50;
  t.radius = 10;
  const Region r = threat_region(100, 100, t);
  EXPECT_EQ(r.cell_count(), 21 * 21);
}

TEST(GenerateTerrain, DeterministicAndBounded) {
  const Grid a = generate_terrain(123, 64, 48, 1000.0);
  const Grid b = generate_terrain(123, 64, 48, 1000.0);
  EXPECT_TRUE(a == b);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x) {
      EXPECT_GE(a.at(x, y), 0.0);
      EXPECT_LE(a.at(x, y), 1000.0);
    }
}

TEST(GenerateTerrain, DifferentSeedsDiffer) {
  const Grid a = generate_terrain(1, 32, 32);
  const Grid b = generate_terrain(2, 32, 32);
  EXPECT_FALSE(a == b);
}

TEST(GenerateTerrain, HasRelief) {
  const Grid g = generate_terrain(7, 64, 64, 1200.0);
  double lo = g.at(0, 0), hi = lo;
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      lo = std::min(lo, g.at(x, y));
      hi = std::max(hi, g.at(x, y));
    }
  EXPECT_GT(hi - lo, 100.0);  // not flat
}

TEST(ParentCell, Ring1ParentIsCenter) {
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy) {
      if (dx == 0 && dy == 0) continue;
      const auto [px, py] = parent_cell(10, 10, 10 + dx, 10 + dy);
      EXPECT_EQ(px, 10);
      EXPECT_EQ(py, 10);
    }
}

TEST(ParentCell, ParentIsExactlyOneRingCloser) {
  const int cx = 50, cy = 50;
  for (int x = 30; x <= 70; ++x) {
    for (int y = 30; y <= 70; ++y) {
      if (x == cx && y == cy) continue;
      const int ring = std::max(std::abs(x - cx), std::abs(y - cy));
      const auto [px, py] = parent_cell(cx, cy, x, y);
      EXPECT_EQ(std::max(std::abs(px - cx), std::abs(py - cy)), ring - 1);
    }
  }
}

TEST(ParentCell, ParentStaysOnTheRay) {
  // Along the axes and diagonals the parent is the exact previous cell.
  const auto [ax, ay] = parent_cell(0, 0, 5, 0);
  EXPECT_EQ(ax, 4);
  EXPECT_EQ(ay, 0);
  const auto [dx, dy] = parent_cell(0, 0, 5, 5);
  EXPECT_EQ(dx, 4);
  EXPECT_EQ(dy, 4);
  const auto [nx, ny] = parent_cell(0, 0, -6, -6);
  EXPECT_EQ(nx, -5);
  EXPECT_EQ(ny, -5);
}

TEST(RingCells, UnionOfRingsCoversRegionExactlyOnce) {
  const Region region{10, 20, 40, 45};
  const int cx = 25, cy = 30;
  std::map<std::pair<int, int>, int> seen;
  std::vector<std::pair<int, int>> ring;
  const int rings = max_ring(region, cx, cy);
  for (int r = 1; r <= rings; ++r) {
    ring_cells(region, cx, cy, r, ring);
    for (const auto& cell : ring) {
      EXPECT_TRUE(region.contains(cell.first, cell.second));
      EXPECT_EQ(std::max(std::abs(cell.first - cx), std::abs(cell.second - cy)),
                r);
      seen[cell]++;
    }
  }
  // Every region cell except the center appears exactly once.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(region.cell_count()) - 1);
  for (const auto& [cell, count] : seen) EXPECT_EQ(count, 1);
}

TEST(RingCells, FullRingSizeIs8R) {
  const Region region{0, 0, 100, 100};
  std::vector<std::pair<int, int>> ring;
  for (int r = 1; r <= 5; ++r) {
    ring_cells(region, 50, 50, r, ring);
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(8 * r));
  }
}

/// ring_size() against the listed ring, for rings 1..last of `region`
/// around (cx, cy).
void expect_ring_sizes_match(const Region& region, int cx, int cy,
                             int last) {
  std::vector<std::pair<int, int>> ring;
  for (int r = 1; r <= last; ++r) {
    ring_cells(region, cx, cy, r, ring);
    EXPECT_EQ(ring_size(region, cx, cy, r), ring.size())
        << "region [" << region.x0 << ", " << region.x1 << "] x ["
        << region.y0 << ", " << region.y1 << "], centre (" << cx << ", "
        << cy << "), ring " << r;
  }
}

/// The same for every ring of `threat`'s region and two rings past it.
void expect_ring_sizes_match(int x_size, int y_size,
                             const GroundThreat& threat) {
  const Region region = threat_region(x_size, y_size, threat);
  expect_ring_sizes_match(region, threat.x, threat.y,
                          max_ring(region, threat.x, threat.y) + 2);
}

TEST(RingSize, MatchesRingCellsInteriorEdgeCornerAndBeyondGrid) {
  expect_ring_sizes_match(100, 80, {50, 40, 15.0, 12});  // interior
  expect_ring_sizes_match(100, 80, {3, 40, 15.0, 12});   // clipped left
  expect_ring_sizes_match(100, 80, {50, 78, 15.0, 12});  // clipped bottom
  expect_ring_sizes_match(100, 80, {1, 2, 15.0, 12});    // corner
  expect_ring_sizes_match(100, 80, {97, 79, 15.0, 12});  // far corner
  expect_ring_sizes_match(100, 80, {40, 30, 15.0, 500}); // radius > grid
  expect_ring_sizes_match(1, 1, {0, 0, 15.0, 3});        // one-cell grid
  // ring_cells also takes a centre outside the region.
  expect_ring_sizes_match(Region{5, 5, 9, 9}, 0, 2, 12);
}

TEST(RingSize, MatchesRingCellsForEveryPositionOfASmallGrid) {
  for (int y = 0; y < 9; ++y)
    for (int x = 0; x < 12; ++x)
      for (int radius = 0; radius <= 14; ++radius)
        expect_ring_sizes_match(12, 9, {x, y, 15.0, radius});
}

TEST(MaxRing, CornersDominat) {
  const Region region{0, 0, 10, 10};
  EXPECT_EQ(max_ring(region, 0, 0), 10);
  EXPECT_EQ(max_ring(region, 5, 5), 5);
  EXPECT_EQ(max_ring(region, 10, 3), 10);
}

TEST(GeometryScenario, MatchesFullScenarioThreats) {
  ScenarioParams params;
  params.x_size = 128;
  params.y_size = 128;
  params.num_threats = 10;
  const GeometryScenario g = generate_geometry(5, params);
  const Scenario s = generate_scenario(5, params);
  ASSERT_EQ(g.threats.size(), s.threats.size());
  for (std::size_t i = 0; i < g.threats.size(); ++i) {
    EXPECT_EQ(g.threats[i].x, s.threats[i].x);
    EXPECT_EQ(g.threats[i].y, s.threats[i].y);
    EXPECT_EQ(g.threats[i].radius, s.threats[i].radius);
  }
}

TEST(GeometryScenario, RegionFractionRespected) {
  ScenarioParams params;
  params.x_size = 400;
  params.y_size = 400;
  params.num_threats = 40;
  params.region_fraction = 0.05;
  const GeometryScenario g = generate_geometry(11, params);
  const double area = 400.0 * 400.0;
  for (const auto& t : g.threats) {
    const double side = 2.0 * t.radius + 1.0;
    EXPECT_LE(side * side, 0.06 * area);  // "up to 5%" (+rounding)
    EXPECT_GE(t.radius, 2);
  }
}

}  // namespace
}  // namespace tc3i::c3i::terrain
