// All Terrain Masking variants (sequential Program 3, coarse-grained
// Program 4, fine-grained ring-parallel) must produce bit-identical
// masking grids: every variant performs the same per-cell arithmetic and
// min is exact.
#include <gtest/gtest.h>

#include "c3i/terrain/checker.hpp"
#include "c3i/terrain/coarse.hpp"
#include "c3i/terrain/finegrained.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/terrain/sequential.hpp"

namespace tc3i::c3i::terrain {
namespace {

Scenario small_scenario(std::uint64_t seed = 9) {
  ScenarioParams params;
  params.x_size = 96;
  params.y_size = 96;
  params.num_threats = 12;
  return generate_scenario(seed, params);
}

TEST(SequentialTerrain, ValidatesSemantics) {
  const Scenario s = small_scenario();
  const Grid masking = run_sequential(s);
  const CheckResult check = validate_masking(s, masking);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(SequentialTerrain, OverlappingThreatsTakeTheMin) {
  // Two identical threats: result equals a single-threat run. Adding a
  // second, stronger-shadowing threat can only lower masking values.
  ScenarioParams params;
  params.x_size = 64;
  params.y_size = 64;
  params.num_threats = 1;
  Scenario one = generate_scenario(21, params);
  Scenario two = one;
  two.threats.push_back(two.threats[0]);
  const Grid m1 = run_sequential(one);
  const Grid m2 = run_sequential(two);
  EXPECT_TRUE(check_equal(m1, m2).ok);  // duplicate threat changes nothing
}

TEST(SequentialTerrain, MoreThreatsOnlyLowerMasking) {
  ScenarioParams params;
  params.x_size = 64;
  params.y_size = 64;
  params.num_threats = 3;
  const Scenario few = generate_scenario(33, params);
  params.num_threats = 6;
  Scenario more = generate_scenario(33, params);
  // The first three threats of `more` coincide with `few`'s (same seed,
  // same draw order).
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(few.threats[i].x, more.threats[i].x);
    ASSERT_EQ(few.threats[i].y, more.threats[i].y);
  }
  const Grid m_few = run_sequential(few);
  const Grid m_more = run_sequential(more);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      EXPECT_LE(m_more.at(x, y), m_few.at(x, y));
}

struct CoarseCase {
  int threads;
  int blocks;
};

class CoarseEquivalenceTest : public ::testing::TestWithParam<CoarseCase> {};

TEST_P(CoarseEquivalenceTest, MatchesSequentialBitForBit) {
  const Scenario s = small_scenario();
  const Grid ref = run_sequential(s);
  CoarseParams params;
  params.num_threads = GetParam().threads;
  params.blocks_per_side = GetParam().blocks;
  const Grid got = run_coarse(s, params);
  const CheckResult check = check_equal(ref, got);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(
    Grid_, CoarseEquivalenceTest,
    ::testing::Values(CoarseCase{1, 10}, CoarseCase{2, 10}, CoarseCase{4, 10},
                      CoarseCase{8, 10}, CoarseCase{4, 1}, CoarseCase{4, 3},
                      CoarseCase{3, 16}),
    [](const auto& info) {
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_b";
      name += std::to_string(info.param.blocks);
      return name;
    });

class FineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FineEquivalenceTest, MatchesSequentialBitForBit) {
  const Scenario s = small_scenario();
  const Grid ref = run_sequential(s);
  const Grid got = run_finegrained(s, GetParam());
  const CheckResult check = check_equal(ref, got);
  EXPECT_TRUE(check.ok) << check.message;
}

INSTANTIATE_TEST_SUITE_P(Threads, FineEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(CoarseTerrain, RepeatedRunsIdenticalDespiteDynamicScheduling) {
  const Scenario s = small_scenario(123);
  CoarseParams params;
  params.num_threads = 4;
  const Grid a = run_coarse(s, params);
  const Grid b = run_coarse(s, params);
  EXPECT_TRUE(check_equal(a, b).ok);
}

TEST(Checker, DetectsCorruptedCell) {
  const Scenario s = small_scenario();
  const Grid ref = run_sequential(s);
  Grid bad = ref;
  bad.at(48, 48) = -1.0;
  EXPECT_FALSE(check_equal(ref, bad).ok);
}

TEST(Checker, DetectsSizeMismatch) {
  EXPECT_FALSE(check_equal(Grid(4, 4), Grid(4, 5)).ok);
}

TEST(Checker, ValidateCatchesFiniteValueOutsideRegions) {
  const Scenario s = small_scenario();
  Grid masking = run_sequential(s);
  // Find a cell outside all regions and poke a finite value into it.
  for (int y = 0; y < masking.y_size(); ++y) {
    for (int x = 0; x < masking.x_size(); ++x) {
      bool covered = false;
      for (const auto& t : s.threats)
        if (threat_region(s.terrain, t).contains(x, y)) covered = true;
      if (!covered) {
        masking.at(x, y) = 123.0;
        EXPECT_FALSE(validate_masking(s, masking).ok);
        return;
      }
    }
  }
  GTEST_SKIP() << "regions cover the whole terrain in this scenario";
}

TEST(Checker, ValidateCatchesMaskingBelowTerrain) {
  const Scenario s = small_scenario();
  Grid masking = run_sequential(s);
  const auto& t0 = s.threats[0];
  masking.at(t0.x, t0.y) = s.terrain.at(t0.x, t0.y) - 50.0;
  EXPECT_FALSE(validate_masking(s, masking).ok);
}

TEST(Profile, MatchesSequentialStructure) {
  const Scenario s = small_scenario();
  const TerrainProfile prof = profile(s);
  ASSERT_EQ(prof.threats.size(), s.threats.size());
  for (std::size_t i = 0; i < prof.threats.size(); ++i) {
    const auto& w = prof.threats[i];
    const Region r = threat_region(s.terrain, s.threats[i]);
    EXPECT_EQ(w.region.cell_count(), r.cell_count());
    EXPECT_EQ(w.kernel_cells, static_cast<std::uint64_t>(r.cell_count()));
    EXPECT_EQ(w.simple_cells, 3u * static_cast<std::uint64_t>(r.cell_count()));
    // Ring sizes cover the region minus the center cell.
    std::uint64_t ring_total = 0;
    for (auto rs : w.ring_sizes) ring_total += rs;
    EXPECT_EQ(ring_total, static_cast<std::uint64_t>(r.cell_count()) - 1);
  }
}

TEST(Profile, GeometryProfileMatchesFullProfile) {
  ScenarioParams params;
  params.x_size = 96;
  params.y_size = 96;
  params.num_threats = 12;
  const TerrainProfile a = profile(generate_geometry(9, params));
  const TerrainProfile b = profile(generate_scenario(9, params));
  ASSERT_EQ(a.threats.size(), b.threats.size());
  EXPECT_EQ(a.total_kernel_cells(), b.total_kernel_cells());
  EXPECT_EQ(a.total_simple_cells(), b.total_simple_cells());
}

}  // namespace
}  // namespace tc3i::c3i::terrain
