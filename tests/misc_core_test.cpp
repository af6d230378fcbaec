// Small remaining units: contract macros, scenario seed derivation, and
// the experiment layer's work accounting.
#include <gtest/gtest.h>

#include <string>

#include "c3i/scenario.hpp"
#include "core/contracts.hpp"
#include "platforms/experiment.hpp"

namespace tc3i {
namespace {

TEST(ContractsDeathTest, MacrosAbortWithKind) {
  EXPECT_DEATH(TC3I_EXPECTS(1 == 2), "Precondition");
  EXPECT_DEATH(TC3I_ENSURES(1 == 2), "Postcondition");
  EXPECT_DEATH(TC3I_ASSERT(1 == 2), "Invariant");
}

TEST(Contracts, PassingConditionsAreSilent) {
  TC3I_EXPECTS(true);
  TC3I_ENSURES(2 + 2 == 4);
  TC3I_ASSERT(!false);
}

TEST(StandardScenarios, FiveStableDistinctSeedsPerBenchmark) {
  const auto a = c3i::standard_scenarios("threat-analysis");
  const auto b = c3i::standard_scenarios("threat-analysis");
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);  // stable across calls
    for (std::size_t j = i + 1; j < 5; ++j) EXPECT_NE(a[i].seed, a[j].seed);
    EXPECT_NE(a[i].name.find("scenario-" + std::to_string(i + 1)),
              std::string::npos);
  }
}

TEST(StandardScenarios, DifferentBenchmarksGetDifferentSeeds) {
  const auto a = c3i::standard_scenarios("threat-analysis");
  const auto b = c3i::standard_scenarios("terrain-masking");
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NE(a[i].seed, b[i].seed);
}

TEST(ExperimentAccounting, ThreatInstructionFormula) {
  c3i::threat::PairProfile profile;
  profile.num_threats = 2;
  profile.num_weapons = 1;
  profile.steps = {10, 20};
  profile.intervals_found = {1, 0};
  c3i::ThreatCosts costs;
  costs.alu_per_step = 4;
  costs.mem_per_step = 1;
  costs.alu_per_interval = 7;
  costs.mem_per_interval = 3;
  EXPECT_DOUBLE_EQ(platforms::threat_total_instructions(profile, costs),
                   30.0 * 5.0 + 1.0 * 10.0);
}

TEST(ExperimentAccounting, TerrainInstructionFormulaIncludesInit) {
  c3i::terrain::TerrainProfile profile;
  profile.x_size = 10;
  profile.y_size = 10;
  c3i::terrain::ThreatWork w;
  w.kernel_cells = 50;
  w.simple_cells = 150;
  profile.threats.push_back(w);
  c3i::TerrainCosts costs;
  costs.alu_per_kernel_cell = 6;
  costs.mem_per_kernel_cell = 4;
  costs.alu_per_simple_cell = 2;
  costs.mem_per_simple_cell = 2;
  // kernel 50*10 + (simple 150 + init 100)*4
  EXPECT_DOUBLE_EQ(platforms::terrain_total_instructions(profile, costs),
                   500.0 + 1000.0);
}

}  // namespace
}  // namespace tc3i
