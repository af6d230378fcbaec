#include "c3i/suite.hpp"

#include <gtest/gtest.h>

#include <set>

namespace tc3i::c3i {
namespace {

TEST(Suite, ContainsBothPaperProblems) {
  const auto suite = make_suite(Scale::Small);
  ASSERT_EQ(suite.size(), 2u);
  std::set<std::string> names;
  for (const auto& p : suite) names.insert(p->name());
  EXPECT_TRUE(names.contains("threat-analysis"));
  EXPECT_TRUE(names.contains("terrain-masking"));
}

TEST(Suite, EveryProblemHasSequentialReferenceFirst) {
  for (const auto& p : make_suite(Scale::Small)) {
    const auto variants = p->variants();
    ASSERT_FALSE(variants.empty());
    EXPECT_EQ(variants.front(), "sequential");
    EXPECT_GE(variants.size(), 3u);
    EXPECT_EQ(p->num_scenarios(), 5);
    EXPECT_FALSE(p->description().empty());
  }
}

struct SuiteCase {
  std::size_t problem;
  std::string variant;
  int scenario;
  int threads;
};

class SuiteRunTest : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(SuiteRunTest, VariantVerifiesOnScenario) {
  const auto suite = make_suite(Scale::Small);
  const SuiteCase& c = GetParam();
  ASSERT_LT(c.problem, suite.size());
  const VariantOutcome outcome =
      suite[c.problem]->run(c.variant, c.scenario, c.threads);
  EXPECT_TRUE(outcome.correct) << outcome.detail;
  EXPECT_GT(outcome.work_units, 0u);
  EXPECT_GE(outcome.host_seconds, 0.0);
}

std::vector<SuiteCase> all_cases() {
  std::vector<SuiteCase> cases;
  const auto suite = make_suite(Scale::Small);
  for (std::size_t p = 0; p < suite.size(); ++p)
    for (const auto& v : suite[p]->variants())
      for (int s = 0; s < suite[p]->num_scenarios(); s += 2)
        cases.push_back(SuiteCase{p, v, s, 3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllProblems, SuiteRunTest, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      std::string name = "p";
      name += std::to_string(info.param.problem);
      name += "_";
      name += info.param.variant;
      name += "_s";
      name += std::to_string(info.param.scenario);
      return name;
    });

TEST(SuiteDeathTest, UnknownVariantAborts) {
  const auto suite = make_suite(Scale::Small);
  EXPECT_DEATH((void)suite[0]->run("nonexistent", 0, 1), "Suite");
}

TEST(SuiteDeathTest, ScenarioIndexOutOfRangeAborts) {
  const auto suite = make_suite(Scale::Small);
  EXPECT_DEATH((void)suite[0]->run("sequential", 7, 1), "Precondition");
}

}  // namespace
}  // namespace tc3i::c3i
