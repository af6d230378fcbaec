#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/rng.hpp"

namespace tc3i::sim {
namespace {

/// water_fill into a fresh buffer.
std::vector<double> rates_for(double capacity, std::span<const double> caps) {
  std::vector<double> rates;
  water_fill(capacity, caps, rates);
  return rates;
}

TEST(WaterFill, UnconstrainedFlowsGetTheirCaps) {
  const std::vector<double> caps = {1.0, 2.0, 3.0};
  const auto rates = rates_for(100.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(rates[2], 3.0);
}

TEST(WaterFill, SaturatedSplitsEvenly) {
  const std::vector<double> caps = {10.0, 10.0, 10.0, 10.0};
  const auto rates = rates_for(8.0, caps);
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(WaterFill, SmallCapGrantedThenRemainderSplit) {
  // cap 1 flow takes 1; remaining 9 split between the two big flows.
  const std::vector<double> caps = {1.0, 100.0, 100.0};
  const auto rates = rates_for(10.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.5);
  EXPECT_DOUBLE_EQ(rates[2], 4.5);
}

TEST(WaterFill, EmptyFlowsReturnsEmpty) {
  EXPECT_TRUE(rates_for(10.0, std::vector<double>{}).empty());
}

TEST(WaterFill, ZeroCapacityGivesZeroRates) {
  const std::vector<double> caps = {1.0, 2.0};
  for (double r : rates_for(0.0, caps)) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(WaterFill, ZeroCapFlowGetsZero) {
  const std::vector<double> caps = {0.0, 5.0};
  const auto rates = rates_for(4.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
}

TEST(WaterFill, ReusedBufferGivesFreshRates) {
  // The SMP engine hands the same buffer to every call; what a previous,
  // larger call left in it must not leak into the next result.
  std::vector<double> rates;
  water_fill(3.0, std::vector<double>{5.0, 0.5, 5.0, 5.0}, rates);
  water_fill(10.0, std::vector<double>{1.0, 100.0, 100.0}, rates);
  EXPECT_EQ(rates, rates_for(10.0, std::vector<double>{1.0, 100.0, 100.0}));
  water_fill(10.0, std::vector<double>{}, rates);
  EXPECT_TRUE(rates.empty());
}

class WaterFillPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillPropertyTest, InvariantsHoldOnRandomInstances) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    std::vector<double> caps;
    for (int i = 0; i < n; ++i) caps.push_back(rng.uniform(0.0, 10.0));
    const double capacity = rng.uniform(0.0, 40.0);
    const auto rates = rates_for(capacity, caps);

    ASSERT_EQ(rates.size(), caps.size());
    double total = 0.0;
    double cap_total = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_GE(rates[i], 0.0);
      EXPECT_LE(rates[i], caps[i] + 1e-9);
      total += rates[i];
      cap_total += caps[i];
    }
    // Work-conserving: all of min(capacity, sum of caps) is allocated.
    EXPECT_NEAR(total, std::min(capacity, cap_total), 1e-9);

    // Max-min fairness: a flow below its cap must be at least as large as
    // every other flow (nobody is starved while another flow exceeds it).
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (rates[i] < caps[i] - 1e-9) {
        for (std::size_t j = 0; j < rates.size(); ++j)
          EXPECT_LE(rates[j], rates[i] + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterFillPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(WaterFillUniform, MatchesGeneralSolver) {
  for (const int n : {1, 2, 5, 17}) {
    for (const double cap : {0.5, 2.0, 10.0}) {
      const double capacity = 6.0;
      const double uniform = water_fill_uniform(capacity, n, cap);
      const std::vector<double> caps(static_cast<std::size_t>(n), cap);
      const auto rates = rates_for(capacity, caps);
      for (double r : rates) EXPECT_NEAR(r, uniform, 1e-12);
    }
  }
}

}  // namespace
}  // namespace tc3i::sim
