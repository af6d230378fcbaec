// The testbed profile cache (platforms/testbed_cache.hpp) and the parallel
// kernel profiling that fills it. A binary of its own, because the cache
// cases set TC3I_TESTBED_CACHE, each to a fresh, empty directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "platforms/experiment.hpp"
#include "platforms/testbed_cache.hpp"

namespace tc3i::platforms {
namespace {

namespace fs = std::filesystem;
namespace threat = c3i::threat;
namespace terrain = c3i::terrain;

// The cache file a cold build writes, recorded from the serial profiler:
// its name carries the scenario fingerprint, and its size and FNV-1a-64
// pin every byte, so parallel profiling must reproduce it exactly.
constexpr const char* kCacheFile = "tc3i_testbed_7616e70d65de2745.bin";
constexpr std::uintmax_t kCacheBytes = 2536080;
constexpr std::uint64_t kCacheFnv1a = 0xdf76c4892e39c626ull;

std::uint64_t fnv1a64(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t counter(const char* name) {
  return obs::default_registry().counter(name).value();
}

void expect_equal(const threat::PairProfile& a, const threat::PairProfile& b) {
  EXPECT_EQ(a.num_threats, b.num_threats);
  EXPECT_EQ(a.num_weapons, b.num_weapons);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.intervals_found, b.intervals_found);
}

void expect_equal(const terrain::TerrainProfile& a,
                  const terrain::TerrainProfile& b) {
  EXPECT_EQ(a.x_size, b.x_size);
  EXPECT_EQ(a.y_size, b.y_size);
  ASSERT_EQ(a.threats.size(), b.threats.size());
  for (std::size_t i = 0; i < a.threats.size(); ++i) {
    SCOPED_TRACE("threat " + std::to_string(i));
    const terrain::ThreatWork& x = a.threats[i];
    const terrain::ThreatWork& y = b.threats[i];
    EXPECT_EQ(x.region.x0, y.region.x0);
    EXPECT_EQ(x.region.y0, y.region.y0);
    EXPECT_EQ(x.region.x1, y.region.x1);
    EXPECT_EQ(x.region.y1, y.region.y1);
    EXPECT_EQ(x.kernel_cells, y.kernel_cells);
    EXPECT_EQ(x.simple_cells, y.simple_cells);
    EXPECT_EQ(x.ring_sizes, y.ring_sizes);
  }
}

class TestbedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tc3i_testbed_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ASSERT_EQ(::setenv("TC3I_TESTBED_CACHE", dir_.c_str(), /*overwrite=*/1),
              0);
  }
  void TearDown() override {
    ::unsetenv("TC3I_TESTBED_CACHE");
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(TestbedCacheTest, ColdBuildWritesTheRecordedFile) {
  const std::uint64_t misses = counter("testbed.cache.miss");
  (void)load_or_build_testbed();
  EXPECT_EQ(counter("testbed.cache.miss"), misses + 1);

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_))
    names.push_back(entry.path().filename().string());
  ASSERT_EQ(names, std::vector<std::string>{kCacheFile});

  std::ifstream in(dir_ / kCacheFile, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), kCacheBytes);
  EXPECT_EQ(fnv1a64(bytes), kCacheFnv1a);
}

TEST_F(TestbedCacheTest, SecondCallHitsAndReturnsAnEqualTestbed) {
  const Testbed cold = load_or_build_testbed();
  const std::uint64_t hits = counter("testbed.cache.hit");
  const Testbed warm = load_or_build_testbed();
  EXPECT_EQ(counter("testbed.cache.hit"), hits + 1);

  ASSERT_EQ(cold.threat_profiles.size(), warm.threat_profiles.size());
  for (std::size_t i = 0; i < cold.threat_profiles.size(); ++i)
    expect_equal(cold.threat_profiles[i], warm.threat_profiles[i]);
  ASSERT_EQ(cold.terrain_profiles.size(), warm.terrain_profiles.size());
  for (std::size_t i = 0; i < cold.terrain_profiles.size(); ++i)
    expect_equal(cold.terrain_profiles[i], warm.terrain_profiles[i]);
  expect_equal(cold.threat_profile_scaled, warm.threat_profile_scaled);
  expect_equal(cold.terrain_profile_scaled, warm.terrain_profile_scaled);
  // Everything else is assembled from the profiles.
  EXPECT_EQ(cold.threat_mta_factor, warm.threat_mta_factor);
  EXPECT_EQ(cold.terrain_mta_factor, warm.terrain_mta_factor);
  EXPECT_EQ(cold.totals.threat_ops, warm.totals.threat_ops);
  EXPECT_EQ(cold.totals.threat_bytes, warm.totals.threat_bytes);
  EXPECT_EQ(cold.totals.terrain_ops, warm.totals.terrain_ops);
  EXPECT_EQ(cold.totals.terrain_bytes, warm.totals.terrain_bytes);
}

TEST(TestbedProfiling, AllCoresEqualPerScenarioProfiles) {
  const TestbedScenarios scenarios = testbed_scenarios();
  const TestbedProfiles p = profile_testbed_kernels(scenarios);
  ASSERT_EQ(p.threat.size(), scenarios.threat.size());
  for (std::size_t i = 0; i < p.threat.size(); ++i) {
    SCOPED_TRACE("threat scenario " + std::to_string(i));
    expect_equal(p.threat[i], threat::profile(scenarios.threat[i]));
  }
  ASSERT_EQ(p.terrain.size(), scenarios.terrain.size());
  for (std::size_t i = 0; i < p.terrain.size(); ++i) {
    SCOPED_TRACE("terrain geometry " + std::to_string(i));
    expect_equal(p.terrain[i], terrain::profile(scenarios.terrain[i]));
  }
  expect_equal(p.threat_scaled, threat::profile(scenarios.threat_scaled));
  expect_equal(p.terrain_scaled, terrain::profile(scenarios.terrain_scaled));
}

TEST(TestbedProfiling, RowRangesEqualTheWholeProfile) {
  threat::ScenarioParams params;
  params.num_threats = 40;
  params.num_weapons = 5;
  const threat::Scenario scenario = threat::generate_scenario(7, params);
  const threat::PairProfile whole = threat::profile(scenario);
  ASSERT_GT(whole.total_steps(), 0u);

  // Uneven ranges, an empty one among them, filled out of order.
  threat::PairProfile split = threat::sized_profile(scenario);
  threat::profile_rows(scenario, 17, 40, split);
  threat::profile_rows(scenario, 3, 3, split);
  threat::profile_rows(scenario, 0, 1, split);
  threat::profile_rows(scenario, 1, 17, split);
  expect_equal(split, whole);
}

}  // namespace
}  // namespace tc3i::platforms
