// Host resource sampling: usage samples and deltas behave sanely
// (monotone wall clock, high-water RSS). The sweep-scheduler spans are
// part of the live bus and are tested in obs_live_test.cpp.
#include "obs/hostres.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace tc3i::obs {
namespace {

TEST(HostRes, SampleAndDeltaAreSane) {
  const HostResUsage a = sample_host_usage();
  // Touch some memory and burn a little CPU between samples.
  std::vector<double> sink(1 << 16);
  for (std::size_t i = 0; i < sink.size(); ++i)
    sink[i] = static_cast<double>(i) * 1.5;
  volatile double keep = sink.back();
  (void)keep;
  const HostResUsage b = sample_host_usage();

  EXPECT_GE(b.wall_seconds, a.wall_seconds);
  EXPECT_GE(b.user_cpu_seconds, a.user_cpu_seconds);
  EXPECT_GT(b.max_rss_kb, 0u);
  EXPECT_GE(b.max_rss_kb, a.max_rss_kb);  // high-water mark never shrinks

  const HostResUsage d = host_usage_delta(a, b);
  EXPECT_GE(d.wall_seconds, 0.0);
  EXPECT_LT(d.wall_seconds, 60.0);  // a delta, not an absolute timestamp
  EXPECT_EQ(d.max_rss_kb, b.max_rss_kb);
}

}  // namespace
}  // namespace tc3i::obs
