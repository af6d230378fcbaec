#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace tc3i::obs {
namespace {

TEST(Counter, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsDoNotLoseIncrements) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(CounterRegistry, GetOrCreateReturnsStableAddresses) {
  CounterRegistry reg;
  Counter& a = reg.counter("mta.issue.total");
  Counter& b = reg.counter("mta.issue.total");
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(reg.contains("mta.issue.total"));
  EXPECT_FALSE(reg.contains("mta.issue"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(CounterRegistry, DistinctNamesAreDistinctMetrics) {
  CounterRegistry reg;
  reg.counter("a.x").add(1);
  reg.counter("a.y").add(2);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.counter("a.x").value(), 1u);
  EXPECT_EQ(reg.counter("a.y").value(), 2u);
}

TEST(CounterRegistryDeathTest, MalformedNamesAreRejected) {
  CounterRegistry reg;
  EXPECT_DEATH((void)reg.counter(""), "name");
  EXPECT_DEATH((void)reg.counter("Upper.case"), "name");
  EXPECT_DEATH((void)reg.counter(".leading"), "name");
  EXPECT_DEATH((void)reg.counter("trailing."), "name");
  EXPECT_DEATH((void)reg.counter("dou..ble"), "name");
  EXPECT_DEATH((void)reg.counter("spa ce"), "name");
}

TEST(CounterRegistry, ResetValuesKeepsEntriesAndReferences) {
  CounterRegistry reg;
  Counter& c = reg.counter("keep.me");
  Counter& d = reg.counter("keep.too");
  c.add(5);
  d.add(2);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(d.value(), 0u);
  // References stay valid: writing after reset works.
  c.add(1);
  EXPECT_EQ(reg.counter("keep.me").value(), 1u);
}

TEST(CounterRegistry, SnapshotIsNameSortedAndTyped) {
  CounterRegistry reg;
  reg.counter("b.count").add(3);
  (void)reg.counter("c.zero");
  reg.counter("a.count").add(1);
  // Every entry is a counter: name-sorted, zero-valued ones included.
  const std::vector<MetricSnapshot> expected = {
      {"a.count", 1}, {"b.count", 3}, {"c.zero", 0}};
  EXPECT_EQ(reg.snapshot(), expected);
}

TEST(DefaultRegistry, IsProcessGlobalSingleton) {
  CounterRegistry& a = default_registry();
  CounterRegistry& b = default_registry();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace tc3i::obs
