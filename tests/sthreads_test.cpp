// Host threading library: real-concurrency correctness tests.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "sthreads/barrier.hpp"
#include "sthreads/parallel_for.hpp"
#include "sthreads/sync_var.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sthreads {
namespace {

TEST(Thread, JoinsOnDestruction) {
  std::atomic<int> ran{0};
  { Thread t([&] { ran = 1; }); }
  EXPECT_EQ(ran.load(), 1);
}

TEST(Thread, MoveTransfersOwnership) {
  std::atomic<int> ran{0};
  Thread a([&] { ran = 1; });
  Thread b = std::move(a);
  EXPECT_FALSE(a.joinable());  // NOLINT(bugprone-use-after-move)
  b.join();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ForkJoin, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(16);
  fork_join(16, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ForkJoin, ZeroThreadsIsNoOp) {
  fork_join(0, [](int) { FAIL() << "must not run"; });
}

TEST(SpinLock, ProvidesMutualExclusion) {
  SpinLock lock;
  long counter = 0;
  fork_join(8, [&](int) {
    for (int i = 0; i < 10'000; ++i) {
      lock.lock();
      ++counter;
      lock.unlock();
    }
  });
  EXPECT_EQ(counter, 80'000);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

class BarrierTest : public ::testing::TestWithParam<int> {};

TEST_P(BarrierTest, NoThreadPassesBeforeAllArrive) {
  const int parties = GetParam();
  Barrier barrier(parties);
  std::atomic<int> arrived{0};
  std::atomic<bool> violation{false};
  fork_join(parties, [&](int) {
    for (int round = 0; round < 50; ++round) {
      arrived.fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier, all `parties` arrivals of this round happened.
      if (arrived.load() < parties * (round + 1)) violation = true;
      barrier.arrive_and_wait();  // second barrier separates rounds
    }
  });
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(arrived.load(), parties * 50);
}

TEST_P(BarrierTest, ExactlyOneSerialThreadPerGeneration) {
  const int parties = GetParam();
  Barrier barrier(parties);
  std::atomic<int> serial_count{0};
  fork_join(parties, [&](int) {
    for (int round = 0; round < 20; ++round)
      if (barrier.arrive_and_wait()) serial_count.fetch_add(1);
  });
  EXPECT_EQ(serial_count.load(), 20);
}

INSTANTIATE_TEST_SUITE_P(Parties, BarrierTest, ::testing::Values(1, 2, 3, 8));

TEST(SyncVar, PutTakeTransfersValue) {
  SyncVar<int> v;
  EXPECT_FALSE(v.is_full());
  v.put(42);
  EXPECT_TRUE(v.is_full());
  EXPECT_EQ(v.take(), 42);
  EXPECT_FALSE(v.is_full());
}

TEST(SyncVar, ConstructFullInitializes) {
  SyncVar<std::string> v("hello");
  EXPECT_TRUE(v.is_full());
  EXPECT_EQ(v.read(), "hello");  // read does not empty
  EXPECT_TRUE(v.is_full());
  EXPECT_EQ(v.take(), "hello");
}

TEST(SyncVar, TryOpsRespectState) {
  SyncVar<int> v;
  EXPECT_FALSE(v.try_take().has_value());
  EXPECT_TRUE(v.try_put(1));
  EXPECT_FALSE(v.try_put(2));  // already full
  EXPECT_EQ(v.try_take().value(), 1);
}

TEST(SyncVar, ProducerConsumerStream) {
  SyncVar<int> v;
  constexpr int kN = 10'000;
  long long sum = 0;
  Thread consumer([&] {
    for (int i = 0; i < kN; ++i) sum += v.take();
  });
  for (int i = 0; i < kN; ++i) v.put(i);
  consumer.join();
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(SyncVar, UpdateIsAtomicReadModifyWrite) {
  SyncVar<long> v(0);
  fork_join(8, [&](int) {
    for (int i = 0; i < 5000; ++i) v.update([](long& x) { ++x; });
  });
  EXPECT_EQ(v.take(), 40'000);
}

TEST(SyncVar, UpdateReturnsPreviousValue) {
  SyncVar<int> v(10);
  EXPECT_EQ(v.update([](int& x) { x += 5; }), 10);
  EXPECT_EQ(v.read(), 15);
}

TEST(SyncCounter, ConcurrentFetchAddClaimsDisjointRanges) {
  SyncCounter counter(0);
  constexpr int kThreads = 8;
  constexpr int kClaims = 2000;
  std::vector<std::vector<long>> claims(kThreads);
  fork_join(kThreads, [&](int t) {
    for (int i = 0; i < kClaims; ++i)
      claims[static_cast<std::size_t>(t)].push_back(counter.fetch_add(3));
  });
  EXPECT_EQ(counter.value(), kThreads * kClaims * 3);
  std::set<long> all;
  for (const auto& c : claims)
    for (long v : c) {
      EXPECT_EQ(v % 3, 0);
      EXPECT_TRUE(all.insert(v).second) << "duplicate claim " << v;
    }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kClaims);
}

TEST(ParallelForChunked, CoversRangeExactlyOnce) {
  constexpr std::size_t kN = 1003;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for_chunked(kN, 7, 4, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) touched[i]++;
  });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForChunked, ChunkBoundsMatchProgram2Formula) {
  std::vector<std::pair<std::size_t, std::size_t>> bounds(5);
  parallel_for_chunked(17, 5, 1, [&](std::size_t b, std::size_t e, int c) {
    bounds[static_cast<std::size_t>(c)] = {b, e};
  });
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(bounds[c].first, c * 17 / 5);
    EXPECT_EQ(bounds[c].second, (c + 1) * 17 / 5);
  }
}

TEST(ParallelForChunked, MoreChunksThanThreads) {
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for_chunked(kN, 16, 3, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) touched[i]++;
  });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForDynamic, CoversRangeExactlyOnce) {
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for_dynamic(kN, 6, [&](std::size_t i, int) { touched[i]++; });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForDynamic, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_dynamic(10, 1, [&](std::size_t i, int) { order.push_back(i); });
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelReduce, SumsExactly) {
  const long sum = parallel_reduce<long>(
      10'001, 4, 0L, [](std::size_t i) { return static_cast<long>(i); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 10'001L * 10'000L / 2L);
}

TEST(ParallelReduce, DeterministicForNonCommutativeCombine) {
  // String concatenation is associative but not commutative: chunk
  // ordering must make the result identical to the serial one.
  auto concat = [](std::size_t threads) {
    return parallel_reduce<std::string>(
        26, static_cast<int>(threads), std::string{},
        [](std::size_t i) { return std::string(1, static_cast<char>('a' + i)); },
        [](const std::string& a, const std::string& b) { return a + b; });
  };
  EXPECT_EQ(concat(1), "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(concat(5), "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(concat(8), concat(3));
}

TEST(ParallelReduce, EmptyRangeGivesIdentity) {
  EXPECT_EQ(parallel_reduce<int>(
                0, 4, 0, [](std::size_t) { return 100; },
                [](int a, int b) { return a + b; }),
            0);
}

TEST(ParallelReduce, MinReduction) {
  const int min_val = parallel_reduce<int>(
      1000, 6, 1 << 30,
      [](std::size_t i) {
        return static_cast<int>((i * 7919 + 13) % 1000) - 500;
      },
      [](int a, int b) { return std::min(a, b); });
  int expected = 1 << 30;
  for (std::size_t i = 0; i < 1000; ++i)
    expected = std::min(expected,
                        static_cast<int>((i * 7919 + 13) % 1000) - 500);
  EXPECT_EQ(min_val, expected);
}

}  // namespace
}  // namespace tc3i::sthreads
