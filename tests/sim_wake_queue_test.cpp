#include "sim/wake_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace tc3i::sim {
namespace {

using Queue = WakeQueue<std::uint32_t>;
using Due = std::pair<std::uint64_t, std::uint32_t>;

/// Every entry for_each_due visits at `now`, sorted.
std::vector<Due> visit_due(const Queue& q, std::uint64_t now) {
  std::vector<Due> out;
  q.for_each_due(now, [&](std::uint64_t at, std::uint32_t p) {
    out.emplace_back(at, p);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Pops every entry due at `now`, with the cycle each was due at, and
/// checks that for_each_due visited exactly those.
std::vector<Due> drain(Queue& q, std::uint64_t now) {
  const std::vector<Due> visited = visit_due(q, now);
  std::vector<Due> out;
  std::uint32_t p = 0;
  for (std::uint64_t at = q.next_due(); q.pop_due(now, p); at = q.next_due())
    out.emplace_back(at, p);
  EXPECT_EQ(out, visited);  // pops come out sorted
  EXPECT_TRUE(visit_due(q, now).empty());
  return out;
}

TEST(WakeQueue, StartsEmpty) {
  Queue q(8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_due(), Queue::kNone);
  EXPECT_TRUE(drain(q, 100).empty());
}

TEST(WakeQueue, DrainsInCyclePayloadOrder) {
  Queue q(8);
  q.push(30, 2);
  q.push_in_order(0, 10, 7);
  q.push_in_order(1, 20, 5);
  q.push_in_order(0, 30, 1);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_due(), 10u);
  const auto due = drain(q, 30);
  const std::vector<Due> want = {{10, 7}, {20, 5}, {30, 1}, {30, 2}};
  EXPECT_EQ(due, want);
  EXPECT_TRUE(q.empty());
}

TEST(WakeQueue, SameCycleLanePushesDrainByPayload) {
  Queue q(8);
  q.push_in_order(0, 5, 9);
  q.push_in_order(0, 5, 3);
  q.push_in_order(0, 5, 6);
  q.push_in_order(0, 7, 1);
  q.push_in_order(1, 5, 4);
  const std::vector<Due> want = {{5, 3}, {5, 4}, {5, 6}, {5, 9}, {7, 1}};
  EXPECT_EQ(drain(q, 7), want);
}

TEST(WakeQueue, PartialDrainLeavesFutureEntries) {
  Queue q(8);
  q.push_in_order(0, 5, 1);
  q.push(6, 2);
  q.push_in_order(1, 8, 3);
  EXPECT_EQ(drain(q, 5), (std::vector<Due>{{5, 1}}));
  EXPECT_EQ(q.next_due(), 6u);
  EXPECT_EQ(drain(q, 6), (std::vector<Due>{{6, 2}}));
  EXPECT_EQ(q.next_due(), 8u);
  EXPECT_EQ(drain(q, 7), std::vector<Due>{});
  EXPECT_EQ(drain(q, 8), (std::vector<Due>{{8, 3}}));
  EXPECT_TRUE(q.empty());
}

TEST(WakeQueue, LatePushBecomesImmediatelyDue) {
  Queue q(8);
  drain(q, 99);
  q.push(60, 2);              // before the last drain: due at the next one
  q.push_in_order(1, 40, 3);  // a lane may start behind the last drain too
  EXPECT_EQ(q.next_due(), 40u);
  const std::vector<Due> want = {{40, 3}, {60, 2}};
  EXPECT_EQ(drain(q, 100), want);
  EXPECT_TRUE(q.empty());
}

TEST(WakeQueue, LateEntriesOrderBeforeLaneEntries) {
  Queue q(8);
  drain(q, 99);
  q.push_in_order(0, 100, 4);  // due at the drain cycle
  q.push(98, 9);  // late: earlier cycle must come out first despite payload
  const std::vector<Due> want = {{98, 9}, {100, 4}};
  EXPECT_EQ(drain(q, 100), want);
}

TEST(WakeQueue, WrapsAroundManyTimes) {
  Queue q(3);  // 4-entry rings: every lane wraps every few pushes
  std::uint64_t at = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    at += 37;
    q.push_in_order(i % 2, at, i);
    q.push_in_order(i % 2, at + 1, i + 1);
    const std::vector<Due> want = {{at, i}, {at + 1, i + 1}};
    ASSERT_EQ(drain(q, at + 1), want) << "push " << i;
    ASSERT_TRUE(q.empty());
  }
}

// The queue must reproduce a (cycle, payload) min-heap's pop order exactly:
// the MTA machine's arbitration depends on it. Pushes follow the machine's
// pattern: lane 0 a fixed offset after the current cycle, lane 1 a
// nondecreasing completion cycle, the heap anything, late entries included.
// Small rings make every lane wrap many times.
TEST(WakeQueue, MatchesReferenceHeapOnRandomSchedules) {
  struct Greater {
    bool operator()(const Due& a, const Due& b) const { return a > b; }
  };
  SplitMix64 rng(0xfeedu);
  for (int round = 0; round < 20; ++round) {
    Queue q(256);
    std::priority_queue<Due, std::vector<Due>, Greater> heap;
    const std::uint64_t spacing = 1 + rng.next() % 30;
    const std::uint64_t latency = 1 + rng.next() % 150;
    std::uint64_t now = 0;
    std::uint64_t start = 0;
    for (int step = 0; step < 2000; ++step) {
      const int pushes = static_cast<int>(rng.next() % 4);
      for (int i = 0; i < pushes; ++i) {
        const auto payload = static_cast<std::uint32_t>(rng.next() % 16);
        std::uint64_t at = 0;
        switch (rng.next() % 3) {
          case 0:
            at = now + spacing;
            q.push_in_order(0, at, payload);
            break;
          case 1:
            start = std::max(start + rng.next() % 3, now + 1);
            at = start + latency;
            q.push_in_order(1, at, payload);
            break;
          default:
            at = now + rng.next() % 90;
            if (rng.next() % 8 == 0) at -= std::min(at, rng.next() % 5);
            q.push(at, payload);
            break;
        }
        heap.emplace(at, payload);
      }
      // Advance like the machine loop: either one cycle or jump to the
      // next due cycle.
      if (rng.next() % 2 == 0) {
        ++now;
      } else if (!heap.empty()) {
        now = std::max(now + 1, heap.top().first);
      }
      std::vector<Due> expect;
      while (!heap.empty() && heap.top().first <= now) {
        expect.push_back(heap.top());
        heap.pop();
      }
      ASSERT_EQ(drain(q, now), expect) << "round " << round << " step " << step;
      ASSERT_EQ(q.empty(), heap.empty());
      if (!heap.empty()) {
        ASSERT_EQ(q.next_due(), heap.top().first);
      }
    }
  }
}

// One pop at a time, as each MTA processor takes one stream per cycle, with
// pushes between the pops: every pop must return the reference heap's least
// due entry, including entries pushed for the current cycle after earlier
// pops of that cycle, and for_each_due must visit the reference's due
// entries.
TEST(WakeQueue, PopsMatchReferenceHeapWithCurrentCyclePushes) {
  struct Greater {
    bool operator()(const Due& a, const Due& b) const { return a > b; }
  };
  SplitMix64 rng(0xc0ffeeu);
  for (int round = 0; round < 20; ++round) {
    Queue q(64);
    std::priority_queue<Due, std::vector<Due>, Greater> heap;
    const std::uint64_t spacing = 1 + rng.next() % 30;
    const std::uint64_t latency = 1 + rng.next() % 150;
    std::uint64_t now = 0;
    std::uint64_t start = 0;
    for (int step = 0; step < 4000; ++step) {
      if (heap.size() < 48) {
        const auto payload = static_cast<std::uint32_t>(rng.next() % 16);
        std::uint64_t at = 0;
        switch (rng.next() % 4) {
          case 0:
            at = now + spacing;
            q.push_in_order(0, at, payload);
            break;
          case 1:
            start = std::max(start + rng.next() % 3, now + 1);
            at = start + latency;
            q.push_in_order(1, at, payload);
            break;
          case 2:
            at = now;  // due in the cycle that pushes it
            q.push(at, payload);
            break;
          default:
            at = now + rng.next() % 40;
            q.push(at, payload);
            break;
        }
        heap.emplace(at, payload);
      }
      std::vector<Due> due;
      for (auto copy = heap; !copy.empty() && copy.top().first <= now;
           copy.pop())
        due.push_back(copy.top());
      SCOPED_TRACE("round " + std::to_string(round) + " step " +
                   std::to_string(step));
      ASSERT_EQ(visit_due(q, now), due);
      std::uint32_t got = 0;
      const bool popped = q.pop_due(now, got);
      ASSERT_EQ(popped, !due.empty());
      if (popped) {
        ASSERT_EQ(got, heap.top().second);
        heap.pop();
      }
      if (rng.next() % 3 == 0) ++now;
      if (heap.empty()) now += rng.next() % 5;
    }
  }
}

TEST(WakeQueueDeathTest, OutOfOrderLanePushAborts) {
  Queue q(8);
  q.push_in_order(0, 10, 1);
  q.push_in_order(1, 3, 1);  // lanes order independently
  EXPECT_DEATH(q.push_in_order(0, 9, 2), "Invariant");
}

TEST(WakeQueueDeathTest, LanePushPastCapacityAborts) {
  Queue q(3);  // a 4-entry ring
  for (std::uint32_t i = 0; i < 4; ++i) q.push_in_order(0, 10 + i, i);
  EXPECT_DEATH(q.push_in_order(0, 20, 9), "Invariant");
}

}  // namespace
}  // namespace tc3i::sim
