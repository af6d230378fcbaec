#include "mta/sync_memory.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

namespace tc3i::mta {
namespace {

/// This process's resident set in bytes (second field of /proc/self/statm).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(SyncMemory, WordsStartEmptyAndZero) {
  SyncMemory mem(16);
  EXPECT_EQ(mem.size(), 16u);
  for (Address a = 0; a < 16; ++a) {
    EXPECT_FALSE(mem.is_full(a));
    EXPECT_EQ(mem.load(a), 0);
  }
}

TEST(SyncMemory, PlainAccessIgnoresBits) {
  SyncMemory mem(4);
  mem.store(1, 42);
  EXPECT_EQ(mem.load(1), 42);
  EXPECT_FALSE(mem.is_full(1));  // plain store does not set FULL
}

TEST(SyncMemory, StoreFullThenSyncLoadSucceeds) {
  SyncMemory mem(4);
  mem.store_full(2, 7);
  EXPECT_TRUE(mem.is_full(2));
  const SyncAttempt a = mem.try_sync_load(2, /*stream=*/0);
  EXPECT_TRUE(a.succeeded);
  EXPECT_EQ(a.value, 7);
  EXPECT_FALSE(mem.is_full(2));  // consumed
}

TEST(SyncMemory, SyncLoadOnEmptyBlocks) {
  SyncMemory mem(4);
  const SyncAttempt a = mem.try_sync_load(0, 5);
  EXPECT_FALSE(a.succeeded);
  EXPECT_EQ(mem.blocked_streams(), 1u);
}

TEST(SyncMemory, SyncStoreOnFullBlocks) {
  SyncMemory mem(4);
  mem.store_full(0, 1);
  const SyncAttempt a = mem.try_sync_store(0, 2, 5);
  EXPECT_FALSE(a.succeeded);
  EXPECT_EQ(mem.blocked_streams(), 1u);
}

TEST(SyncMemory, StoreHandsOffToQueuedLoad) {
  SyncMemory mem(4);
  ASSERT_FALSE(mem.try_sync_load(0, 7).succeeded);
  ASSERT_TRUE(mem.try_sync_store(0, 99, 8).succeeded);
  const auto handoffs = mem.drain_handoffs();
  ASSERT_EQ(handoffs.size(), 1u);
  EXPECT_EQ(handoffs[0].stream, 7);
  EXPECT_EQ(handoffs[0].value, 99);
  EXPECT_TRUE(handoffs[0].was_load);
  EXPECT_FALSE(mem.is_full(0));  // the queued load consumed the value
  EXPECT_EQ(mem.blocked_streams(), 0u);
}

TEST(SyncMemory, LoadHandsOffToQueuedStore) {
  SyncMemory mem(4);
  mem.store_full(0, 1);
  ASSERT_FALSE(mem.try_sync_store(0, 2, 9).succeeded);
  const SyncAttempt load = mem.try_sync_load(0, 10);
  ASSERT_TRUE(load.succeeded);
  EXPECT_EQ(load.value, 1);
  const auto handoffs = mem.drain_handoffs();
  ASSERT_EQ(handoffs.size(), 1u);
  EXPECT_EQ(handoffs[0].stream, 9);
  EXPECT_FALSE(handoffs[0].was_load);
  EXPECT_TRUE(mem.is_full(0));  // the queued store refilled the word
  EXPECT_EQ(mem.load(0), 2);
}

TEST(SyncMemory, CascadeAlternatesLoadsAndStores) {
  SyncMemory mem(4);
  // Queue: two loads waiting, then two stores arrive back to back.
  ASSERT_FALSE(mem.try_sync_load(0, 1).succeeded);
  ASSERT_FALSE(mem.try_sync_load(0, 2).succeeded);
  ASSERT_TRUE(mem.try_sync_store(0, 10, 3).succeeded);
  // Store fills, load 1 drains; the cell is EMPTY again.
  auto h = mem.drain_handoffs();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].stream, 1);
  ASSERT_TRUE(mem.try_sync_store(0, 20, 4).succeeded);
  h = mem.drain_handoffs();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].stream, 2);
  EXPECT_EQ(h[0].value, 20);
  EXPECT_EQ(mem.blocked_streams(), 0u);
}

TEST(SyncMemory, QueuedStoreChainsIntoQueuedLoad) {
  SyncMemory mem(4);
  mem.store_full(0, 1);
  ASSERT_FALSE(mem.try_sync_store(0, 2, 20).succeeded);  // store queued
  ASSERT_FALSE(mem.try_sync_store(0, 3, 21).succeeded);  // second store queued
  // A load consumes 1; queued store 20 fills with 2; nothing else drains.
  const SyncAttempt load = mem.try_sync_load(0, 22);
  ASSERT_TRUE(load.succeeded);
  EXPECT_EQ(load.value, 1);
  auto h = mem.drain_handoffs();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].stream, 20);
  EXPECT_TRUE(mem.is_full(0));
  EXPECT_EQ(mem.load(0), 2);
  EXPECT_EQ(mem.blocked_streams(), 1u);  // store 21 still queued
}

TEST(SyncMemory, WaitersServedFifo) {
  SyncMemory mem(4);
  for (StreamId s = 0; s < 5; ++s)
    ASSERT_FALSE(mem.try_sync_load(0, s).succeeded);
  for (Word v = 0; v < 5; ++v)
    ASSERT_TRUE(mem.try_sync_store(0, v * 10, 100 + static_cast<StreamId>(v))
                    .succeeded);
  const auto handoffs = mem.drain_handoffs();
  ASSERT_EQ(handoffs.size(), 5u);
  for (StreamId s = 0; s < 5; ++s) {
    EXPECT_EQ(handoffs[static_cast<std::size_t>(s)].stream, s);
    EXPECT_EQ(handoffs[static_cast<std::size_t>(s)].value, s * 10);
  }
}

TEST(SyncMemory, CountsSyncOps) {
  SyncMemory mem(4);
  mem.store_full(0, 1);
  (void)mem.try_sync_load(0, 0);
  (void)mem.try_sync_store(0, 2, 1);
  EXPECT_EQ(mem.sync_ops(), 2u);
}

TEST(SyncMemory, UntouchedWordsStayOutOfTheResidentSet) {
  // A default-sized machine memory (2^20 words, 16 MiB of cells) touched at
  // both ends costs a few pages, not the whole array.
  constexpr std::size_t kWords = std::size_t{1} << 20;
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  SyncMemory mem(kWords);
  mem.store(0, 7);
  const Address last = kWords - 1;
  EXPECT_FALSE(mem.is_full(last));
  EXPECT_EQ(mem.load(last), 0);
  EXPECT_TRUE(mem.try_sync_store(last, 9, /*stream=*/0).succeeded);
  EXPECT_TRUE(mem.is_full(last));
  EXPECT_EQ(mem.load(last), 9);
  EXPECT_EQ(mem.load(0), 7);
  EXPECT_LT(resident_bytes(), before + (std::size_t{2} << 20));
}

TEST(SyncMemoryDeathTest, OutOfRangeAddressAborts) {
  SyncMemory mem(4);
  EXPECT_DEATH((void)mem.load(4), "Precondition");
}

TEST(SyncMemoryDeathTest, ResetEmptyWithWaitersAborts) {
  SyncMemory mem(4);
  (void)mem.try_sync_load(0, 1);
  EXPECT_DEATH(mem.reset_empty(0), "Precondition");
}

}  // namespace
}  // namespace tc3i::mta
