#include "net/page_cache.h"

#include <gtest/gtest.h>

namespace tio::net {
namespace {

TEST(PageCache, MissThenHit) {
  PageCache c(1024, 64);
  EXPECT_EQ(c.lookup(1, 0, 64), 0u);
  c.fill(1, 0, 64);
  EXPECT_EQ(c.lookup(1, 0, 64), 64u);
}

TEST(PageCache, PartialBlockAccounting) {
  PageCache c(1024, 64);
  c.fill(1, 0, 64);  // block 0 resident
  // Request [32, 96): 32 bytes hit (block 0), 32 bytes miss (block 1).
  std::vector<ByteRange> misses;
  EXPECT_EQ(c.lookup(1, 32, 64, &misses), 32u);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0], (ByteRange{64, 32}));
}

TEST(PageCache, MissRangesCoalesce) {
  PageCache c(4096, 64);
  c.fill(1, 128, 64);  // only block 2 resident
  std::vector<ByteRange> misses;
  // [0, 320) = blocks 0..4; blocks 0-1 miss, 2 hits, 3-4 miss.
  EXPECT_EQ(c.lookup(1, 0, 320, &misses), 64u);
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0], (ByteRange{0, 128}));
  EXPECT_EQ(misses[1], (ByteRange{192, 128}));
}

TEST(PageCache, ObjectsAreIndependent) {
  PageCache c(1024, 64);
  c.fill(1, 0, 64);
  EXPECT_EQ(c.lookup(2, 0, 64), 0u);
}

TEST(PageCache, LruEviction) {
  PageCache c(128, 64);  // 2 blocks
  c.fill(1, 0, 64);      // block A
  c.fill(1, 64, 64);     // block B
  EXPECT_EQ(c.lookup(1, 0, 64), 64u);   // touch A: LRU order B, A
  c.fill(1, 128, 64);                   // block C evicts B
  EXPECT_EQ(c.lookup(1, 64, 64), 0u);   // B gone
  EXPECT_EQ(c.lookup(1, 0, 64), 64u);   // A still resident
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(PageCache, ZeroCapacityNeverCaches) {
  PageCache c(0, 64);
  c.fill(1, 0, 1024);
  EXPECT_EQ(c.lookup(1, 0, 1024), 0u);
  EXPECT_EQ(c.resident_bytes(), 0u);
}

TEST(PageCache, ClearDropsEverything) {
  PageCache c(4096, 64);
  c.fill(1, 0, 1024);
  c.clear();
  EXPECT_EQ(c.resident_bytes(), 0u);
  EXPECT_EQ(c.lookup(1, 0, 1024), 0u);
}

TEST(PageCache, ZeroLengthOpsAreNoops) {
  PageCache c(1024, 64);
  c.fill(1, 100, 0);
  std::vector<ByteRange> misses;
  EXPECT_EQ(c.lookup(1, 100, 0, &misses), 0u);
  EXPECT_TRUE(misses.empty());
}

TEST(PageCache, StatsTrackHitAndMissBytes) {
  PageCache c(1024, 64);
  c.fill(1, 0, 64);
  c.lookup(1, 0, 128);
  EXPECT_EQ(c.stats().hit_bytes, 64u);
  EXPECT_EQ(c.stats().miss_bytes, 64u);
}

}  // namespace
}  // namespace tio::net
