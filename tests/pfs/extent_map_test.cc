#include "pfs/extent_map.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"

namespace tio::pfs {
namespace {

TEST(ExtentMap, EmptyMapReadsZeros) {
  ExtentMap m;
  EXPECT_EQ(m.high_water(), 0u);
  const auto fl = m.read(10, 20);
  EXPECT_TRUE(fl.content_equals(DataView::zeros(20)));
}

TEST(ExtentMap, SimpleWriteReadRoundTrip) {
  ExtentMap m;
  const auto v = DataView::pattern(1, 0, 100);
  m.write(50, v);
  EXPECT_EQ(m.high_water(), 150u);
  EXPECT_TRUE(m.read(50, 100).content_equals(v));
}

TEST(ExtentMap, ReadSpansHoleBeforeExtent) {
  ExtentMap m;
  m.write(100, DataView::pattern(1, 0, 50));
  const auto fl = m.read(80, 40);
  // 20 bytes of hole, then 20 bytes of data.
  EXPECT_EQ(fl.at(0), std::byte{0});
  EXPECT_EQ(fl.at(19), std::byte{0});
  EXPECT_EQ(fl.at(20), DataView::pattern_byte(1, 0));
}

TEST(ExtentMap, OverwriteReplacesMiddle) {
  ExtentMap m;
  m.write(0, DataView::pattern(1, 0, 100));
  m.write(40, DataView::pattern(2, 0, 20));
  EXPECT_TRUE(m.read(0, 40).content_equals(DataView::pattern(1, 0, 40)));
  EXPECT_TRUE(m.read(40, 20).content_equals(DataView::pattern(2, 0, 20)));
  EXPECT_TRUE(m.read(60, 40).content_equals(DataView::pattern(1, 60, 40)));
}

TEST(ExtentMap, OverwriteExactExtent) {
  ExtentMap m;
  m.write(10, DataView::pattern(1, 0, 30));
  m.write(10, DataView::pattern(2, 0, 30));
  EXPECT_TRUE(m.read(10, 30).content_equals(DataView::pattern(2, 0, 30)));
  EXPECT_EQ(m.extent_count(), 1u);
}

TEST(ExtentMap, OverwriteSpanningMultipleExtents) {
  ExtentMap m;
  m.write(0, DataView::pattern(1, 0, 10));
  m.write(20, DataView::pattern(2, 0, 10));
  m.write(40, DataView::pattern(3, 0, 10));
  m.write(5, DataView::pattern(9, 0, 40));  // covers tail of 1, all of 2, head of 3
  EXPECT_TRUE(m.read(0, 5).content_equals(DataView::pattern(1, 0, 5)));
  EXPECT_TRUE(m.read(5, 40).content_equals(DataView::pattern(9, 0, 40)));
  EXPECT_TRUE(m.read(45, 5).content_equals(DataView::pattern(3, 5, 5)));
}

TEST(ExtentMap, SequentialAppendsCoalesceToOneExtent) {
  ExtentMap m;
  const std::uint64_t chunk = 1000;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t off = i * chunk;
    m.write(off, DataView::pattern(7, off, chunk));
  }
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.read(0, 100 * chunk).content_equals(DataView::pattern(7, 0, 100 * chunk)));
}

TEST(ExtentMap, NonContinuationNeighboursDoNotCoalesce) {
  ExtentMap m;
  m.write(0, DataView::pattern(1, 0, 10));
  m.write(10, DataView::pattern(2, 0, 10));  // adjacent, different seed
  EXPECT_EQ(m.extent_count(), 2u);
}

TEST(ExtentMap, BackfillBetweenExtentsCoalescesAllThree) {
  ExtentMap m;
  m.write(0, DataView::pattern(7, 0, 10));
  m.write(20, DataView::pattern(7, 20, 10));
  m.write(10, DataView::pattern(7, 10, 10));  // exactly fills the gap
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.read(0, 30).content_equals(DataView::pattern(7, 0, 30)));
}

TEST(ExtentMap, ClearDropsAllContent) {
  ExtentMap m;
  m.write(0, DataView::pattern(1, 0, 100));
  m.write(200, DataView::pattern(2, 0, 50));
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.high_water(), 0u);
  EXPECT_TRUE(m.read(0, 250).content_equals(DataView::zeros(250)));
}

TEST(ExtentMap, ZeroLengthWriteIsNoop) {
  ExtentMap m;
  m.write(10, DataView());
  EXPECT_TRUE(m.empty());
}

TEST(ExtentMap, BackedBytesCountsContentNotHoles) {
  ExtentMap m;
  m.write(0, DataView::pattern(1, 0, 10));
  m.write(100, DataView::pattern(1, 100, 10));
  EXPECT_EQ(m.backed_bytes(), 20u);
  EXPECT_EQ(m.high_water(), 110u);
}

// Property test: random writes against a byte-vector reference model.
class ExtentMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapProperty, MatchesReferenceModelUnderRandomWrites) {
  Rng rng(GetParam());
  constexpr std::uint64_t kFileSize = 4096;
  ExtentMap m;
  std::vector<std::byte> ref(kFileSize, std::byte{0});
  std::uint64_t high = 0;

  for (int op = 0; op < 300; ++op) {
    const std::uint64_t off = rng.below(kFileSize - 1);
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(kFileSize - off, 257) - 1);
    const std::uint64_t seed = rng.below(1000);
    const auto data = DataView::pattern(seed, off, len);
    m.write(off, data);
    for (std::uint64_t i = 0; i < len; ++i) ref[off + i] = data.at(i);
    high = std::max(high, off + len);

    // Verify a random read each iteration.
    const std::uint64_t roff = rng.below(kFileSize);
    const std::uint64_t rlen = rng.below(kFileSize - roff + 1);
    const auto fl = m.read(roff, rlen);
    ASSERT_EQ(fl.size(), rlen);
    for (std::uint64_t i = 0; i < rlen; ++i) {
      ASSERT_EQ(fl.at(i), ref[roff + i]) << "op " << op << " at " << roff + i;
    }
  }
  EXPECT_EQ(m.high_water(), high);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tio::pfs
