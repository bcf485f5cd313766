// Differential test: pfs::ExtentMap (sorted leaf vectors) against the
// std::map store it replaced (tests/pfs/map_extent_map.h). Both get the same
// seeded write stream; after every write a random read must return the same
// fragments, and every few writes the whole extent lists (offset, size,
// kind, content) must match. Each scenario writes thousands of extents, so
// leaves fill, split, and windows cross leaf boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pfs/extent_map.h"
#include "pfs/map_extent_map.h"

namespace tio::pfs {
namespace {

// What a write carries: zeros, a pattern stream continuing at its offset
// (neighbours of one stream coalesce), a pattern of an unrelated base (never
// a continuation), or a slice of one shared literal buffer (a continuation
// when placed at its own offset).
class DataGen {
 public:
  explicit DataGen(std::uint64_t seed) : rng_(seed) {
    std::vector<std::byte> bytes(kLiteralBytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i * 131);
    literal_ = DataView::literal(std::move(bytes));
  }

  DataView at(std::uint64_t offset, std::uint64_t len) {
    switch (rng_.below(6)) {
      case 0: return DataView::zeros(len);
      case 1: return DataView::pattern(100 + rng_.below(1000), rng_.below(1 << 20), len);
      case 2:
        if (offset + len <= kLiteralBytes) return literal_.slice(offset, len);
        [[fallthrough]];
      default: return DataView::pattern(rng_.below(3), offset, len);  // few streams
    }
  }
  Rng& rng() { return rng_; }

 private:
  static constexpr std::uint64_t kLiteralBytes = 1 << 16;
  Rng rng_;
  DataView literal_;
};

struct Pair {
  ExtentMap map;
  test::MapExtentMap oracle;
  int writes = 0;

  void write(std::uint64_t offset, DataView data) {
    map.write(offset, data);
    oracle.write(offset, std::move(data));
    ++writes;
  }
};

void expect_same_views(const DataView& a, const DataView& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.kind(), b.kind()) << where;
  ASSERT_TRUE(a.content_equals(b)) << where;
}

void expect_same_extents(const Pair& p, const std::string& what) {
  const auto& want = p.oracle.extents();
  ASSERT_EQ(p.map.extent_count(), want.size()) << what << " after " << p.writes << " writes";
  auto it = want.begin();
  std::size_t i = 0;
  for (const ExtentMap::Leaf& leaf : p.map.leaves()) {
    ASSERT_FALSE(leaf.empty()) << what;
    ASSERT_LE(leaf.size(), 2 * ExtentMap::kLeafCap) << what;
    for (const Extent& e : leaf) {
      const std::string where = what + " extent " + std::to_string(i++);
      ASSERT_EQ(e.offset, it->first) << where;
      expect_same_views(e.data, it->second, where);
      ++it;
    }
  }
  EXPECT_EQ(p.map.high_water(), p.oracle.high_water()) << what;
  EXPECT_EQ(p.map.backed_bytes(), p.oracle.backed_bytes()) << what;
}

void expect_same_read(const Pair& p, std::uint64_t offset, std::uint64_t len,
                      const std::string& what) {
  const FragmentList got = p.map.read(offset, len);
  const FragmentList want = p.oracle.read(offset, len);
  const std::string where = what + " read [" + std::to_string(offset) + "+" +
                            std::to_string(len) + ") after " + std::to_string(p.writes);
  ASSERT_EQ(got.size(), len) << where;
  ASSERT_EQ(got.fragments().size(), want.fragments().size()) << where;
  for (std::size_t f = 0; f < got.fragments().size(); ++f) {
    expect_same_views(got.fragments()[f], want.fragments()[f], where);
  }
}

// Checks after every write: one random read near the write (where the
// window just changed) and one anywhere; the whole lists every 64 writes.
void check(Pair& p, Rng& rng, std::uint64_t near, const std::string& what) {
  const std::uint64_t span = std::max<std::uint64_t>(p.oracle.high_water(), 1) + 64;
  const std::uint64_t lo = near > 300 ? near - 300 : 0;
  expect_same_read(p, lo + rng.below(300), 1 + rng.below(700), what);
  expect_same_read(p, rng.below(span), 1 + rng.below(4000), what);
  if (p.writes % 64 == 0) expect_same_extents(p, what);
}

class ExtentMapDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapDiff, RandomOverlappingWrites) {
  DataGen gen(GetParam());
  Rng& rng = gen.rng();
  Pair p;
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t off = rng.below(200000);
    // Mostly record-sized writes; now and then one that spans many leaves.
    const std::uint64_t len = rng.below(50) == 0 ? 1 + rng.below(40000) : 1 + rng.below(60);
    p.write(off, gen.at(off, len));
    ASSERT_NO_FATAL_FAILURE(check(p, rng, off, "random"));
  }
  expect_same_extents(p, "random (end)");
}

TEST_P(ExtentMapDiff, BackfillBetweenWrittenSlots) {
  DataGen gen(GetParam());
  Rng& rng = gen.rng();
  Pair p;
  constexpr std::uint64_t kSlots = 3000;
  const std::uint64_t rec = 8 + rng.below(16);
  // Every other slot first, then the gaps in random order: a continuation
  // fill merges three extents into one.
  std::vector<std::uint64_t> gaps;
  for (std::uint64_t s = 0; s < kSlots; ++s) {
    if (s % 2 == 0) {
      p.write(s * rec, gen.at(s * rec, rec));
      ASSERT_NO_FATAL_FAILURE(check(p, rng, s * rec, "backfill/first"));
    } else {
      gaps.push_back(s);
    }
  }
  for (std::size_t i = gaps.size(); i > 1; --i) std::swap(gaps[i - 1], gaps[rng.below(i)]);
  for (const std::uint64_t s : gaps) {
    p.write(s * rec, gen.at(s * rec, rec));
    ASSERT_NO_FATAL_FAILURE(check(p, rng, s * rec, "backfill/gaps"));
  }
  expect_same_extents(p, "backfill (end)");
}

TEST_P(ExtentMapDiff, DescendingWrites) {
  DataGen gen(GetParam());
  Rng& rng = gen.rng();
  Pair p;
  constexpr std::uint64_t kSlots = 3000;
  const std::uint64_t rec = 4 + rng.below(20);
  const std::uint64_t gap = rng.below(3);  // touching or spaced records
  for (std::uint64_t s = kSlots; s-- > 0;) {
    const std::uint64_t off = s * (rec + gap);
    p.write(off, gen.at(off, rec + rng.below(2)));  // some overlap the next
    ASSERT_NO_FATAL_FAILURE(check(p, rng, off, "descending"));
  }
  expect_same_extents(p, "descending (end)");
}

TEST_P(ExtentMapDiff, InterleavedStridedWriters) {
  DataGen gen(GetParam());
  Rng& rng = gen.rng();
  Pair p;
  // N-1 strided: writer r's i-th record lands at (i * writers + r) * rec.
  // Writers advance at random, so most records arrive near the high-water
  // mark but behind it.
  const std::uint64_t writers = 4 + rng.below(12);
  const std::uint64_t rec = 16 + rng.below(48);
  std::vector<std::uint64_t> next(writers, 0);
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t r = rng.below(writers);
    const std::uint64_t off = (next[r]++ * writers + r) * rec;
    p.write(off, gen.at(off, rec));
    ASSERT_NO_FATAL_FAILURE(check(p, rng, off, "strided"));
  }
  expect_same_extents(p, "strided (end)");
}

TEST_P(ExtentMapDiff, RewritesAtExtentAndLeafStarts) {
  DataGen gen(GetParam());
  Rng& rng = gen.rng();
  Pair p;
  // Touching records of distinct seeds: one extent each.
  const std::uint64_t rec = 8 + rng.below(8);
  for (std::uint64_t i = 0; i < 4000; ++i) p.write(i * rec, DataView::pattern(5000 + i, 0, rec));
  for (int op = 0; op < 3000; ++op) {
    // Start at the first extent of a random leaf (its left neighbour ends
    // the previous leaf) or at any extent, and half the time write the
    // continuation of that left neighbour, which must coalesce with it.
    const std::vector<ExtentMap::Leaf>& leaves = p.map.leaves();
    const ExtentMap::Leaf& leaf = leaves[rng.below(leaves.size())];
    const std::uint64_t off =
        rng.below(2) == 0 ? leaf.front().offset : leaf[rng.below(leaf.size())].offset;
    const std::uint64_t len = 1 + rng.below(3 * rec);
    DataView data = gen.at(off, len);
    const auto it = p.oracle.extents().find(off);
    ASSERT_NE(it, p.oracle.extents().end());
    if (it != p.oracle.extents().begin() && rng.below(2) == 0) {
      const auto& [prev_off, prev] = *std::prev(it);
      if (prev_off + prev.size() == off && prev.kind() == DataView::Kind::pattern) {
        data = DataView::pattern(prev.pattern_seed(), prev.pattern_base() + prev.size(), len);
      }
    }
    p.write(off, std::move(data));
    ASSERT_NO_FATAL_FAILURE(check(p, rng, off, "rewrite"));
  }
  expect_same_extents(p, "rewrite (end)");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapDiff, ::testing::Values(1, 2, 3, 4));

TEST(ExtentMapLayout, AppendsStayInBoundedLeaves) {
  ExtentMap m;
  for (std::uint64_t i = 0; i < 10 * ExtentMap::kLeafCap; ++i) {
    m.write(i * 10, DataView::pattern(i, 0, 10));  // never a continuation
  }
  EXPECT_EQ(m.extent_count(), 10 * ExtentMap::kLeafCap);
  EXPECT_GE(m.leaves().size(), 4u);
  for (const ExtentMap::Leaf& leaf : m.leaves()) EXPECT_LE(leaf.size(), 2 * ExtentMap::kLeafCap);
  // One write across every leaf merges them back into one extent.
  m.write(5, DataView::zeros(m.high_water() - 10));
  EXPECT_EQ(m.leaves().size(), 1u);
  EXPECT_EQ(m.extent_count(), 3u);
}

}  // namespace
}  // namespace tio::pfs
