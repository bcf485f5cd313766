#include "plfs/index.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "plfs/btree_index.h"
#include "plfs/pattern.h"

namespace tio::plfs {
namespace {

IndexEntry entry(std::uint64_t log, std::uint64_t len, std::uint64_t phys, std::int64_t ts,
                 std::uint32_t writer) {
  return IndexEntry{log, len, phys, ts, writer};
}

// The index-log decoder's own checks, beyond the wire format's integrity
// (index_codec_test.cc): records that decode cleanly but describe an
// impossible extent are rejected, since index logs are the read path's
// source of truth.
Result<std::vector<IndexEntry>> round_trip(const std::vector<IndexEntry>& in) {
  FragmentList fl;
  fl.append(DataView::literal(encode_entries(in)));
  return decode_entries(fl);
}

TEST(IndexSerialization, ZeroLengthRecordIsError) {
  const auto got = round_trip({entry(0, 100, 0, 1, 0), entry(100, 0, 100, 2, 0)});
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("zero-length record"), std::string::npos)
      << got.status();
}

TEST(IndexSerialization, LogicalExtentOverflowIsError) {
  const auto got = round_trip({entry(std::numeric_limits<std::uint64_t>::max() - 10, 100, 0, 1, 0)});
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("extent overflow"), std::string::npos) << got.status();
}

TEST(IndexSerialization, PhysicalExtentOverflowIsError) {
  const auto got = round_trip({entry(0, 100, std::numeric_limits<std::uint64_t>::max() - 10, 1, 0)});
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("extent overflow"), std::string::npos) << got.status();
}

TEST(IndexSerialization, TruncatedLogIsError) {
  // A log torn inside its second flush segment (a writer died mid-append)
  // must be rejected wholesale, not parsed up to the tear.
  std::vector<std::byte> bytes = encode_entries({entry(0, 100, 0, 1, 0)});
  append_encoded(bytes, {entry(100, 100, 100, 2, 0)});
  const auto whole = DataView::literal(bytes);
  FragmentList fl;
  fl.append(whole.slice(0, bytes.size() - 3));
  const auto got = decode_entries(fl);
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("segment payload overruns buffer"), std::string::npos)
      << got.status();
}

TEST(IndexSerialization, SurvivesFragmentation) {
  // Backend reads return fragment lists; a segment split mid-header and
  // mid-payload decodes the same as a contiguous one.
  const std::vector<IndexEntry> in = {entry(1, 2, 3, 4, 5), entry(6, 7, 8, 9, 10)};
  const auto bytes = encode_entries(in);
  const auto whole = DataView::literal(bytes);
  FragmentList fl;
  fl.append(whole.slice(0, 3));
  fl.append(whole.slice(3, 10));
  fl.append(whole.slice(13, bytes.size() - 13));
  auto out = decode_entries(fl);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, in);
}

// Property test: random overlapping writes from several writers; the index
// (and its oracle) must agree with a byte-level reference that applies
// writes in timestamp order.
class IndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexProperty, MatchesReferenceUnderRandomOverlappingWrites) {
  Rng rng(GetParam());
  constexpr std::uint64_t kSize = 2000;
  constexpr int kWriters = 4;
  // reference[i] = (writer, physical offset) or (-1, 0) for holes.
  std::vector<std::pair<int, std::uint64_t>> ref(kSize, {-1, 0});
  std::vector<IndexEntry> entries;
  std::vector<std::uint64_t> phys(kWriters, 0);

  for (int op = 0; op < 200; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(kWriters));
    const std::uint64_t off = rng.below(kSize - 1);
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(kSize - off, 97) - 1 + 1);
    entries.push_back(entry(off, len, phys[writer], op + 1, writer));
    for (std::uint64_t i = 0; i < len; ++i) {
      ref[off + i] = {static_cast<int>(writer), phys[writer] + i};
    }
    phys[writer] += len;
  }
  // Shuffle entry order to prove build() re-sorts by timestamp.
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.below(i)]);
  }
  // Reconstruct a byte-level view from lookups and compare.
  const auto expand = [](const std::vector<FlatIndex::Mapping>& mappings) {
    std::vector<std::pair<int, std::uint64_t>> got(kSize, {-1, 0});
    for (const auto& m : mappings) {
      for (std::uint64_t i = 0; i < m.length; ++i) {
        got[m.logical_offset + i] = {static_cast<int>(m.writer), m.physical_offset + i};
      }
    }
    return got;
  };
  EXPECT_EQ(expand(FlatIndex::build(entries).lookup(0, kSize)), ref);
  EXPECT_EQ(expand(BTreeIndex::build(entries).lookup(0, kSize)), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProperty, ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace tio::plfs
