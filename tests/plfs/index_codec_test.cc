// Property/fuzz tests for the varint codec and the v2 index wire format.
//
// The invariant under test: for any entry batch — strided, sequential,
// overlapping, irregular, hostile timestamps — encode(v2) then decode
// reproduces the exact entry vector, in order, bit for bit. And for any
// damaged buffer — truncated at every possible length, any single byte
// flipped, version confused — decoding rejects with an Errc::io_error that
// names a byte offset, never crashes, never returns wrong entries.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/pattern.h"

namespace tio::plfs {
namespace {

FragmentList as_fragments(std::vector<std::byte> bytes) {
  FragmentList fl;
  fl.append(DataView::literal(std::move(bytes)));
  return fl;
}

// --- varint layer ---------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::vector<std::byte> buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    ByteReader r(buf.data(), buf.size());
    std::uint64_t got = 0;
    ASSERT_TRUE(r.get_varint(got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(r.remaining(), 0u) << v;
  }
}

TEST(Varint, SignedZigzagRoundTrips) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 63,
                                 -65,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
    std::vector<std::byte> buf;
    put_varint_signed(buf, v);
    ByteReader r(buf.data(), buf.size());
    std::int64_t got = 0;
    ASSERT_TRUE(r.get_varint_signed(got)) << v;
    EXPECT_EQ(got, v);
  }
  // Small magnitudes stay small on the wire — the point of zigzag.
  std::vector<std::byte> buf;
  put_varint_signed(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, RandomFuzzRoundTrips) {
  Rng rng(0xC0DEC);
  std::vector<std::byte> buf;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so every encoded length is exercised.
    const std::uint64_t v = rng.below(std::numeric_limits<std::uint64_t>::max()) >> rng.below(64);
    values.push_back(v);
    put_varint(buf, v);
  }
  ByteReader r(buf.data(), buf.size());
  for (const std::uint64_t v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(r.get_varint(got));
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set but the buffer ends.
  const std::byte trunc[] = {std::byte{0x80}, std::byte{0x80}};
  ByteReader r1(trunc, sizeof(trunc));
  std::uint64_t out = 0;
  EXPECT_FALSE(r1.get_varint(out));
  // Overlong: 10 continuation bytes with bits beyond the 64th.
  std::vector<std::byte> over(10, std::byte{0xFF});
  ByteReader r2(over.data(), over.size());
  EXPECT_FALSE(r2.get_varint(out));
  // 11-byte encoding is rejected even if it would decode to a small value.
  std::vector<std::byte> eleven(10, std::byte{0x80});
  eleven.push_back(std::byte{0x01});
  ByteReader r3(eleven.data(), eleven.size());
  EXPECT_FALSE(r3.get_varint(out));
}

// --- workload generators --------------------------------------------------

// N-1 strided checkpoint: the pattern codec's home turf.
std::vector<IndexEntry> strided_workload(int writers, int rounds, std::uint64_t record) {
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int r = 0; r < rounds; ++r) {
    for (int w = 0; w < writers; ++w) {
      out.push_back(IndexEntry{(static_cast<std::uint64_t>(r) * writers + w) * record, record,
                               phys[w], static_cast<std::int64_t>(out.size()) * 1000 + 17,
                               static_cast<std::uint32_t>(w)});
      phys[w] += record;
    }
  }
  return out;
}

// One writer appending sequentially.
std::vector<IndexEntry> sequential_workload(int records, std::uint64_t record) {
  std::vector<IndexEntry> out;
  for (int i = 0; i < records; ++i) {
    out.push_back(IndexEntry{static_cast<std::uint64_t>(i) * record, record,
                             static_cast<std::uint64_t>(i) * record,
                             static_cast<std::int64_t>(i + 1), 0});
  }
  return out;
}

// Random overlapping writes with irregular sizes and timestamps: worst case
// for the detector, everything spills to delta-coded literals.
std::vector<IndexEntry> irregular_workload(std::uint64_t seed, int writers, int ops) {
  Rng rng(seed);
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int op = 0; op < ops; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(writers));
    const std::uint64_t len = 1 + rng.below(64 << 10);
    const std::uint64_t off = rng.below(1 << 20);
    out.push_back(IndexEntry{off, len, phys[writer],
                             static_cast<std::int64_t>(op * 1000 + rng.below(997)), writer});
    phys[writer] += len;
  }
  return out;
}

struct NamedWorkload {
  const char* name;
  std::vector<IndexEntry> entries;
};

std::vector<NamedWorkload> all_workloads() {
  std::vector<NamedWorkload> out;
  out.push_back({"strided", strided_workload(16, 64, 47 << 10)});
  out.push_back({"sequential", sequential_workload(2048, 4096)});
  out.push_back({"overlapping", strided_workload(8, 32, 8192)});
  // Overlap the strided base with a second pass at half stride.
  for (auto e : strided_workload(8, 32, 8192)) {
    e.logical_offset += 4096;
    e.timestamp_ns += 1 << 20;
    out.back().entries.push_back(e);
  }
  out.push_back({"irregular", irregular_workload(0xFEED, 6, 1500)});
  out.push_back({"tiny", {IndexEntry{0, 100, 0, 1, 0}}});
  return out;
}

// --- v2 round trips -------------------------------------------------------

TEST(WireV2, RoundTripsBitExactly) {
  for (const auto& [name, entries] : all_workloads()) {
    const auto buf = encode_entries(entries);
    const auto got = decode_entries(as_fragments(buf));
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(*got, entries) << name;  // same entries, same order
  }
}

TEST(WireV2, ConcatenatedSegmentsDecodeInOrder) {
  // Index logs are flushed in batches; the file is segment after segment.
  const auto a = strided_workload(4, 16, 4096);
  const auto b = irregular_workload(0xBEEF, 3, 100);
  std::vector<std::byte> buf;
  append_encoded(buf, a);
  append_encoded(buf, b);
  const auto got = decode_entries(as_fragments(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  std::vector<IndexEntry> want = a;
  want.insert(want.end(), b.begin(), b.end());
  EXPECT_EQ(*got, want);
}

TEST(WireV2, EmptyBatchEncodesToNothing) {
  EXPECT_TRUE(encode_entries({}).empty());
  EXPECT_EQ(encoded_size({}), 0u);
  const auto got = decode_entries(FragmentList{});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(WireV2, IrregularTimestampsUseResidualsNotCorrectness) {
  // Arithmetic offsets but jittered timestamps: still one pattern run on
  // the wire (with residuals), still bit-exact.
  auto entries = sequential_workload(512, 4096);
  Rng rng(0x7157);
  for (auto& e : entries) e.timestamp_ns += static_cast<std::int64_t>(rng.below(30)) - 15;
  const auto buf = encode_entries(entries);
  const auto got = decode_entries(as_fragments(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, entries);
  // Residuals cost bytes, not a fallback to 40-byte literals.
  EXPECT_LT(buf.size(), entries.size() * IndexEntry::kSerializedSize / 4);
}

TEST(WireV2, CompressesStridedWorkloadTenfold) {
  const auto entries = strided_workload(256, 64, 47 << 10);
  const std::uint64_t v1 = entries.size() * IndexEntry::kSerializedSize;
  const std::uint64_t v2 = encoded_size(entries);
  EXPECT_GE(v1 / v2, 10u) << "v1=" << v1 << " v2=" << v2;
}

TEST(WireV2, FuzzedPoolsRoundTripAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto entries = irregular_workload(seed * 0x9E3779B97F4A7C15ull, 1 + seed % 7,
                                            static_cast<int>(10 + seed * 13));
    const auto buf = encode_entries(entries);
    const auto got = decode_entries(as_fragments(buf));
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": " << got.status();
    ASSERT_EQ(*got, entries) << "seed " << seed;
  }
}

// --- rejection of damaged buffers -----------------------------------------

TEST(WireV2, EveryTruncationIsRejected) {
  const auto entries = strided_workload(4, 8, 4096);
  const auto buf = encode_entries(entries);
  for (std::size_t len = 1; len < buf.size(); ++len) {
    auto prefix = buf;
    prefix.resize(len);
    const auto got = decode_entries(as_fragments(std::move(prefix)));
    ASSERT_FALSE(got.ok()) << "prefix length " << len;
    EXPECT_EQ(got.status().code(), Errc::io_error) << len;
    EXPECT_NE(got.status().message().find("byte offset"), std::string::npos)
        << len << ": " << got.status();
  }
}

TEST(WireV2, EverySingleByteFlipIsRejected) {
  // The crc is verified before block parsing, so any flip inside the
  // segment fails; flips inside the crc itself mismatch too.
  const auto entries = irregular_workload(0xF11E, 3, 60);
  const auto buf = encode_entries(entries);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      auto bad = buf;
      bad[i] ^= static_cast<std::byte>(1u << bit);
      const auto got = decode_entries(bad.data(), bad.size());
      ASSERT_FALSE(got.ok()) << "byte " << i << " bit " << bit;
      EXPECT_EQ(got.status().code(), Errc::io_error);
    }
  }
}

TEST(WireV2, VersionConfusionIsNamed) {
  const auto entries = sequential_workload(32, 4096);
  auto buf = encode_entries(entries);
  buf[4] = std::byte{9};  // version byte follows the 4-byte magic
  const auto got = decode_entries(as_fragments(std::move(buf)));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("unsupported wire version 9"), std::string::npos)
      << got.status();
  EXPECT_NE(got.status().message().find("byte offset 4"), std::string::npos) << got.status();
}

TEST(WireV2, GarbageAfterValidSegmentIsRejected) {
  const auto entries = sequential_workload(32, 4096);
  auto buf = encode_entries(entries);
  const std::size_t tail = buf.size();
  buf.insert(buf.end(), {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE}, std::byte{0xEF}});
  const auto got = decode_entries(as_fragments(std::move(buf)));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("bad segment magic"), std::string::npos) << got.status();
  EXPECT_NE(got.status().message().find("byte offset " + std::to_string(tail)),
            std::string::npos)
      << got.status();
}

TEST(WireV2, V1ShapedPayloadsFailClosed) {
  // The original fixed 40-byte records (logical, length, physical,
  // timestamp, writer, padding) carry no segment magic. Nothing writes them
  // and nothing reads them: both readers reject them like any corruption.
  const auto entries = strided_workload(4, 8, 4096);
  std::vector<std::byte> records(entries.size() * IndexEntry::kSerializedSize);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::byte* p = records.data() + i * IndexEntry::kSerializedSize;
    std::memcpy(p + 0, &entries[i].logical_offset, 8);
    std::memcpy(p + 8, &entries[i].length, 8);
    std::memcpy(p + 16, &entries[i].physical_offset, 8);
    std::memcpy(p + 24, &entries[i].timestamp_ns, 8);
    std::memcpy(p + 32, &entries[i].writer, 4);
  }
  std::vector<std::byte> trailed = records;
  append_index_trailer(trailed, entries.size());  // a valid CRC trailer

  const auto log = decode_entries(as_fragments(records));
  const auto flat = deserialize_trailed_entries(as_fragments(trailed));
  for (const auto* got : {&log, &flat}) {
    ASSERT_FALSE(got->ok());
    EXPECT_EQ(got->status().code(), Errc::io_error);
    EXPECT_NE(got->status().message().find("bad segment magic at byte offset 0"),
              std::string::npos)
        << got->status();
  }
}

// --- pattern representation of a built index --------------------------------

TEST(PatternIndexRep, StridedWorkloadCollapsesToRuns) {
  // The resolved mapping set of a strided N-1 file is still arithmetic per
  // writer, so the flattened index encodes as a handful of runs.
  const FlatIndex idx = FlatIndex::build(strided_workload(16, 256, 47 << 10));
  const PatternScan scan = detect_patterns(idx.to_entries());
  EXPECT_LE(scan.runs.size() + scan.literals.size(), idx.mapping_count() / 10);
}

TEST(PatternIndexRep, SerializedBytesMatchTheWireEncoder) {
  const FlatIndex idx = FlatIndex::build(strided_workload(16, 64, 8192));
  EXPECT_EQ(idx.serialized_bytes(), encoded_size(idx.to_entries()));
  EXPECT_LT(idx.serialized_bytes(), idx.mapping_count() * IndexEntry::kSerializedSize);
  EXPECT_EQ(FlatIndex::build({}).serialized_bytes(), 0u);
}

}  // namespace
}  // namespace tio::plfs
