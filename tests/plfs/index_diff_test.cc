// Differential tests: FlatIndex vs BTreeIndex (the correctness oracle,
// tests/plfs/btree_index.h).
//
// Unit level: identical randomized overlapping/striding write pools are fed
// to both; lookup() results, logical_size(), and the compressed mapping set
// itself must be identical. The pools respect the simulator's invariant
// that each writer's timestamps increase with its physical offsets (a
// writer's log is appended in time order) — under it both produce the same
// canonical maximally-compressed mapping set, so the comparison is exact,
// not just byte-equivalent.
//
// Strategy level: four write shapes are aggregated through all three
// ReadStrategy values (with and without an injected fault plan); every
// strategy must expand to exactly what an oracle built from the
// container's raw index-log entries expands to.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "localfs/mem_fs.h"
#include "pfs/faulty_fs.h"
#include "pfs/sim_pfs.h"
#include "plfs/btree_index.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/mpiio.h"
#include "plfs/pattern.h"
#include "testutil.h"

namespace tio::plfs {
namespace {

struct Pool {
  std::vector<IndexEntry> entries;  // shuffled
  std::uint64_t domain = 0;         // all logical offsets < domain
};

// Overlapping + strided writes from several writers. Timestamps increase
// globally (so per-writer monotone), physical offsets accumulate per
// writer — the same shape WriteHandle produces.
Pool random_pool(std::uint64_t seed, int writers, int ops) {
  Rng rng(seed);
  Pool pool;
  pool.domain = 1 << 20;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int op = 0; op < ops; ++op) {
    const auto writer = static_cast<std::uint32_t>(rng.below(writers));
    std::uint64_t off;
    std::uint64_t len;
    switch (rng.below(3)) {
      case 0:  // strided record
        len = 4096;
        off = rng.below(pool.domain / len) * len;
        break;
      case 1:  // large overwrite
        len = 1 + rng.below(64 << 10);
        off = rng.below(pool.domain - len);
        break;
      default:  // small unaligned scribble
        len = 1 + rng.below(512);
        off = rng.below(pool.domain - len);
        break;
    }
    pool.entries.push_back(
        IndexEntry{off, len, phys[writer], static_cast<std::int64_t>(op + 1), writer});
    phys[writer] += len;
  }
  // Shuffle: build() must not depend on input order.
  for (std::size_t i = pool.entries.size(); i > 1; --i) {
    std::swap(pool.entries[i - 1], pool.entries[rng.below(i)]);
  }
  return pool;
}

class IndexDiff : public ::testing::TestWithParam<std::uint64_t> {};

// The built index and its pattern-encoded form (what the flattened index
// file holds) both match the oracle.
TEST_P(IndexDiff, FlatAndPatternMatchBTreeExactly) {
  const Pool pool = random_pool(GetParam(), /*writers=*/8, /*ops=*/500);
  const BTreeIndex oracle = BTreeIndex::build(pool.entries);
  const FlatIndex flat = FlatIndex::build(pool.entries);

  EXPECT_EQ(flat.logical_size(), oracle.logical_size());
  EXPECT_EQ(flat.mapping_count(), oracle.mapping_count());
  // The canonical compressed mapping sets are identical, resolution-sequence
  // timestamps included, and survive the pattern codec bit for bit.
  EXPECT_EQ(flat.to_entries(), oracle.to_entries());
  FragmentList encoded;
  encoded.append(DataView::literal(encode_entries(flat.to_entries())));
  const auto decoded = decode_entries(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, oracle.to_entries());
  EXPECT_EQ(FlatIndex::build(*decoded).lookup(0, pool.domain), oracle.lookup(0, pool.domain));
  // Full-range and random ranged lookups agree exactly.
  EXPECT_EQ(flat.lookup(0, pool.domain), oracle.lookup(0, pool.domain));
  Rng rng(GetParam() ^ 0xD1FF);
  for (int probe = 0; probe < 200; ++probe) {
    const std::uint64_t off = rng.below(pool.domain);
    const std::uint64_t len = 1 + rng.below(128 << 10);
    EXPECT_EQ(flat.lookup(off, len), oracle.lookup(off, len)) << "probe " << probe;
  }
  // Past-EOF and zero-length probes.
  EXPECT_EQ(flat.lookup(pool.domain * 2, 100), oracle.lookup(pool.domain * 2, 100));
  EXPECT_EQ(flat.lookup(5, 0), oracle.lookup(5, 0));
}

TEST_P(IndexDiff, UncompressedBackendsAgree) {
  const Pool pool = random_pool(GetParam() ^ 0xC0FFEE, 5, 300);
  const BTreeIndex oracle = BTreeIndex::build(pool.entries, /*compress=*/false);
  const FlatIndex flat = FlatIndex::build(pool.entries, /*compress=*/false);
  EXPECT_EQ(flat.logical_size(), oracle.logical_size());
  EXPECT_EQ(flat.lookup(0, pool.domain), oracle.lookup(0, pool.domain));
}

TEST_P(IndexDiff, BuilderMergeMatchesPoolSort) {
  // Split the pool into per-writer runs (each timestamp-sorted, like real
  // index logs); the k-way merge path must equal the sort-the-pool path,
  // and the oracle fed the merged run must agree with both.
  const Pool pool = random_pool(GetParam() ^ 0x5EED, 6, 400);
  std::vector<std::vector<IndexEntry>> runs(6);
  for (const auto& e : pool.entries) runs[e.writer].push_back(e);
  IndexBuilder builder;
  for (auto& r : runs) {
    std::sort(r.begin(), r.end(), entry_timestamp_less);
    builder.add_entries(std::move(r));
  }
  const IndexPtr merged = builder.build();
  const BTreeIndex oracle = BTreeIndex::from_sorted(builder.merged_run());
  const FlatIndex direct = FlatIndex::build(pool.entries);

  EXPECT_EQ(merged->lookup(0, pool.domain), direct.lookup(0, pool.domain));
  EXPECT_EQ(oracle.lookup(0, pool.domain), direct.lookup(0, pool.domain));
  EXPECT_EQ(merged->logical_size(), direct.logical_size());
  EXPECT_EQ(oracle.logical_size(), direct.logical_size());
  EXPECT_EQ(merged->to_entries(), oracle.to_entries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDiff,
                         ::testing::Values(1, 7, 13, 99, 1234, 987654, 0xFEEDFACE));

// --- strategy level: every ReadStrategy vs the raw-log oracle ---

constexpr int kProcs = 9;
constexpr std::uint64_t kDomain = 1 << 19;  // covers every shape's extent

struct World {
  explicit World(const std::string& plan_spec = "none")
      : cluster(engine, cluster_config()), pfs(cluster, pfs_config()),
        faulty(pfs, parse_plan(plan_spec)), plfs(faulty, mount_config()) {
    for (const auto& b : plfs.mount().backends) {
      if (!pfs.ns().mkdir_all(b).ok()) std::abort();
    }
  }
  static pfs::FaultPlan parse_plan(const std::string& spec) {
    auto plan = pfs::FaultPlan::parse(spec);
    if (!plan.ok()) std::abort();
    return std::move(plan.value());
  }
  static net::ClusterConfig cluster_config() {
    net::ClusterConfig c;
    c.nodes = 16;
    c.cores_per_node = 4;
    return c;
  }
  static pfs::PfsConfig pfs_config() {
    pfs::PfsConfig c;
    c.num_mds = 4;
    c.num_osts = 8;
    return c;
  }
  static PlfsMount mount_config() {
    PlfsMount m;
    for (std::size_t i = 0; i < 4; ++i) {
      m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
    }
    m.num_subdirs = 8;
    m.index_flush_every = 8;
    return m;
  }

  sim::Engine engine;
  net::Cluster cluster;
  pfs::SimPfs pfs;
  pfs::FaultyFs faulty;  // pass-through when the plan is "none"
  Plfs plfs;
};

// Four write shapes spanning the pattern detector's best and worst cases.
enum class Shape { strided, sequential, overlapping, irregular };

void write_shape(World& w, const std::string& logical, Shape shape) {
  constexpr int kRounds = 4;
  constexpr std::uint64_t kRecord = 3000;
  mpi::run_spmd(w.cluster, kProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_write(w.plfs, comm, logical);
    EXPECT_TRUE(file.ok()) << file.status();
    if (!file.ok()) co_return;
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    const auto n = static_cast<std::uint64_t>(comm.size());
    auto put = [&](std::uint64_t off, std::uint64_t len) -> sim::Task<void> {
      EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(7, off, len))).ok());
    };
    switch (shape) {
      case Shape::strided:
        for (int r = 0; r < kRounds; ++r) co_await put((r * n + rank) * kRecord, kRecord);
        break;
      case Shape::sequential:
        for (int r = 0; r < kRounds; ++r) {
          co_await put(rank * kRounds * kRecord + r * kRecord, kRecord);
        }
        break;
      case Shape::overlapping:
        // A strided pass, then a half-record-shifted second pass that
        // overwrites most of the first.
        for (int r = 0; r < kRounds; ++r) co_await put((r * n + rank) * kRecord, kRecord);
        for (int r = 0; r < kRounds; ++r) {
          co_await put((r * n + rank) * kRecord + kRecord / 2, kRecord);
        }
        break;
      case Shape::irregular: {
        Rng rng(rank * 7919 + 13);
        for (int r = 0; r < 3 * kRounds; ++r) {
          const std::uint64_t len = 1 + rng.below(6000);
          co_await put(rng.below((1 << 18) - len), len);
        }
        break;
      }
    }
    EXPECT_TRUE((co_await (*file)->close_write(/*flatten=*/true)).ok());
  });
}

struct RawLog {
  std::string path;
  std::vector<IndexEntry> entries;
};

// Every per-writer index log of `logical`, decoded.
sim::Task<std::vector<RawLog>> raw_logs(Plfs& plfs, std::string logical) {
  const pfs::IoCtx ctx{0, 0};
  std::vector<RawLog> out;
  auto logs = co_await plfs.list_index_logs(ctx, logical);
  EXPECT_TRUE(logs.ok()) << logs.status();
  if (!logs.ok()) co_return out;
  for (const auto& log : *logs) {
    auto entries = co_await plfs.read_index_log(ctx, logical, log.path);
    EXPECT_TRUE(entries.ok()) << entries.status();
    if (entries.ok()) out.push_back(RawLog{log.path, **entries});
  }
  co_return out;
}

BTreeIndex oracle_of(const std::vector<RawLog>& logs) {
  std::vector<IndexEntry> all;
  for (const auto& log : logs) all.insert(all.end(), log.entries.begin(), log.entries.end());
  return BTreeIndex::build(std::move(all));
}

IndexPtr aggregate(World& w, const std::string& logical, ReadStrategy strategy) {
  IndexPtr got;
  mpi::run_spmd(w.cluster, kProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    auto idx = co_await aggregate_index(w.plfs, comm, logical, strategy);
    EXPECT_TRUE(idx.ok()) << idx.status();
    if (idx.ok() && comm.rank() == 0) got = *idx;
  });
  return got;
}

constexpr ReadStrategy kStrategies[] = {ReadStrategy::original, ReadStrategy::index_flatten,
                                        ReadStrategy::parallel_read};

// Every index byte these containers hold (per-writer logs, flattened index)
// and every exchange volume is pattern-encoded.
TEST(IndexDiffStrategies, PatternMatchesOracleAcrossShapesStrategiesAndFaults) {
  for (const char* plan : {"none", "transient1"}) {
    for (const Shape shape :
         {Shape::strided, Shape::sequential, Shape::overlapping, Shape::irregular}) {
      World w(plan);
      write_shape(w, "/shape", shape);
      std::vector<IndexPtr> got;
      for (const ReadStrategy strategy : kStrategies) got.push_back(aggregate(w, "/shape", strategy));
      const BTreeIndex oracle = oracle_of(test::run_task(w.engine, raw_logs(w.plfs, "/shape")));
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i]->lookup(0, kDomain), oracle.lookup(0, kDomain))
            << "plan " << plan << " shape " << static_cast<int>(shape) << " strategy " << i;
        EXPECT_EQ(got[i]->logical_size(), oracle.logical_size());
      }
    }
  }
}

// --- Serialization integrity: error context and the CRC trailer -----------

std::vector<IndexEntry> sample_entries() {
  return {IndexEntry{0, 100, 0, 1, 0}, IndexEntry{100, 100, 100, 2, 1},
          IndexEntry{200, 56, 200, 3, 2}};
}

FragmentList as_fragments(std::vector<std::byte> bytes) {
  FragmentList fl;
  fl.append(DataView::literal(std::move(bytes)));
  return fl;
}

TEST(IndexSerialization, TruncationErrorNamesTheByteOffset) {
  auto bytes = encode_entries(sample_entries());
  bytes.resize(bytes.size() - 5);  // tear the segment's tail
  const auto got = decode_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(got.ok());
  // The torn payload begins after the 7-byte segment header (magic,
  // version, one-byte entry count, one-byte payload length).
  EXPECT_NE(got.status().message().find("segment payload overruns buffer at byte offset 7"),
            std::string::npos)
      << got.status();
}

TEST(IndexSerialization, TrailerRoundTrips) {
  const auto entries = sample_entries();
  auto bytes = serialize_entries_with_trailer(entries);
  EXPECT_EQ(bytes.size(), encoded_size(entries) + kIndexTrailerSize);
  const auto got = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*got)[i].logical_offset, entries[i].logical_offset) << i;
    EXPECT_EQ((*got)[i].length, entries[i].length) << i;
    EXPECT_EQ((*got)[i].physical_offset, entries[i].physical_offset) << i;
    EXPECT_EQ((*got)[i].writer, entries[i].writer) << i;
  }
}

TEST(IndexSerialization, CrcCatchesFlippedRecordByte) {
  auto bytes = serialize_entries_with_trailer(sample_entries());
  bytes[8] ^= std::byte{0xFF};  // inside the encoded records
  const auto got = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Errc::io_error);
  EXPECT_NE(got.status().message().find("crc mismatch"), std::string::npos) << got.status();
  // The message carries enough context to locate the damage class.
  EXPECT_NE(got.status().message().find("byte offset"), std::string::npos);
}

TEST(IndexSerialization, BadMagicAndTruncatedTrailerAreDistinguished) {
  auto bytes = serialize_entries_with_trailer(sample_entries());
  auto mangled = bytes;
  mangled[mangled.size() - kIndexTrailerSize] ^= std::byte{0x01};
  const auto bad_magic = deserialize_trailed_entries(as_fragments(std::move(mangled)));
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("bad trailer magic"), std::string::npos);

  bytes.resize(kIndexTrailerSize - 1);  // shorter than any trailer
  const auto truncated = deserialize_trailed_entries(as_fragments(std::move(bytes)));
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated trailer"), std::string::npos);
}

}  // namespace
}  // namespace tio::plfs
