#include "iolib/tinyhdf.h"

#include <gtest/gtest.h>

#include "net/cluster.h"
#include "pfs/extent_map.h"

namespace tio::iolib {
namespace {

struct MemFile {
  pfs::ExtentMap map;
  std::uint64_t size = 0;
  WriteFn writer() {
    return [this](std::uint64_t off, DataView data) -> sim::Task<Status> {
      size = std::max(size, off + data.size());
      map.write(off, std::move(data));
      co_return Status::Ok();
    };
  }
  ReadFn reader() {
    return [this](std::uint64_t off, std::uint64_t len) -> sim::Task<Result<FragmentList>> {
      if (off >= size) co_return FragmentList{};
      co_return map.read(off, std::min(len, size - off));
    };
  }
};

net::ClusterConfig tiny_cluster() {
  net::ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 2;
  return c;
}

TEST(TinyHdfLayout, RegionsDoNotOverlap) {
  const auto l = TinyHdf::layout_for(10_MiB, 1_MiB);
  EXPECT_EQ(l.num_chunks, 10u);
  EXPECT_GE(l.btree_offset, TinyHdf::kSuperblockBytes);
  EXPECT_GE(l.data_offset, l.btree_offset + l.num_chunks * TinyHdf::kChunkRecordBytes);
  EXPECT_EQ(l.file_bytes, l.data_offset + 10_MiB);
}

TEST(TinyHdfLayout, RoundsUpPartialChunk) {
  const auto l = TinyHdf::layout_for(10_MiB + 1, 1_MiB);
  EXPECT_EQ(l.num_chunks, 11u);
}

TEST(TinyHdfSuperblock, SerializeParseRoundTrip) {
  const auto l = TinyHdf::layout_for(64_MiB, 4_MiB);
  FragmentList fl;
  fl.append(DataView::literal(TinyHdf::serialize_superblock(l)));
  auto parsed = TinyHdf::parse_superblock(fl);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, l);
}

TEST(TinyHdfSuperblock, RejectsGarbage) {
  FragmentList fl;
  fl.append(DataView::pattern(1, 0, TinyHdf::kSuperblockBytes));
  EXPECT_FALSE(TinyHdf::parse_superblock(fl).ok());
}

TEST(TinyHdf, WriteReadRoundTripAcrossDifferentProcessCounts) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  mpi::run_spmd(cluster, 5, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyHdf::write_all(comm, file.writer(), 3_MiB, 256_KiB, 9)).ok());
  });
  // Strong scaling: read with a different process count.
  mpi::run_spmd(cluster, 8, [&](mpi::Comm comm) -> sim::Task<void> {
    TinyHdf::Layout layout;
    EXPECT_TRUE((co_await TinyHdf::read_all(comm, file.reader(), 9, true, &layout)).ok());
    EXPECT_EQ(layout.num_chunks, 12u);
  });
}

TEST(TinyHdf, DetectsChunkDataCorruption) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyHdf::write_all(comm, file.writer(), 1_MiB, 256_KiB, 9)).ok());
  });
  const auto l = TinyHdf::layout_for(1_MiB, 256_KiB);
  file.map.write(l.data_offset + 300000, DataView::pattern(12345, 0, 16));
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyHdf::read_all(comm, file.reader(), 9, true)).ok()) ++failures;
    ++returned;
    (void)comm;
  });
  EXPECT_EQ(failures, 1);  // chunk 1 is rank 1's
  EXPECT_EQ(returned, 2);  // rank 0 is not left waiting at the barrier
}

TEST(TinyHdf, FailedChunkWriteStillMeetsPeers) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const auto l = TinyHdf::layout_for(1_MiB, 256_KiB);
  const WriteFn inner = file.writer();
  // Rank 1's first chunk record write fails; it must skip the rest but
  // still reach the barrier rank 0 waits in.
  const std::uint64_t bad = l.btree_offset + TinyHdf::kChunkRecordBytes;
  const WriteFn failing = [&](std::uint64_t off, DataView data) -> sim::Task<Status> {
    if (off == bad) co_return error(Errc::io_error, "injected");
    co_return co_await inner(off, std::move(data));
  };
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyHdf::write_all(comm, failing, 1_MiB, 256_KiB, 9)).ok()) ++failures;
    ++returned;
  });
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(returned, 2);
}

TEST(TinyHdf, UnreadableSuperblockFailsEveryRank) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyHdf::write_all(comm, file.writer(), 1_MiB, 256_KiB, 9)).ok());
  });
  file.map.write(0, DataView::pattern(4242, 0, 8));  // clobbers the magic
  int failures = 0;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyHdf::read_all(comm, file.reader(), 9, true)).ok()) ++failures;
  });
  EXPECT_EQ(failures, 2);
}

TEST(TinyHdf, DetectsMetadataCorruption) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyHdf::write_all(comm, file.writer(), 1_MiB, 256_KiB, 9)).ok());
  });
  const auto l = TinyHdf::layout_for(1_MiB, 256_KiB);
  file.map.write(l.btree_offset + 10, DataView::pattern(4242, 0, 8));
  int failures = 0;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyHdf::read_all(comm, file.reader(), 9, true)).ok()) ++failures;
    (void)comm;
  });
  EXPECT_GE(failures, 1);
}

}  // namespace
}  // namespace tio::iolib
