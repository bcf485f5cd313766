#include "iolib/tinync.h"

#include <gtest/gtest.h>

#include "net/cluster.h"
#include "pfs/extent_map.h"

namespace tio::iolib {
namespace {

// In-memory WriteFn/ReadFn pair over a shared extent map: lets the
// formatting layer be tested without any file system.
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

TEST(TinyNcHeader, SerializeParseRoundTrip) {
  const std::vector<NcVar> vars = {{"density", 1_MiB}, {"pressure", 2_MiB}, {"vx", 512_KiB}};
  const auto bytes = TinyNc::serialize_header(vars);
  EXPECT_EQ(bytes.size(), TinyNc::kHeaderBytes);
  FragmentList fl;
  fl.append(DataView::literal(bytes));
  auto parsed = TinyNc::parse_header(fl);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].name, "density");
  EXPECT_EQ((*parsed)[1].bytes_per_proc, 2_MiB);
  EXPECT_EQ((*parsed)[2].name, "vx");
}

TEST(TinyNcHeader, RejectsBadMagicAndShortHeader) {
  FragmentList short_fl;
  short_fl.append(DataView::zeros(100));
  EXPECT_FALSE(TinyNc::parse_header(short_fl).ok());
  FragmentList zeros;
  zeros.append(DataView::zeros(TinyNc::kHeaderBytes));
  EXPECT_FALSE(TinyNc::parse_header(zeros).ok());
}

TEST(TinyNcLayout, SlabOffsetsTileTheFile) {
  const std::vector<NcVar> vars = {{"a", 1000}, {"b", 500}};
  const int n = 4;
  EXPECT_EQ(TinyNc::slab_offset(0, n, vars, 0), TinyNc::kHeaderBytes);
  EXPECT_EQ(TinyNc::slab_offset(3, n, vars, 0), TinyNc::kHeaderBytes + 3000);
  EXPECT_EQ(TinyNc::slab_offset(0, n, vars, 1), TinyNc::kHeaderBytes + 4000);
  EXPECT_EQ(TinyNc::total_bytes(n, vars), TinyNc::kHeaderBytes + 4000 + 2000);
}

TEST(TinyNc, CollectiveWriteThenReadVerifies) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const std::vector<NcVar> vars = {{"a", 3000}, {"b", 1000}};
  mpi::run_spmd(cluster, 6, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyNc::write_all(comm, file.writer(), vars, 77)).ok());
  });
  EXPECT_EQ(file.size, TinyNc::total_bytes(6, vars));
  mpi::run_spmd(cluster, 6, [&](mpi::Comm comm) -> sim::Task<void> {
    std::vector<NcVar> parsed;
    EXPECT_TRUE((co_await TinyNc::read_all(comm, file.reader(), 77, true, &parsed)).ok());
    EXPECT_EQ(parsed.size(), 2u);
  });
}

TEST(TinyNc, ReadDetectsCorruption) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const std::vector<NcVar> vars = {{"a", 2000}};
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyNc::write_all(comm, file.writer(), vars, 77)).ok());
  });
  // Corrupt one slab.
  file.map.write(TinyNc::kHeaderBytes + 2500, DataView::pattern(999, 0, 10));
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    const Status st = co_await TinyNc::read_all(comm, file.reader(), 77, true);
    if (!st.ok()) ++failures;
    ++returned;
    (void)comm;
  });
  EXPECT_EQ(failures, 1);  // only the rank owning the corrupted slab notices
  EXPECT_EQ(returned, 4);  // and it still meets its peers at the barrier
}

TEST(TinyNc, FailedSlabWriteStillMeetsPeers) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const std::vector<NcVar> vars = {{"a", 2000}, {"b", 100}};
  const WriteFn inner = file.writer();
  // Rank 2's first slab write fails; it must skip its second one but still
  // reach the barrier its peers wait in.
  const std::uint64_t bad = TinyNc::slab_offset(2, 4, vars, 0);
  const WriteFn failing = [&](std::uint64_t off, DataView data) -> sim::Task<Status> {
    if (off == bad) co_return error(Errc::io_error, "injected");
    co_return co_await inner(off, std::move(data));
  };
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyNc::write_all(comm, failing, vars, 77)).ok()) ++failures;
    ++returned;
  });
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(returned, 4);
}

TEST(TinyNc, UnreadableHeaderFailsEveryRank) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const std::vector<NcVar> vars = {{"a", 2000}};
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyNc::write_all(comm, file.writer(), vars, 77)).ok());
  });
  file.map.write(0, DataView::pattern(999, 0, 8));  // clobbers the magic
  int failures = 0;
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    if (!(co_await TinyNc::read_all(comm, file.reader(), 77, true)).ok()) ++failures;
  });
  EXPECT_EQ(failures, 4);
}

TEST(TinyNc, ReadWithoutVerifySkipsContentCheck) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  MemFile file;
  const std::vector<NcVar> vars = {{"a", 2000}};
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyNc::write_all(comm, file.writer(), vars, 77)).ok());
  });
  file.map.write(TinyNc::kHeaderBytes + 100, DataView::pattern(999, 0, 10));
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await TinyNc::read_all(comm, file.reader(), 77, false)).ok());
  });
}

}  // namespace
}  // namespace tio::iolib
