#include "iolib/collective_buffer.h"

#include <gtest/gtest.h>

#include <set>

#include "net/cluster.h"
#include "pfs/extent_map.h"

namespace tio::iolib {
namespace {

// Shared in-memory file that records which ranks issued operations and how
// large they were — the properties collective buffering must deliver.
struct Recorder {
  pfs::ExtentMap map;
  std::uint64_t size = 0;
  std::set<int> writer_ranks;
  std::vector<std::uint64_t> write_sizes;
  std::set<int> reader_ranks;

  WriteFn writer(int rank) {
    return [this, rank](std::uint64_t off, DataView data) -> sim::Task<Status> {
      writer_ranks.insert(rank);
      write_sizes.push_back(data.size());
      size = std::max(size, off + data.size());
      map.write(off, std::move(data));
      co_return Status::Ok();
    };
  }
  ReadFn reader(int rank) {
    return [this, rank](std::uint64_t off, std::uint64_t len) -> sim::Task<Result<FragmentList>> {
      reader_ranks.insert(rank);
      if (off >= size) co_return FragmentList{};
      co_return map.read(off, std::min(len, size - off));
    };
  }
};

net::ClusterConfig tiny_cluster() {
  net::ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 4;
  return c;
}

// Strided 1 KiB records for `rank`, like LANL 3.
std::vector<CbChunk> strided_chunks(int rank, int nprocs, int rounds, std::uint64_t record,
                                    std::uint64_t seed) {
  std::vector<CbChunk> out;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(r) * nprocs + static_cast<std::uint64_t>(rank)) * record;
    out.push_back(CbChunk{off, DataView::pattern(seed, off, record)});
  }
  return out;
}

TEST(CbAggregators, DefaultIsOnePerNode) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  mpi::run_spmd(cluster, 16, [](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_EQ(cb_num_aggregators(CbConfig{}, comm), 4);
    co_return;
  });
  mpi::run_spmd(cluster, 2, [](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_EQ(cb_num_aggregators(CbConfig{}, comm), 1);
    co_return;
  });
}

TEST(CbAggregators, RanksAreSpreadAcrossTheComm) {
  EXPECT_EQ(cb_aggregator_rank(0, 4, 16), 0);
  EXPECT_EQ(cb_aggregator_rank(1, 4, 16), 4);
  EXPECT_EQ(cb_aggregator_rank(3, 4, 16), 12);
}

TEST(CbWrite, CoalescesStridedRecordsIntoLargeWrites) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  const int n = 16;
  const int rounds = 64;
  CbConfig cb;
  cb.buffer_bytes = 1_MiB;
  mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await cb_write(comm, cb, strided_chunks(comm.rank(), n, rounds, 1024, 7),
                                   file.writer(comm.rank())))
                    .ok());
  });
  // All content present and correct.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * rounds * 1024;
  EXPECT_EQ(file.size, total);
  EXPECT_TRUE(file.map.read(0, total).content_equals(DataView::pattern(7, 0, total)));
  // Only the 4 aggregators touched the file...
  EXPECT_EQ(file.writer_ranks, (std::set<int>{0, 4, 8, 12}));
  // ...with far fewer, far larger operations than n*rounds records.
  EXPECT_LE(file.write_sizes.size(), 8u);
  for (const auto s : file.write_sizes) EXPECT_GE(s, 64u * 1024);
}

TEST(CbWrite, RespectsBufferCap) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  CbConfig cb;
  cb.aggregators = 1;
  cb.buffer_bytes = 64_KiB;
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await cb_write(comm, cb, strided_chunks(comm.rank(), 4, 64, 1024, 7),
                                   file.writer(comm.rank())))
                    .ok());
  });
  for (const auto s : file.write_sizes) EXPECT_LE(s, 64_KiB);
  EXPECT_EQ(file.size, 4u * 64 * 1024);
}

TEST(CbWrite, EmptyEverywhereIsANoop) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  mpi::run_spmd(cluster, 8, [&](mpi::Comm comm) -> sim::Task<void> {
    EXPECT_TRUE((co_await cb_write(comm, CbConfig{}, {}, file.writer(comm.rank()))).ok());
  });
  EXPECT_EQ(file.size, 0u);
  EXPECT_TRUE(file.writer_ranks.empty());
}

TEST(CbWrite, UnevenContributionsStillLandCorrectly) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  mpi::run_spmd(cluster, 8, [&](mpi::Comm comm) -> sim::Task<void> {
    std::vector<CbChunk> mine;
    if (comm.rank() % 2 == 0) {  // only even ranks write
      const std::uint64_t off = static_cast<std::uint64_t>(comm.rank()) * 10000;
      mine.push_back(CbChunk{off, DataView::pattern(3, off, 10000)});
    }
    EXPECT_TRUE((co_await cb_write(comm, CbConfig{}, std::move(mine),
                                   file.writer(comm.rank())))
                    .ok());
  });
  for (int r = 0; r < 8; r += 2) {
    const std::uint64_t off = static_cast<std::uint64_t>(r) * 10000;
    EXPECT_TRUE(file.map.read(off, 10000).content_equals(DataView::pattern(3, off, 10000)));
  }
}

// An aggregator whose PFS write fails still meets its peers in the
// trailing barrier: every rank returns, and only that aggregator fails.
TEST(CbWrite, FailedAggregatorWriteStillMeetsPeers) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  const int n = 16;
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
    const WriteFn inner = file.writer(comm.rank());
    const WriteFn failing = [&inner, rank = comm.rank()](std::uint64_t off,
                                                         DataView data) -> sim::Task<Status> {
      if (rank == 4) co_return error(Errc::io_error, "injected");  // aggregator 1
      co_return co_await inner(off, std::move(data));
    };
    const Status st =
        co_await cb_write(comm, CbConfig{}, strided_chunks(comm.rank(), n, 32, 1024, 7), failing);
    if (!st.ok()) ++failures;
    ++returned;
  });
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(returned, n);
  EXPECT_EQ(file.writer_ranks, (std::set<int>{0, 8, 12}));
}

TEST(CbRead, ReturnsEveryRequestInOrderAndOnlyAggregatorsRead) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  const int n = 16;
  const int rounds = 32;
  // Seed the file directly.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * rounds * 1024;
  file.map.write(0, DataView::pattern(7, 0, total));
  file.size = total;

  mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
    std::vector<CbRange> wants;
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(r) * n + static_cast<std::uint64_t>(comm.rank())) * 1024;
      wants.push_back(CbRange{off, 1024});
    }
    std::vector<FragmentList> got;
    EXPECT_TRUE(
        (co_await cb_read(comm, CbConfig{}, wants, file.reader(comm.rank()), &got)).ok());
    EXPECT_EQ(got.size(), wants.size());
    for (std::size_t i = 0; i < wants.size(); ++i) {
      EXPECT_TRUE(got[i].content_equals(DataView::pattern(7, wants[i].offset, wants[i].len)))
          << "rank " << comm.rank() << " want " << i;
    }
  });
  EXPECT_EQ(file.reader_ranks, (std::set<int>{0, 4, 8, 12}));
}

// An aggregator whose PFS read fails still answers every requester, and
// the failure rides its replies: with strided wants, every rank asked it
// for data, so every rank returns the failure instead of waiting forever.
TEST(CbRead, FailedAggregatorReadStillMeetsPeers) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  const int n = 16;
  const int rounds = 32;
  const std::uint64_t total = static_cast<std::uint64_t>(n) * rounds * 1024;
  file.map.write(0, DataView::pattern(7, 0, total));
  file.size = total;
  int failures = 0;
  int returned = 0;
  mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
    const ReadFn inner = file.reader(comm.rank());
    const ReadFn failing = [&inner, rank = comm.rank()](std::uint64_t off, std::uint64_t len)
        -> sim::Task<Result<FragmentList>> {
      if (rank == 4) co_return error(Errc::io_error, "injected");  // aggregator 1
      co_return co_await inner(off, len);
    };
    std::vector<CbRange> wants;
    for (const CbChunk& c : strided_chunks(comm.rank(), n, rounds, 1024, 7)) {
      wants.push_back(CbRange{c.offset, c.data.size()});
    }
    std::vector<FragmentList> got;
    if (!(co_await cb_read(comm, CbConfig{}, wants, failing, &got)).ok()) ++failures;
    ++returned;
  });
  EXPECT_EQ(failures, n);
  EXPECT_EQ(returned, n);
}

TEST(CbRead, RequestSpanningDomainBoundaryIsReassembled) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  file.map.write(0, DataView::pattern(5, 0, 100000));
  file.size = 100000;
  CbConfig cb;
  cb.aggregators = 4;
  mpi::run_spmd(cluster, 4, [&](mpi::Comm comm) -> sim::Task<void> {
    // One large request per rank covering multiple aggregator domains.
    std::vector<CbRange> wants = {CbRange{static_cast<std::uint64_t>(comm.rank()) * 10000,
                                          60000 - static_cast<std::uint64_t>(comm.rank())}};
    std::vector<FragmentList> got;
    EXPECT_TRUE((co_await cb_read(comm, cb, wants, file.reader(comm.rank()), &got)).ok());
    EXPECT_TRUE(got[0].content_equals(DataView::pattern(5, wants[0].offset, wants[0].len)));
  });
}

TEST(CbRead, PastEofComesBackZeroPadded) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  Recorder file;
  file.map.write(0, DataView::pattern(5, 0, 1000));
  file.size = 1000;
  mpi::run_spmd(cluster, 2, [&](mpi::Comm comm) -> sim::Task<void> {
    std::vector<CbRange> wants = {CbRange{500, 1000}};  // half beyond EOF
    std::vector<FragmentList> got;
    EXPECT_TRUE(
        (co_await cb_read(comm, CbConfig{}, wants, file.reader(comm.rank()), &got)).ok());
    EXPECT_EQ(got[0].size(), 1000u);
    EXPECT_EQ(got[0].at(0), DataView::pattern_byte(5, 500));
    EXPECT_EQ(got[0].at(999), std::byte{0});
  });
}

}  // namespace
}  // namespace tio::iolib
