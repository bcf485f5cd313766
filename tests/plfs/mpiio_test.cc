// Collective-layer tests: the three index-aggregation strategies over the
// simulated PFS and MPI runtime.
#include "plfs/mpiio.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "localfs/mem_fs.h"
#include "pfs/sim_pfs.h"

namespace tio::plfs {
namespace {

using pfs::IoCtx;

struct World {
  explicit World(std::size_t backends = 4, std::size_t mds = 4)
      : cluster(engine, cluster_config()), pfs(cluster, pfs_config(mds)),
        plfs(pfs, mount_config(backends)) {
    for (const auto& b : plfs.mount().backends) {
      if (!pfs.ns().mkdir_all(b).ok()) std::abort();
    }
  }
  static net::ClusterConfig cluster_config() {
    net::ClusterConfig c;
    c.nodes = 16;
    c.cores_per_node = 4;
    return c;
  }
  static pfs::PfsConfig pfs_config(std::size_t mds) {
    pfs::PfsConfig c;
    c.num_mds = mds;
    c.num_osts = 8;
    return c;
  }
  static PlfsMount mount_config(std::size_t backends) {
    PlfsMount m;
    for (std::size_t i = 0; i < backends; ++i) {
      m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
    }
    m.num_subdirs = 8;
    m.index_flush_every = 8;
    return m;
  }

  sim::Engine engine;
  net::Cluster cluster;
  pfs::SimPfs pfs;
  Plfs plfs;
};

// Writes a strided N-1 file collectively; returns nothing. Each rank writes
// `rounds` records of `record` bytes at stride nprocs.
sim::Task<void> write_strided(Plfs& plfs, mpi::Comm comm, std::string path, std::uint64_t record,
                              int rounds, bool flatten) {
  auto file = co_await MpiFile::open_write(plfs, comm, path);
  EXPECT_TRUE(file.ok()) << file.status();
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(r) * comm.size() + comm.rank()) * record;
    EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(42, off, record))).ok());
  }
  EXPECT_TRUE((co_await (*file)->close_write(flatten)).ok());
}

sim::Task<void> read_and_verify(Plfs& plfs, mpi::Comm comm, std::string path,
                                std::uint64_t record, int rounds, ReadStrategy strategy) {
  auto file = co_await MpiFile::open_read(plfs, comm, path, strategy);
  EXPECT_TRUE(file.ok()) << file.status();
  const std::uint64_t total = static_cast<std::uint64_t>(rounds) * comm.size() * record;
  EXPECT_EQ((*file)->logical_size(), total);
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t off =
        (static_cast<std::uint64_t>(r) * comm.size() + comm.rank()) * record;
    auto fl = co_await (*file)->read(off, record);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(DataView::pattern(42, off, record)))
        << "rank " << comm.rank() << " round " << r;
  }
  EXPECT_TRUE((co_await (*file)->close_read()).ok());
}

class Strategies : public ::testing::TestWithParam<ReadStrategy> {};

TEST_P(Strategies, WriteThenReadBackVerifies) {
  World w;
  const ReadStrategy strategy = GetParam();
  const bool flatten = strategy == ReadStrategy::index_flatten;
  mpi::run_spmd(w.cluster, 12, [&w, flatten](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/ckpt", 5000, 6, flatten);
  });
  mpi::run_spmd(w.cluster, 12, [&w, strategy](mpi::Comm comm) -> sim::Task<void> {
    co_await read_and_verify(w.plfs, comm, "/ckpt", 5000, 6, strategy);
  });
}

TEST_P(Strategies, NonUniformRankCountsWork) {
  World w;
  const ReadStrategy strategy = GetParam();
  mpi::run_spmd(w.cluster, 7, [&w, strategy](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/odd", 3000, 5,
                           strategy == ReadStrategy::index_flatten);
    co_await read_and_verify(w.plfs, comm, "/odd", 3000, 5, strategy);
  });
}

INSTANTIATE_TEST_SUITE_P(All, Strategies,
                         ::testing::Values(ReadStrategy::original,
                                           ReadStrategy::index_flatten,
                                           ReadStrategy::parallel_read),
                         [](const auto& info) {
                           switch (info.param) {
                             case ReadStrategy::original: return "Original";
                             case ReadStrategy::index_flatten: return "Flatten";
                             case ReadStrategy::parallel_read: return "ParallelRead";
                           }
                           return "Unknown";
                         });

TEST(StrategyEquivalence, AllThreeStrategiesProduceTheSameIndex) {
  World w;
  const int n = 9;
  mpi::run_spmd(w.cluster, n, [&w](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/eq", 2000, 4, /*flatten=*/true);
  });
  std::vector<IndexPtr> indices;
  for (const auto strategy : {ReadStrategy::original, ReadStrategy::index_flatten,
                              ReadStrategy::parallel_read}) {
    IndexPtr got;
    mpi::run_spmd(w.cluster, n, [&w, &got, strategy](mpi::Comm comm) -> sim::Task<void> {
      auto idx = co_await aggregate_index(w.plfs, comm, "/eq", strategy);
      EXPECT_TRUE(idx.ok());
      if (comm.rank() == 0) got = *idx;
    });
    indices.push_back(got);
  }
  const std::uint64_t total = 9 * 4 * 2000;
  for (std::size_t i = 1; i < indices.size(); ++i) {
    EXPECT_EQ(indices[0]->logical_size(), indices[i]->logical_size());
    EXPECT_EQ(indices[0]->lookup(0, total), indices[i]->lookup(0, total));
  }
}

TEST(StrategyCost, OriginalDoesQuadraticOpensParallelDoesLinear) {
  const int n = 16;
  auto count_opens = [&](ReadStrategy strategy) {
    World w;
    mpi::run_spmd(w.cluster, n, [&w](mpi::Comm comm) -> sim::Task<void> {
      co_await write_strided(w.plfs, comm, "/f", 1000, 3, /*flatten=*/false);
    });
    const std::uint64_t before = w.pfs.stats().opens;
    mpi::run_spmd(w.cluster, n, [&w, strategy](mpi::Comm comm) -> sim::Task<void> {
      auto idx = co_await aggregate_index(w.plfs, comm, "/f", strategy);
      EXPECT_TRUE(idx.ok());
    });
    return w.pfs.stats().opens - before;
  };
  const std::uint64_t original = count_opens(ReadStrategy::original);
  const std::uint64_t parallel = count_opens(ReadStrategy::parallel_read);
  // Original: every rank opens every index log -> n^2. Parallel: each log
  // opened once -> n.
  EXPECT_GE(original, static_cast<std::uint64_t>(n) * n);
  EXPECT_LT(parallel, static_cast<std::uint64_t>(n) * 3);
  EXPECT_GT(original, parallel * 8);
}

TEST(Flatten, GlobalIndexFileWrittenOnlyWhenRequested) {
  World w;
  mpi::run_spmd(w.cluster, 8, [&w](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/noflat", 1000, 2, /*flatten=*/false);
    co_await write_strided(w.plfs, comm, "/flat", 1000, 2, /*flatten=*/true);
  });
  EXPECT_FALSE(w.pfs.ns().exists(w.plfs.layout("/noflat").global_index_path()));
  EXPECT_TRUE(w.pfs.ns().exists(w.plfs.layout("/flat").global_index_path()));
}

TEST(Flatten, SkippedWhenAnyWriterExceedsThreshold) {
  World w;
  PlfsMount m = w.plfs.mount();
  m.flatten_threshold = 3;  // writers produce 4 entries each
  Plfs plfs(w.pfs, m);
  mpi::run_spmd(w.cluster, 4, [&plfs](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(plfs, comm, "/big", 1000, 4, /*flatten=*/true);
  });
  EXPECT_FALSE(w.pfs.ns().exists(plfs.layout("/big").global_index_path()));
  // Reading with the flatten strategy still works: the missing global index
  // makes the collective degrade to Parallel Index Read.
  const std::uint64_t fallbacks_before = counter("plfs.degrade.index_fallback").value();
  mpi::run_spmd(w.cluster, 4, [&plfs](mpi::Comm comm) -> sim::Task<void> {
    auto idx = co_await aggregate_index(plfs, comm, "/big", ReadStrategy::index_flatten);
    EXPECT_TRUE(idx.ok());
    if (idx.ok()) EXPECT_EQ((*idx)->logical_size(), 4u * 4 * 1000);
  });
  EXPECT_EQ(counter("plfs.degrade.index_fallback").value(), fallbacks_before + 1);
}

TEST(Flatten, CloseIsSlowerWithFlattenOpenIsFaster) {
  auto timed_run = [](bool flatten) {
    World w;
    double close_time = 0, open_time = 0;
    mpi::run_spmd(w.cluster, 16, [&](mpi::Comm comm) -> sim::Task<void> {
      auto file = co_await MpiFile::open_write(w.plfs, comm, "/t");
      EXPECT_TRUE(file.ok());
      for (int r = 0; r < 32; ++r) {
        const std::uint64_t off =
            (static_cast<std::uint64_t>(r) * comm.size() + comm.rank()) * 1000;
        EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(1, off, 1000))).ok());
      }
      co_await comm.barrier();
      const TimePoint t0 = comm.engine().now();
      EXPECT_TRUE((co_await (*file)->close_write(flatten)).ok());
      if (comm.rank() == 0) close_time = (comm.engine().now() - t0).to_seconds();

      const TimePoint t1 = comm.engine().now();
      auto rf = co_await MpiFile::open_read(
          w.plfs, comm, "/t",
          flatten ? ReadStrategy::index_flatten : ReadStrategy::original);
      EXPECT_TRUE(rf.ok());
      if (comm.rank() == 0) open_time = (comm.engine().now() - t1).to_seconds();
      EXPECT_TRUE((co_await (*rf)->close_read()).ok());
    });
    return std::make_pair(close_time, open_time);
  };
  const auto [close_flat, open_flat] = timed_run(true);
  const auto [close_orig, open_orig] = timed_run(false);
  EXPECT_GT(close_flat, close_orig);  // flatten pays at close...
  EXPECT_LT(open_flat, open_orig);    // ...and wins at open
}

TEST(ParallelRead, GroupSizeConfigurationIsHonoured) {
  World w;
  PlfsMount m = w.plfs.mount();
  m.parallel_read_group = 3;  // groups of 3 over 10 ranks -> 4 groups
  Plfs plfs(w.pfs, m);
  mpi::run_spmd(w.cluster, 10, [&plfs](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(plfs, comm, "/g", 1000, 2, false);
    co_await read_and_verify(plfs, comm, "/g", 1000, 2, ReadStrategy::parallel_read);
  });
}

TEST(ParallelRead, WorksWithSingleRank) {
  World w;
  mpi::run_spmd(w.cluster, 1, [&w](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/solo", 1000, 4, false);
    co_await read_and_verify(w.plfs, comm, "/solo", 1000, 4, ReadStrategy::parallel_read);
  });
}

TEST(ParallelRead, MoreRanksThanIndexLogs) {
  // Restart with a different (larger) process count than the writer job.
  World w;
  mpi::run_spmd(w.cluster, 4, [&w](mpi::Comm comm) -> sim::Task<void> {
    co_await write_strided(w.plfs, comm, "/grow", 2000, 4, false);
  });
  mpi::run_spmd(w.cluster, 16, [&w](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_read(w.plfs, comm, "/grow",
                                            ReadStrategy::parallel_read);
    EXPECT_TRUE(file.ok());
    EXPECT_EQ((*file)->logical_size(), 4u * 4 * 2000);
    // Every rank reads the whole file in slices.
    const std::uint64_t slice = 4ull * 4 * 2000 / 16;
    auto fl = co_await (*file)->read(comm.rank() * slice, slice);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(DataView::pattern(42, comm.rank() * slice, slice)));
    EXPECT_TRUE((co_await (*file)->close_read()).ok());
  });
}

TEST(ParallelRead, UnlistableFileFailsOnEveryRank) {
  // Rank 0 cannot list the index logs of a file that was never written;
  // its sentinel must release every other rank from the collective.
  World w;
  std::vector<Errc> codes(8, Errc::ok);
  mpi::run_spmd(w.cluster, 8, [&w, &codes](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_read(w.plfs, comm, "/never-written",
                                            ReadStrategy::parallel_read);
    codes[static_cast<std::size_t>(comm.rank())] = file.status().code();
  });
  EXPECT_EQ(codes[0], Errc::not_found);
  for (int r = 1; r < 8; ++r) EXPECT_EQ(codes[static_cast<std::size_t>(r)], Errc::io_error) << r;
}

TEST(MpiFile, ReadBeforeOpenFails) {
  World w;
  mpi::run_spmd(w.cluster, 2, [&w](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_write(w.plfs, comm, "/x");
    EXPECT_TRUE(file.ok());
    EXPECT_EQ((co_await (*file)->read(0, 10)).status().code(), Errc::bad_handle);
    EXPECT_TRUE((co_await (*file)->close_write(false)).ok());
    EXPECT_EQ((co_await (*file)->write(0, DataView::zeros(1))).code(), Errc::bad_handle);
  });
}

}  // namespace
}  // namespace tio::plfs
