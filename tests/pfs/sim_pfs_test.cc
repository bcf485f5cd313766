#include "pfs/sim_pfs.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace tio::pfs {
namespace {

net::ClusterConfig test_cluster() {
  net::ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 4;
  c.storage_net_bandwidth = 1e9;
  c.storage_nic_bandwidth = 1e9;
  c.page_cache_per_node = 64_MiB;
  c.page_cache_block = 64_KiB;
  return c;
}

PfsConfig test_pfs() {
  PfsConfig c;
  c.num_mds = 4;
  c.num_osts = 8;
  return c;
}

class SimPfsTest : public ::testing::Test {
 protected:
  SimPfsTest() : cluster_(engine_, test_cluster()), fs_(cluster_, test_pfs()) {}

  sim::Engine engine_;
  net::Cluster cluster_;
  SimPfs fs_;
  IoCtx ctx_{0, 0};
};

TEST_F(SimPfsTest, CreateWriteReadRoundTrip) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok()) << fd.status();
    const auto data = DataView::pattern(1, 0, 100000);
    auto n = co_await fs.write(ctx, *fd, 0, data);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(*n, 100000u);
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());

    auto rfd = co_await fs.open(ctx, "/f", OpenFlags::ro());
    EXPECT_TRUE(rfd.ok());
    auto fl = co_await fs.read(ctx, *rfd, 0, 100000);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(data));
    EXPECT_TRUE((co_await fs.close(ctx, *rfd)).ok());
  }(fs_, ctx_));
  EXPECT_GT(engine_.now().to_ns(), 0);
  EXPECT_EQ(fs_.stats().bytes_written, 100000u);
}

TEST_F(SimPfsTest, OpenMissingWithoutCreateFails) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/missing", OpenFlags::ro());
    EXPECT_EQ(fd.status().code(), Errc::not_found);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, ExclCreateOfExistingFails) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create_excl());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    auto again = co_await fs.open(ctx, "/f", OpenFlags::wr_create_excl());
    EXPECT_EQ(again.status().code(), Errc::exists);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, CreateInMissingParentFails) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/no/such/dir/f", OpenFlags::wr_create());
    EXPECT_EQ(fd.status().code(), Errc::not_found);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, TruncResetsContent) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 5000))).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    auto fd2 = co_await fs.open(ctx, "/f", OpenFlags::wr_trunc());
    EXPECT_TRUE(fd2.ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd2)).ok());
    auto st = co_await fs.stat(ctx, "/f");
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(st->size, 0u);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, ReadPastEofIsShort) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 100))).ok());
    auto fl = co_await fs.read(ctx, *fd, 50, 1000);
    EXPECT_TRUE(fl.ok());
    EXPECT_EQ(fl->size(), 50u);
    auto beyond = co_await fs.read(ctx, *fd, 200, 10);
    EXPECT_TRUE(beyond.ok());
    EXPECT_EQ(beyond->size(), 0u);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, HolesReadAsZeros) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 100000, DataView::pattern(1, 0, 10))).ok());
    auto fl = co_await fs.read(ctx, *fd, 0, 100);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(DataView::zeros(100)));
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, PermissionChecks) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto wfd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(wfd.ok());
    auto r = co_await fs.read(ctx, *wfd, 0, 10);
    EXPECT_EQ(r.status().code(), Errc::permission);
    EXPECT_TRUE((co_await fs.close(ctx, *wfd)).ok());
    auto rfd = co_await fs.open(ctx, "/f", OpenFlags::ro());
    EXPECT_TRUE(rfd.ok());
    auto w = co_await fs.write(ctx, *rfd, 0, DataView::zeros(1));
    EXPECT_EQ(w.status().code(), Errc::permission);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, BadHandleIsRejected) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_EQ((co_await fs.close(ctx, 999)).code(), Errc::bad_handle);
    EXPECT_EQ((co_await fs.read(ctx, 999, 0, 1)).status().code(), Errc::bad_handle);
    EXPECT_EQ((co_await fs.write(ctx, 999, 0, DataView::zeros(1))).status().code(),
              Errc::bad_handle);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, ClosedFdIsDeadAndNeverReused) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::zeros(10))).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    // The closed fd's slot is a tombstone: every op on it fails.
    EXPECT_EQ((co_await fs.read(ctx, *fd, 0, 1)).status().code(), Errc::bad_handle);
    EXPECT_EQ((co_await fs.write(ctx, *fd, 0, DataView::zeros(1))).status().code(),
              Errc::bad_handle);
    EXPECT_EQ((co_await fs.close(ctx, *fd)).code(), Errc::bad_handle);
    // A fresh open of the same file gets the next id, not the dead one, and
    // the dead one stays dead.
    auto again = co_await fs.open(ctx, "/f", OpenFlags::ro());
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(*again, *fd + 1);
    EXPECT_EQ((co_await fs.read(ctx, *fd, 0, 1)).status().code(), Errc::bad_handle);
    EXPECT_EQ((co_await fs.read(ctx, *again, 0, 10)).value().size(), 10u);
    EXPECT_EQ((co_await fs.close(ctx, 0)).code(), Errc::bad_handle);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, StatReportsSizeAndMtime) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok());
    const TimePoint before = fs.engine().now();
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 12345))).ok());
    auto st = co_await fs.stat(ctx, "/f");
    EXPECT_TRUE(st.ok());
    EXPECT_FALSE(st->is_dir);
    EXPECT_EQ(st->size, 12345u);
    EXPECT_GT(st->mtime.to_ns(), before.to_ns());
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, MkdirReaddirUnlinkFlow) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    for (int i = 0; i < 3; ++i) {
      auto fd = co_await fs.open(ctx, "/d/f" + std::to_string(i), OpenFlags::wr_create());
      EXPECT_TRUE(fd.ok());
      EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    }
    auto entries = co_await fs.readdir(ctx, "/d");
    EXPECT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 3u);
    EXPECT_TRUE((co_await fs.unlink(ctx, "/d/f0")).ok());
    entries = co_await fs.readdir(ctx, "/d");
    EXPECT_EQ(entries->size(), 2u);
  }(fs_, ctx_));
}

// A mkdir under a missing parent fails after the parent's MDS open round
// trip, like every failed metadata op, and creates nothing.
TEST_F(SimPfsTest, MkdirInMissingParentFailsAfterAnMdsRoundTrip) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_EQ((co_await fs.mkdir(ctx, "/no/such")).code(), Errc::not_found);
    EXPECT_EQ((co_await fs.stat(ctx, "/no/such")).status().code(), Errc::not_found);
  }(fs_, ctx_));
  EXPECT_EQ(fs_.stats().metadata_ops, 2u);  // the failed mkdir's and the stat's
  const PfsConfig c = test_pfs();
  const Duration rtt = c.rpc_overhead + test_cluster().storage_net_latency;
  EXPECT_EQ(engine_.now().to_ns(), (rtt + c.mds_open_time + rtt + c.mds_stat_time).to_ns());
}

// --- model-behaviour tests ---

// The unreplicated, unbatched create instant in closed form: the
// serialized insert round trip into a directory holding a quarter of
// dir_degrade_entries (so the insert costs 1.25x), then the
// object-creation round trip.
TEST_F(SimPfsTest, UnbatchedCreateIsTwoRoundTripsPlusDegradedInsertPlusCreate) {
  const PfsConfig& c = fs_.config();
  const std::uint64_t entries = c.dir_degrade_entries / 4;
  ASSERT_TRUE(fs_.ns().mkdir("/d").ok());
  for (std::uint64_t i = 0; i < entries; ++i) {
    ASSERT_TRUE(fs_.ns().create_file("/d/x" + std::to_string(i), true).ok());
  }
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.open(ctx, "/d/f", OpenFlags::wr_create())).ok());
  }(fs_, ctx_));
  const Duration round_trip = c.rpc_overhead + cluster_.storage_latency();
  const Duration insert = Duration::seconds(c.dir_insert_time.to_seconds() * 1.25);
  EXPECT_EQ(engine_.now().to_ns(), (round_trip * 2 + insert + c.mds_create_time).to_ns());
  EXPECT_EQ(fs_.stats().metadata_ops, 2u);
  EXPECT_EQ(fs_.stats().creates, 1u);
}

TEST_F(SimPfsTest, SharedFileInterleavedWritersPayLockTransfers) {
  test::run_task(engine_, [](SimPfs& fs) -> sim::Task<void> {
    auto fd = co_await fs.open(IoCtx{0, 0}, "/shared", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok());
    // Rank 0 then rank 1 write the same region repeatedly: ping-pong, even
    // when the ranks share a node (per-process lock ownership).
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE((co_await fs.write(IoCtx{0, 0}, *fd, 0, DataView::zeros(1000))).ok());
      EXPECT_TRUE((co_await fs.write(IoCtx{0, 1}, *fd, 0, DataView::zeros(1000))).ok());
    }
  }(fs_));
  EXPECT_EQ(fs_.stats().lock_grants, 1u);
  EXPECT_EQ(fs_.stats().lock_transfers, 7u);
}

TEST_F(SimPfsTest, SameRankRepeatedWritesDoNotPingPong) {
  test::run_task(engine_, [](SimPfs& fs) -> sim::Task<void> {
    auto fd = co_await fs.open(IoCtx{0, 0}, "/shared", OpenFlags::wr_create());
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await fs.write(IoCtx{0, 0}, *fd, 0, DataView::zeros(1000))).ok());
    }
  }(fs_));
  EXPECT_EQ(fs_.stats().lock_transfers, 0u);
  EXPECT_EQ(fs_.stats().lock_grants, 1u);
}

// The lock table holds only the ranges writes touched: one byte 16 GiB
// into a file takes one range, not every range before it.
TEST_F(SimPfsTest, FarWriteHoldsOneLockRange) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/sparse", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 16_GiB, DataView::zeros(1))).ok());
  }(fs_, ctx_));
  EXPECT_EQ(fs_.lock_ranges_held(), 1u);
  EXPECT_EQ(fs_.stats().lock_grants, 1u);
}

TEST_F(SimPfsTest, PerProcessFilesAvoidLockTraffic) {
  test::run_task(engine_, [](SimPfs& fs) -> sim::Task<void> {
    for (int node = 0; node < 4; ++node) {
      auto fd = co_await fs.open(IoCtx{static_cast<std::size_t>(node), node},
                                 "/file" + std::to_string(node), OpenFlags::wr_create());
      // (per-process files: stable single owner per lock range)
      EXPECT_TRUE(fd.ok());
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE((co_await fs.write(IoCtx{static_cast<std::size_t>(node), node}, *fd,
                                       i * 1000, DataView::zeros(1000)))
                        .ok());
      }
    }
  }(fs_));
  EXPECT_EQ(fs_.stats().lock_transfers, 0u);
}

TEST_F(SimPfsTest, UnalignedInteriorWritePaysRmwButAppendDoesNot) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    // Pure appends, unaligned: no RMW.
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::zeros(50000))).ok());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 50000, DataView::zeros(50000))).ok());
    EXPECT_EQ(fs.stats().rmw_reads, 0u);
    // Interior unaligned overwrite: RMW.
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 1000, DataView::zeros(100))).ok());
    EXPECT_EQ(fs.stats().rmw_reads, 1u);
    // Interior aligned overwrite: no RMW.
    EXPECT_TRUE(
        (co_await fs.write(ctx, *fd, 0, DataView::zeros(fs.config().rmw_page))).ok());
    EXPECT_EQ(fs.stats().rmw_reads, 1u);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, RereadHitsPageCacheAndIsFaster) {
  Duration first, second;
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx, Duration& d1, Duration& d2) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 4_MiB))).ok());
    fs.drop_caches();
    TimePoint t0 = fs.engine().now();
    EXPECT_TRUE((co_await fs.read(ctx, *fd, 0, 4_MiB)).ok());
    d1 = fs.engine().now() - t0;
    t0 = fs.engine().now();
    EXPECT_TRUE((co_await fs.read(ctx, *fd, 0, 4_MiB)).ok());
    d2 = fs.engine().now() - t0;
  }(fs_, ctx_, first, second));
  EXPECT_GT(fs_.stats().cache_hit_bytes, 0u);
  EXPECT_LT(second.to_seconds() * 2, first.to_seconds());
}

TEST_F(SimPfsTest, CacheDoesNotServeOtherNodes) {
  test::run_task(engine_, [](SimPfs& fs) -> sim::Task<void> {
    auto fd = co_await fs.open(IoCtx{0, 0}, "/f",
                               OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE((co_await fs.write(IoCtx{0, 0}, *fd, 0, DataView::pattern(1, 0, 1_MiB))).ok());
    // Reader on another node: all misses.
    EXPECT_TRUE((co_await fs.read(IoCtx{1, 1}, *fd, 0, 1_MiB)).ok());
  }(fs_));
  EXPECT_EQ(fs_.stats().cache_hit_bytes, 0u);
}

TEST_F(SimPfsTest, SequentialReadFasterThanRandom) {
  // Two files of identical content; one read sequentially, one randomly.
  // Server DRAM caching is disabled so the platter model is visible.
  PfsConfig cfg = test_pfs();
  cfg.ost_cache_bytes = 0;
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  SimPfs fs_nocache(cluster, cfg);
  Duration seq_time, rand_time;
  test::run_task(engine, [](SimPfs& fs, IoCtx ctx, Duration& seq, Duration& rnd) -> sim::Task<void> {
    const std::uint64_t chunk = 64_KiB;
    const int chunks = 32;
    for (const char* name : {"/seq", "/rand"}) {
      auto fd = co_await fs.open(ctx, name, OpenFlags::wr_create());
      for (int i = 0; i < chunks; ++i) {
        EXPECT_TRUE(
            (co_await fs.write(ctx, *fd, i * chunk, DataView::pattern(1, i * chunk, chunk))).ok());
      }
      EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    }
    fs.drop_caches();
    auto fd = co_await fs.open(ctx, "/seq", OpenFlags::ro());
    TimePoint t0 = fs.engine().now();
    for (int i = 0; i < chunks; ++i) {
      EXPECT_TRUE((co_await fs.read(ctx, *fd, i * chunk, chunk)).ok());
    }
    seq = fs.engine().now() - t0;
    fs.drop_caches();
    auto fd2 = co_await fs.open(ctx, "/rand", OpenFlags::ro());
    t0 = fs.engine().now();
    // Deterministic shuffled order with large jumps (beyond near_gap).
    for (int i = 0; i < chunks; ++i) {
      const int j = (i * 17 + 5) % chunks;
      EXPECT_TRUE((co_await fs.read(ctx, *fd2, j * chunk, chunk)).ok());
    }
    rnd = fs.engine().now() - t0;
  }(fs_nocache, ctx_, seq_time, rand_time));
  EXPECT_LT(seq_time.to_seconds() * 2, rand_time.to_seconds());
}

TEST_F(SimPfsTest, CreatesInOneDirectorySerialize) {
  // 32 concurrent creators in one dir vs 32 dirs: shared dir takes longer.
  auto run_creates = [](bool same_dir) {
    sim::Engine engine;
    net::Cluster cluster(engine, test_cluster());
    SimPfs fs(cluster, test_pfs());
    test::run_task(engine, [](SimPfs& f, bool same) -> sim::Task<void> {
      if (!same) {
        for (int i = 0; i < 32; ++i) {
          EXPECT_TRUE((co_await f.mkdir(IoCtx{0, 0}, "/d" + std::to_string(i))).ok());
        }
      }
      co_return;
    }(fs, same_dir));
    sim::WaitGroup wg(engine);
    auto creator = [](SimPfs& f, bool same, int i, sim::WaitGroup& w) -> sim::Task<void> {
      const std::string path =
          same ? "/f" + std::to_string(i) : "/d" + std::to_string(i) + "/f";
      auto fd = co_await f.open(IoCtx{static_cast<std::size_t>(i % 8), i},
                                path, OpenFlags::wr_create());
      EXPECT_TRUE(fd.ok());
      w.done();
    };
    const TimePoint t0 = engine.now();
    for (int i = 0; i < 32; ++i) {
      wg.add();
      engine.spawn(creator(fs, same_dir, i, wg));
    }
    engine.run();
    return (engine.now() - t0).to_seconds();
  };
  const double same_dir_time = run_creates(true);
  const double spread_time = run_creates(false);
  EXPECT_GT(same_dir_time, spread_time * 1.5);
}

TEST_F(SimPfsTest, MdsPlacementIsByTopLevelComponent) {
  // Same top-level dir -> same MDS regardless of depth; and with 4 MDS,
  // some standard volume names must spread.
  EXPECT_EQ(fs_.mds_of_path("/vol0/a/b"), fs_.mds_of_path("/vol0/x"));
  EXPECT_EQ(fs_.mds_of_path("/vol0"), fs_.mds_of_path("/vol0/deep/er/path"));
  bool spread = false;
  for (int i = 1; i < 8; ++i) {
    if (fs_.mds_of_path("/vol" + std::to_string(i)) != fs_.mds_of_path("/vol0")) spread = true;
  }
  EXPECT_TRUE(spread);
}

TEST_F(SimPfsTest, DirectoryDegradationSlowsLateInserts) {
  PfsConfig cfg = test_pfs();
  cfg.dir_degrade_entries = 64;
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  SimPfs fs(cluster, cfg);
  Duration early, late;
  test::run_task(engine, [](SimPfs& f, Duration& d_early, Duration& d_late) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    TimePoint t0 = f.engine().now();
    auto fd = co_await f.open(ctx, "/f0", OpenFlags::wr_create());
    d_early = f.engine().now() - t0;
    EXPECT_TRUE(fd.ok());
    for (int i = 1; i < 256; ++i) {
      EXPECT_TRUE((co_await f.open(ctx, "/f" + std::to_string(i), OpenFlags::wr_create())).ok());
    }
    t0 = f.engine().now();
    EXPECT_TRUE((co_await f.open(ctx, "/f_last", OpenFlags::wr_create())).ok());
    d_late = f.engine().now() - t0;
  }(fs, early, late));
  EXPECT_GT(late.to_seconds(), early.to_seconds() * 2);
}

TEST_F(SimPfsTest, UnlinkedFileIsGone) {
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::zeros(10))).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    EXPECT_TRUE((co_await fs.unlink(ctx, "/f")).ok());
    auto r = co_await fs.open(ctx, "/f", OpenFlags::ro());
    EXPECT_EQ(r.status().code(), Errc::not_found);
  }(fs_, ctx_));
}

TEST_F(SimPfsTest, RaftWireBytesCountTheNormalizedPathPerCommand) {
  // 32 bytes per batch, then 48 bytes plus the normalized path's length per
  // command, read from the path table (no path string travels).
  ASSERT_TRUE(fs_.ns().mkdir_all("/vol1/dir").ok());
  const std::vector<std::string> paths = {"/vol1/dir/file0", "/vol1/dir", "/x", "/"};
  MetaBatch batch;
  std::uint64_t want = 32;
  for (const std::string& p : paths) {
    batch.cmds.push_back(MetaCommand{MetaCommand::Kind::create, fs_.ns().intern(p), false});
    want += 48 + p.size();
  }
  EXPECT_EQ(fs_.wire_bytes(batch), want);
  MetaBatch raw;
  raw.cmds.push_back(
      MetaCommand{MetaCommand::Kind::unlink, fs_.ns().intern("//vol1/./dir//file0/"), false});
  EXPECT_EQ(fs_.wire_bytes(raw), 32u + 48u + std::string("/vol1/dir/file0").size());
  EXPECT_EQ(fs_.wire_bytes(MetaBatch{}), 32u);
}

TEST_F(SimPfsTest, CachedGroupMatchesThePlacementRule) {
  // volK maps round-robin (4 MDS here); other top components hash. Every
  // interned entry caches its top component's group, the root caches 0.
  const Namespace& ns = fs_.ns();
  EXPECT_EQ(ns.group(kRootPath), 0u);
  EXPECT_EQ(fs_.mds_of_path("/"), 0u);
  for (const char* p : {"/vol0/a", "/vol1/a/b", "/vol3", "/vol7/x/y/z", "/vol12/x", "/volx/y",
                        "/vol/y", "/home/u/f", "/scratch", "//proj/./a//b/"}) {
    SCOPED_TRACE(p);
    const PathId id = fs_.ns().intern(p);
    EXPECT_EQ(ns.group(id), fs_.mds_of_path(p));
    for (PathId a = id; a != kRootPath; a = ns.parent(a)) {
      EXPECT_EQ(ns.group(a), fs_.mds_of_path(ns.path_of(a)));
    }
  }
  EXPECT_EQ(ns.group(ns.find("/vol1/a/b")), 1u);
  EXPECT_EQ(ns.group(ns.find("/vol7/x/y/z")), 3u);
  EXPECT_EQ(ns.group(ns.find("/vol12/x")), 0u);
}

TEST_F(SimPfsTest, UnlinkThenRecreateGetsFreshObjectWithEmptyExtents) {
  ObjectId first = kNoObject;
  ObjectId second = kNoObject;
  test::run_task(engine_, [](SimPfs& fs, IoCtx ctx, ObjectId& a, ObjectId& b) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(3, 0, 4096))).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    a = fs.ns().lookup("/f")->oid;
    EXPECT_TRUE((co_await fs.unlink(ctx, "/f")).ok());
    auto again = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(again.ok());
    EXPECT_TRUE((co_await fs.close(ctx, *again)).ok());
    b = fs.ns().lookup("/f")->oid;
  }(fs_, ctx_, first, second));
  EXPECT_NE(first, kNoObject);
  EXPECT_NE(second, first);
  EXPECT_EQ(fs_.object_extents(first), nullptr);  // the unlinked slot was reset
  const ExtentMap* fresh = fs_.object_extents(second);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->empty());
  EXPECT_EQ(fs_.object_extents(second + 1), nullptr);  // never created
}

}  // namespace
}  // namespace tio::pfs
