// Batched create/mkdir/unlink RPCs: namespace equivalence with the per-op
// path (both replication modes), per-entry statuses inside one batch,
// linger flushes, and the round-trip amortization the batching exists for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.h"
#include "pfs/sim_pfs.h"
#include "sim/sync.h"
#include "testutil.h"

namespace tio::pfs {
namespace {

net::ClusterConfig batch_cluster() {
  net::ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 4;
  return c;
}

PfsConfig batch_pfs(std::size_t batch, bool replicated) {
  PfsConfig c;
  c.num_mds = 4;
  c.num_osts = 8;
  c.mds_batch = batch;
  if (replicated) c.mds_replication = MdsReplication::raft;
  return c;
}

struct World {
  World(std::size_t batch, bool replicated)
      : cluster(engine, batch_cluster()), fs(cluster, batch_pfs(batch, replicated)) {}
  sim::Engine engine;
  net::Cluster cluster;
  SimPfs fs;
};

// `ranks` concurrent clients each create `files_each` files in /d, close
// them, and record their statuses. Runs the engine to completion.
void create_storm(World& w, int ranks, int files_each, std::vector<Status>& out) {
  ASSERT_TRUE(w.fs.ns().mkdir_all("/d").ok());
  out.assign(static_cast<std::size_t>(ranks) * files_each, Status::Ok());
  for (int r = 0; r < ranks; ++r) {
    w.engine.spawn([](SimPfs& fs, int rank, int files, std::vector<Status>& statuses,
                      int stride) -> sim::Task<void> {
      const IoCtx ctx{static_cast<std::size_t>(rank), rank};
      for (int i = 0; i < files; ++i) {
        const std::string path = "/d/f" + std::to_string(rank) + "_" + std::to_string(i);
        auto fd = co_await fs.open(ctx, path, OpenFlags::wr_create_excl());
        if (!fd.ok()) {
          statuses[static_cast<std::size_t>(rank) * stride + i] = fd.status();
          continue;
        }
        statuses[static_cast<std::size_t>(rank) * stride + i] =
            co_await fs.close(ctx, *fd);
      }
    }(w.fs, r, files_each, out, files_each));
  }
  w.engine.run();
}

void expect_namespace(World& w, int ranks, int files_each) {
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < files_each; ++i) {
      const std::string path = "/d/f" + std::to_string(r) + "_" + std::to_string(i);
      auto e = w.fs.ns().lookup(path);
      EXPECT_TRUE(e.ok()) << path;
    }
  }
}

TEST(MetaBatch, BatchedCreatesMatchUnbatchedNamespace) {
  for (const bool replicated : {false, true}) {
    SCOPED_TRACE(replicated ? "raft" : "unreplicated");
    std::vector<Status> legacy_st, batched_st;
    World legacy(0, replicated);
    create_storm(legacy, 6, 8, legacy_st);
    World batched(8, replicated);
    create_storm(batched, 6, 8, batched_st);
    for (const Status& st : legacy_st) EXPECT_TRUE(st.ok()) << st;
    for (const Status& st : batched_st) EXPECT_TRUE(st.ok()) << st;
    expect_namespace(legacy, 6, 8);
    expect_namespace(batched, 6, 8);
  }
}

TEST(MetaBatch, BatchingAmortizesMutationRoundTrips) {
  Counter& rt = counter("pfs.meta.mutation_round_trips");
  std::vector<Status> st;

  const std::uint64_t before_legacy = rt.value();
  World legacy(0, /*replicated=*/false);
  create_storm(legacy, 8, 16, st);
  const std::uint64_t legacy_trips = rt.value() - before_legacy;

  const std::uint64_t before_batched = rt.value();
  World batched(8, /*replicated=*/false);
  create_storm(batched, 8, 16, st);
  const std::uint64_t batched_trips = rt.value() - before_batched;

  // 128 concurrent creates at batch=8: the mutation round trips collapse
  // by at least the half-batch factor (partial linger flushes allowed).
  EXPECT_GT(legacy_trips, 0u);
  EXPECT_GT(batched_trips, 0u);
  EXPECT_GE(legacy_trips, 4 * batched_trips)
      << "legacy=" << legacy_trips << " batched=" << batched_trips;
}

TEST(MetaBatch, LingerFlushesPartialBatch) {
  // Batch size far above the offered load: only the linger timer can flush.
  World w(64, /*replicated=*/false);
  const std::uint64_t linger_before = counter("pfs.batch.flush_linger").value();
  std::vector<Status> st;
  create_storm(w, 1, 2, st);
  for (const Status& s : st) EXPECT_TRUE(s.ok()) << s;
  EXPECT_GT(counter("pfs.batch.flush_linger").value(), linger_before);
}

TEST(MetaBatch, PerEntryStatusInOneBatch) {
  // Two excl creates of the same path coalesced into one batch: the batch
  // as a whole succeeds, the first entry wins, the second gets EEXIST.
  World w(8, /*replicated=*/false);
  ASSERT_TRUE(w.fs.ns().mkdir_all("/d").ok());
  Status first, second;
  w.engine.spawn([](SimPfs& fs, Status& a, Status& b) -> sim::Task<void> {
    const IoCtx ctx{0, 0};
    sim::WaitGroup wg(fs.engine());
    auto create = [](SimPfs& f, IoCtx c, Status& out, sim::WaitGroup& group) -> sim::Task<void> {
      auto fd = co_await f.open(c, "/d/same", OpenFlags::wr_create_excl());
      if (fd.ok()) {
        out = co_await f.close(c, *fd);
      } else {
        out = fd.status();
      }
      group.done();
    };
    wg.add(2);
    fs.engine().spawn(create(fs, ctx, a, wg));
    fs.engine().spawn(create(fs, ctx, b, wg));
    co_await wg.wait();
  }(w.fs, first, second));
  w.engine.run();
  const bool exactly_one_won =
      (first.ok() && second.code() == Errc::exists) ||
      (second.ok() && first.code() == Errc::exists);
  EXPECT_TRUE(exactly_one_won) << "first=" << first << " second=" << second;
  EXPECT_TRUE(w.fs.ns().lookup("/d/same").ok());
}

TEST(MetaBatch, BatchedMkdirAndUnlinkMatchLegacy) {
  Counter& batched_ops = counter("pfs.batch.ops");
  for (const bool replicated : {false, true}) {
    SCOPED_TRACE(replicated ? "raft" : "unreplicated");
    for (const std::size_t batch : {std::size_t{0}, std::size_t{8}}) {
      SCOPED_TRACE(batch == 0 ? "legacy" : "batched");
      World w(batch, replicated);
      const std::uint64_t ops_before = batched_ops.value();
      test::run_task(w.engine, [](SimPfs& fs) -> sim::Task<void> {
        const IoCtx ctx{0, 0};
        EXPECT_TRUE((co_await fs.mkdir(ctx, "/home")).ok());
        EXPECT_TRUE((co_await fs.mkdir(ctx, "/home/sub")).ok());
        auto fd = co_await fs.open(ctx, "/home/sub/f", OpenFlags::wr_create());
        EXPECT_TRUE(fd.ok()) << fd.status();
        if (!fd.ok()) co_return;
        EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
        EXPECT_TRUE((co_await fs.unlink(ctx, "/home/sub/f")).ok());
        EXPECT_EQ((co_await fs.unlink(ctx, "/home/sub/f")).code(), Errc::not_found);
        EXPECT_EQ((co_await fs.mkdir(ctx, "/home")).code(), Errc::exists);
      }(w.fs));
      EXPECT_TRUE(w.fs.ns().lookup("/home/sub").ok());
      EXPECT_FALSE(w.fs.ns().lookup("/home/sub/f").ok());
      // Every mutation (failing ones included) travels in a batch iff
      // batching is on: 3 mkdirs, 1 create, 2 unlinks.
      EXPECT_EQ(batched_ops.value() - ops_before, batch == 0 ? 0u : 6u);
    }
  }
}

}  // namespace
}  // namespace tio::pfs
