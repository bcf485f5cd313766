// Leased client metadata cache: TTL expiry, invalidation-on-mutation, and
// wholesale epoch revocation — plus the SimPfs integration (repeat opens
// served locally, revoke_leases forcing revalidation).
#include "pfs/meta_cache.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "pfs/sim_pfs.h"
#include "testutil.h"

namespace tio::pfs {
namespace {

void advance(sim::Engine& engine, Duration d) {
  test::run_task(engine, [](sim::Engine& e, Duration dur) -> sim::Task<void> {
    co_await e.sleep(dur);
  }(engine, d));
}

// Leases are keyed by the file system's interned path ids.
constexpr PathId kF = 5;
constexpr PathId kG = 6;

TEST(MetaCache, HitWithinLease) {
  sim::Engine engine;
  MetaCache cache(engine, Duration::ms(50));
  ASSERT_TRUE(cache.enabled());
  cache.insert(/*node=*/3, kF, ObjectId{7}, /*is_dir=*/false, /*group_epoch=*/0);
  const MetaCache::Entry* e = cache.lookup(3, kF, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->oid, ObjectId{7});
  EXPECT_FALSE(e->is_dir);
  // The lease is per (node, path): another node has no entry.
  EXPECT_EQ(cache.lookup(4, kF, 0), nullptr);
}

TEST(MetaCache, ExpiresAfterLease) {
  sim::Engine engine;
  MetaCache cache(engine, Duration::ms(50));
  cache.insert(0, kF, ObjectId{7}, false, 0);
  advance(engine, Duration::ms(49));
  EXPECT_NE(cache.lookup(0, kF, 0), nullptr);
  advance(engine, Duration::ms(1));  // exactly at insert + lease: expired
  const std::uint64_t expired_before = counter("pfs.meta_cache.expired").value();
  EXPECT_EQ(cache.lookup(0, kF, 0), nullptr);
  EXPECT_EQ(counter("pfs.meta_cache.expired").value(), expired_before + 1);
  EXPECT_EQ(cache.size(), 0u);  // erased on the way out
}

TEST(MetaCache, InvalidationDropsEveryNode) {
  sim::Engine engine;
  MetaCache cache(engine, Duration::ms(50));
  cache.insert(0, kF, ObjectId{7}, false, 0);
  cache.insert(1, kF, ObjectId{7}, false, 0);
  cache.insert(0, kG, ObjectId{8}, false, 0);
  cache.invalidate(kF);
  EXPECT_EQ(cache.lookup(0, kF, 0), nullptr);
  EXPECT_EQ(cache.lookup(1, kF, 0), nullptr);
  EXPECT_NE(cache.lookup(0, kG, 0), nullptr);  // other paths untouched
}

TEST(MetaCache, EpochMismatchRevokes) {
  sim::Engine engine;
  MetaCache cache(engine, Duration::ms(50));
  cache.insert(0, kF, ObjectId{7}, false, /*group_epoch=*/2);
  const std::uint64_t revoked_before = counter("pfs.meta_cache.epoch_revoked").value();
  // The group failed over since the lease was issued: entry untrustworthy.
  EXPECT_EQ(cache.lookup(0, kF, /*group_epoch=*/3), nullptr);
  EXPECT_EQ(counter("pfs.meta_cache.epoch_revoked").value(), revoked_before + 1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MetaCache, DisabledLeaseInsertsNothing) {
  sim::Engine engine;
  MetaCache cache(engine, Duration::zero());
  EXPECT_FALSE(cache.enabled());
  cache.insert(0, kF, ObjectId{7}, false, 0);
  EXPECT_EQ(cache.size(), 0u);
}

// --- SimPfs integration -----------------------------------------------

net::ClusterConfig cache_cluster() {
  net::ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 4;
  return c;
}

PfsConfig cache_pfs() {
  PfsConfig c;
  c.num_mds = 4;
  c.num_osts = 8;
  c.meta_lease = Duration::ms(50);
  return c;
}

TEST(MetaCacheSimPfs, RepeatOpenIsServedFromLease) {
  sim::Engine engine;
  net::Cluster cluster(engine, cache_cluster());
  SimPfs fs(cluster, cache_pfs());
  ASSERT_NE(fs.meta_cache(), nullptr);
  const IoCtx ctx{0, 0};
  test::run_task(engine, [](SimPfs& f, IoCtx c) -> sim::Task<void> {
    auto fd = co_await f.open(c, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok()) << fd.status();
    if (!fd.ok()) co_return;
    EXPECT_TRUE((co_await f.close(c, *fd)).ok());
    // First reopen misses (the create invalidated the path) and leases the
    // dentry; the second reopen is the hit under test.
    auto warm = co_await f.open(c, "/f", OpenFlags::ro());
    EXPECT_TRUE(warm.ok());
    if (!warm.ok()) co_return;
    EXPECT_TRUE((co_await f.close(c, *warm)).ok());
    const std::uint64_t hits_before = counter("pfs.meta_cache.hits").value();
    const std::int64_t t0 = f.engine().now().to_ns();
    auto again = co_await f.open(c, "/f", OpenFlags::ro());
    EXPECT_TRUE(again.ok());
    if (!again.ok()) co_return;
    const std::int64_t t1 = f.engine().now().to_ns();
    EXPECT_TRUE((co_await f.close(c, *again)).ok());
    // The reopen hit the lease: no MDS round trip on the open itself.
    EXPECT_EQ(counter("pfs.meta_cache.hits").value(), hits_before + 1);
    EXPECT_EQ(t1, t0);
  }(fs, ctx));
}

TEST(MetaCacheSimPfs, RevokeLeasesForcesRevalidation) {
  sim::Engine engine;
  net::Cluster cluster(engine, cache_cluster());
  SimPfs fs(cluster, cache_pfs());
  const IoCtx ctx{0, 0};
  test::run_task(engine, [](SimPfs& f, IoCtx c) -> sim::Task<void> {
    auto fd = co_await f.open(c, "/f", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok()) << fd.status();
    if (!fd.ok()) co_return;
    EXPECT_TRUE((co_await f.close(c, *fd)).ok());
    auto warm = co_await f.open(c, "/f", OpenFlags::ro());  // leases the dentry
    EXPECT_TRUE(warm.ok());
    if (!warm.ok()) co_return;
    EXPECT_TRUE((co_await f.close(c, *warm)).ok());
    // Fail over every group: all outstanding leases are revoked wholesale.
    for (std::size_t g = 0; g < 4; ++g) f.revoke_leases(g);
    const std::uint64_t revoked_before = counter("pfs.meta_cache.epoch_revoked").value();
    const std::int64_t t0 = f.engine().now().to_ns();
    auto again = co_await f.open(c, "/f", OpenFlags::ro());
    EXPECT_TRUE(again.ok());
    if (!again.ok()) co_return;
    const std::int64_t t1 = f.engine().now().to_ns();
    EXPECT_TRUE((co_await f.close(c, *again)).ok());
    EXPECT_EQ(counter("pfs.meta_cache.epoch_revoked").value(), revoked_before + 1);
    EXPECT_GT(t1, t0);  // revalidation paid the MDS round trip again
  }(fs, ctx));
}

}  // namespace
}  // namespace tio::pfs
