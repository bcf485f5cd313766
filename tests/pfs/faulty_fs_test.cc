// FaultyFs: plan parsing, deterministic injection, torn writes, outage
// windows, and the crash-on-close of flattened index files.
#include "pfs/faulty_fs.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.h"
#include "net/cluster.h"
#include "pfs/sim_pfs.h"
#include "testutil.h"

namespace tio::pfs {
namespace {

net::ClusterConfig test_cluster() {
  net::ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 4;
  return c;
}

PfsConfig test_pfs() {
  PfsConfig c;
  c.num_mds = 2;
  c.num_osts = 4;
  return c;
}

// --- plan parsing ---

TEST(FaultPlan, DefaultAndNonePresetAreDisabled) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  auto plan = FaultPlan::parse("none");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
  auto empty = FaultPlan::parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->enabled());
}

TEST(FaultPlan, Transient1PresetSetsOnePercentAcrossClasses) {
  auto plan = FaultPlan::parse("transient1");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->enabled());
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    EXPECT_DOUBLE_EQ(plan->ops[i].p_io_error, 0.005);
    EXPECT_DOUBLE_EQ(plan->ops[i].p_busy, 0.005);
    EXPECT_DOUBLE_EQ(plan->ops[i].p_stale, 0.0);
  }
  EXPECT_DOUBLE_EQ(plan->p_torn_write, 0.0);
  EXPECT_FALSE(plan->crash_close_index);
}

TEST(FaultPlan, StressPresetHasOutageAndCrashClose) {
  auto plan = FaultPlan::parse("stress");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->crash_close_index);
  EXPECT_GT(plan->p_torn_write, 0.0);
  ASSERT_EQ(plan->outages.size(), 1u);
  EXPECT_EQ(plan->outages[0].path_prefix, "/vol1");
  EXPECT_EQ((plan->outages[0].end - plan->outages[0].begin).to_ms(), 150.0);
}

TEST(FaultPlan, PresetExtendedByKeyValues) {
  auto plan = FaultPlan::parse("stress,seed=9,torn=0.5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_DOUBLE_EQ(plan->p_torn_write, 0.5);
  EXPECT_TRUE(plan->crash_close_index);  // preset fields survive
}

TEST(FaultPlan, KeyValueGrammar) {
  auto plan = FaultPlan::parse(
      "seed=77,io=0.25,write.busy=0.5,spike=0.1,spike_ms=30,outage=/volX@100-250");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->seed, 77u);
  EXPECT_DOUBLE_EQ(plan->spec(OpClass::read).p_io_error, 0.25);
  EXPECT_DOUBLE_EQ(plan->spec(OpClass::write).p_busy, 0.5);
  EXPECT_DOUBLE_EQ(plan->spec(OpClass::meta).p_busy, 0.0);
  EXPECT_EQ(plan->spec(OpClass::open).spike.to_ms(), 30.0);
  ASSERT_EQ(plan->outages.size(), 1u);
  EXPECT_EQ(plan->outages[0].path_prefix, "/volX");
  EXPECT_EQ((plan->outages[0].begin - TimePoint()).to_ms(), 100.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse("chaos").ok());            // unknown preset
  EXPECT_FALSE(FaultPlan::parse("frobnicate=1").ok());     // unknown key
  EXPECT_FALSE(FaultPlan::parse("io=lots").ok());          // not a number
  EXPECT_FALSE(FaultPlan::parse("io=-0.5").ok());          // negative
  EXPECT_FALSE(FaultPlan::parse("write.banana=0.1").ok()); // unknown field
  EXPECT_FALSE(FaultPlan::parse("scrub.io=0.1").ok());     // unknown class
  EXPECT_FALSE(FaultPlan::parse("outage=/vol1").ok());     // no window
  EXPECT_FALSE(FaultPlan::parse("outage=/vol1@50-10").ok());  // end < begin
  EXPECT_FALSE(FaultPlan::parse("crash_close_index=2").ok());
}

TEST(FaultPlan, ToStringRoundTripsThroughParse) {
  auto plan = FaultPlan::parse("stress,seed=123");
  ASSERT_TRUE(plan.ok());
  auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->to_string(), plan->to_string());
}

// --- server-targeted faults (replicated MDS) ---

TEST(FaultPlan, ServerOutageGrammar) {
  auto plan = FaultPlan::parse("server_outage=2:leader@100-250,server_outage=0:1@50-60");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->server_outages.size(), 2u);
  EXPECT_EQ(plan->server_outages[0].mds, 2);
  EXPECT_EQ(plan->server_outages[0].replica, -1);  // "leader": resolved at window open
  EXPECT_EQ((plan->server_outages[0].begin - TimePoint()).to_ms(), 100.0);
  EXPECT_EQ((plan->server_outages[0].end - TimePoint()).to_ms(), 250.0);
  EXPECT_EQ(plan->server_outages[1].mds, 0);
  EXPECT_EQ(plan->server_outages[1].replica, 1);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlan, PartitionGrammar) {
  auto plan = FaultPlan::parse("partition=3@10-20");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].mds, 3);
  EXPECT_EQ((plan->partitions[0].begin - TimePoint()).to_ms(), 10.0);
  EXPECT_EQ((plan->partitions[0].end - TimePoint()).to_ms(), 20.0);
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlan, RejectsMalformedServerFaults) {
  EXPECT_FALSE(FaultPlan::parse("server_outage=1@100-250").ok());        // no replica
  EXPECT_FALSE(FaultPlan::parse("server_outage=1:boss@100-250").ok());   // bad replica
  EXPECT_FALSE(FaultPlan::parse("server_outage=1:leader@250-100").ok()); // end < begin
  EXPECT_FALSE(FaultPlan::parse("partition=1").ok());                    // no window
  EXPECT_FALSE(FaultPlan::parse("partition=x@10-20").ok());              // bad group
}

TEST(FaultPlan, ServerFaultsRoundTripThroughToString) {
  auto plan = FaultPlan::parse("server_outage=1:leader@100-250,partition=2@300-400,seed=9");
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->to_string(), plan->to_string());
  ASSERT_EQ(again->server_outages.size(), 1u);
  EXPECT_EQ(again->server_outages[0].replica, -1);
  ASSERT_EQ(again->partitions.size(), 1u);
}

TEST(FaultPlan, LoweredForUnreplicatedTurnsServerFaultsIntoVolumeOutages) {
  auto plan = FaultPlan::parse("server_outage=1:leader@100-250,partition=2@300-400");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const FaultPlan lowered = plan->lowered_for_unreplicated();
  EXPECT_TRUE(lowered.server_outages.empty());
  EXPECT_TRUE(lowered.partitions.empty());
  ASSERT_EQ(lowered.outages.size(), 2u);
  EXPECT_EQ(lowered.outages[0].path_prefix, "/vol1");
  EXPECT_EQ((lowered.outages[0].begin - TimePoint()).to_ms(), 100.0);
  EXPECT_EQ(lowered.outages[1].path_prefix, "/vol2");
  EXPECT_EQ((lowered.outages[1].end - TimePoint()).to_ms(), 400.0);
  EXPECT_TRUE(lowered.enabled());
}

TEST(FaultPlan, FailoverPresetTargetsTheLeader) {
  auto plan = FaultPlan::parse("failover");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->server_outages.size(), 1u);
  EXPECT_EQ(plan->server_outages[0].mds, 1);
  EXPECT_EQ(plan->server_outages[0].replica, -1);
}

// --- injection behaviour ---

class FaultyFsTest : public ::testing::Test {
 protected:
  FaultyFsTest() : cluster_(engine_, test_cluster()), base_(cluster_, test_pfs()) {}

  FaultyFs make(const std::string& spec) {
    auto plan = FaultPlan::parse(spec);
    if (!plan.ok()) std::abort();
    return FaultyFs(base_, std::move(plan.value()));
  }

  sim::Engine engine_;
  net::Cluster cluster_;
  SimPfs base_;
  IoCtx ctx_{0, 0};
};

TEST_F(FaultyFsTest, DisabledPlanForwardsEverything) {
  FaultyFs fs = make("none");
  test::run_task(engine_, [](FaultyFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    auto fd = co_await fs.open(ctx, "/d/f", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) co_return;
    auto n = co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 4096));
    EXPECT_TRUE(n.ok());
    if (!n.ok()) co_return;
    EXPECT_EQ(*n, 4096u);
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    auto rfd = co_await fs.open(ctx, "/d/f", OpenFlags::ro());
    EXPECT_TRUE(rfd.ok());
    if (!rfd.ok()) co_return;
    auto fl = co_await fs.read(ctx, *rfd, 0, 4096);
    EXPECT_TRUE(fl.ok());
    if (!fl.ok()) co_return;
    EXPECT_TRUE(fl->content_equals(DataView::pattern(1, 0, 4096)));
    EXPECT_TRUE((co_await fs.close(ctx, *rfd)).ok());
    EXPECT_TRUE((co_await fs.unlink(ctx, "/d/f")).ok());
  }(fs, ctx_));
}

// Runs a fixed op sequence and returns the error-code trace.
std::vector<Errc> error_trace(sim::Engine& engine, FaultyFs& fs, IoCtx ctx) {
  std::vector<Errc> trace;
  test::run_task(engine,
                 [](FaultyFs& fs, IoCtx ctx, std::vector<Errc>& trace) -> sim::Task<void> {
                   (void)co_await fs.mkdir(ctx, "/t");
                   for (int i = 0; i < 200; ++i) {
                     const std::string path = "/t/f" + std::to_string(i % 10);
                     auto fd = co_await fs.open(ctx, path, OpenFlags::wr_create());
                     trace.push_back(fd.status().code());
                     if (!fd.ok()) continue;
                     auto n = co_await fs.write(ctx, *fd, 0, DataView::pattern(2, 0, 1000));
                     trace.push_back(n.status().code());
                     trace.push_back((co_await fs.close(ctx, *fd)).code());
                   }
                 }(fs, ctx, trace));
  return trace;
}

TEST_F(FaultyFsTest, SameSeedSameWorkloadSameFaultSchedule) {
  const char* spec = "io=0.05,busy=0.05,stale=0.02,torn=0.1,seed=424242";
  std::vector<std::vector<Errc>> traces;
  for (int run = 0; run < 2; ++run) {
    sim::Engine engine;
    net::Cluster cluster(engine, test_cluster());
    SimPfs base(cluster, test_pfs());
    auto plan = FaultPlan::parse(spec);
    ASSERT_TRUE(plan.ok());
    FaultyFs fs(base, std::move(plan.value()));
    traces.push_back(error_trace(engine, fs, IoCtx{0, 0}));
  }
  EXPECT_EQ(traces[0], traces[1]);
  // The schedule actually injected something (the test is not vacuous).
  bool any_fault = false;
  for (const Errc e : traces[0]) any_fault |= e != Errc::ok;
  EXPECT_TRUE(any_fault);
}

TEST_F(FaultyFsTest, DifferentSeedsDiverge) {
  std::vector<std::vector<Errc>> traces;
  for (const char* spec : {"io=0.05,busy=0.05,seed=1", "io=0.05,busy=0.05,seed=2"}) {
    sim::Engine engine;
    net::Cluster cluster(engine, test_cluster());
    SimPfs base(cluster, test_pfs());
    auto plan = FaultPlan::parse(spec);
    ASSERT_TRUE(plan.ok());
    FaultyFs fs(base, std::move(plan.value()));
    traces.push_back(error_trace(engine, fs, IoCtx{0, 0}));
  }
  EXPECT_NE(traces[0], traces[1]);
}

TEST_F(FaultyFsTest, TornWriteDeliversStrictPrefix) {
  FaultyFs fs = make("torn=1");  // every multi-byte write is torn
  test::run_task(engine_, [](FaultyFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    auto fd = co_await fs.open(ctx, "/d/f",
                               OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) co_return;
    const DataView data = DataView::pattern(3, 0, 1 << 12);
    auto n = co_await fs.write(ctx, *fd, 0, data);
    EXPECT_TRUE(n.ok());
    if (!n.ok()) co_return;
    EXPECT_GE(*n, 1u);
    EXPECT_LT(*n, data.size());  // strict prefix
    if (*n == 0 || *n >= data.size()) co_return;
    // The prefix that was acknowledged is really there, byte-for-byte.
    auto fl = co_await fs.read(ctx, *fd, 0, *n);
    EXPECT_TRUE(fl.ok());
    if (!fl.ok()) co_return;
    EXPECT_TRUE(fl->content_equals(data.slice(0, *n)));
    // Resuming from the short count completes the write (any finite tear
    // sequence terminates because every tear makes progress).
    std::uint64_t done = *n;
    while (done < data.size()) {
      auto more = co_await fs.write(ctx, *fd, done, data.slice(done, data.size() - done));
      EXPECT_TRUE(more.ok());
      if (!more.ok() || *more == 0) co_return;
      done += *more;
    }
    auto all = co_await fs.read(ctx, *fd, 0, data.size());
    EXPECT_TRUE(all.ok());
    if (!all.ok()) co_return;
    EXPECT_TRUE(all->content_equals(data));
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
  }(fs, ctx_));
}

TEST_F(FaultyFsTest, OutageWindowFailsMatchingPrefixOnly) {
  FaultyFs fs = make("outage=/vol1@100-200");
  test::run_task(engine_, [](FaultyFs& fs, IoCtx ctx, sim::Engine& engine) -> sim::Task<void> {
    // Before the window: everything works.
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/vol1")).ok());
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/vol2")).ok());
    co_await engine.sleep(TimePoint::from_ns(Duration::ms(150).to_ns()) - engine.now());
    // Inside the window: the /vol1 namespace is down, /vol2 unaffected.
    const Status down = co_await fs.mkdir(ctx, "/vol1/a");
    EXPECT_EQ(down.code(), Errc::busy);
    EXPECT_TRUE(down.is_transient());
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/vol2/a")).ok());
    co_await engine.sleep(TimePoint::from_ns(Duration::ms(200).to_ns()) - engine.now());
    // After the window: recovered.
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/vol1/a")).ok());
  }(fs, ctx_, engine_));
}

// Outage prefixes name whole path components: "/vol1" takes down /vol1 and
// everything below it but not /vol10 (fig8b's 20-volume federation has
// both), while a prefix ending in '/' matches plain string prefixes.
TEST(FaultyFs, OutagePrefixMatchesWholeComponents) {
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  SimPfs base(cluster, test_pfs());
  auto plan = FaultPlan::parse("outage=/vol1@0-1000,outage=/tmp/@0-1000");
  ASSERT_TRUE(plan.ok());
  for (const char* dir : {"/vol1", "/vol10", "/vol1x", "/tmp", "/tmpx"}) {
    ASSERT_TRUE(base.ns().mkdir(dir).ok()) << dir;
  }
  FaultyFs fs(base, std::move(plan.value()));
  test::run_task(engine, [](FaultyFs& fs) -> sim::Task<void> {
    const IoCtx ctx{0, 0};
    for (const char* down : {"/vol1", "/vol1/a", "/tmp/a"}) {
      EXPECT_EQ((co_await fs.stat(ctx, down)).status().code(), Errc::busy) << down;
    }
    for (const char* up : {"/vol10", "/vol1x", "/tmp", "/tmpx"}) {
      EXPECT_TRUE((co_await fs.stat(ctx, up)).ok()) << up;
    }
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/vol10/a")).ok());
  }(fs));

  // A lowered server outage of group 1 is the same "/vol1" prefix.
  auto lowered = FaultPlan::parse("server_outage=1:leader@0-1000");
  ASSERT_TRUE(lowered.ok());
  FaultyFs fs1(base, lowered->lowered_for_unreplicated());
  test::run_task(engine, [](FaultyFs& fs) -> sim::Task<void> {
    const IoCtx ctx{0, 0};
    EXPECT_EQ((co_await fs.stat(ctx, "/vol1")).status().code(), Errc::busy);
    EXPECT_TRUE((co_await fs.stat(ctx, "/vol10/a")).ok());
  }(fs1));
}

TEST_F(FaultyFsTest, CrashOnCloseTearsIndexTailOnce) {
  FaultyFs fs = make("crash_close_index=1");
  const std::uint64_t before = counter("plfs.fault.crash_close").value();
  test::run_task(engine_, [](FaultyFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/c")).ok());
    const DataView data = DataView::pattern(4, 0, 4096);
    auto fd = co_await fs.open(ctx, "/c/global.index", OpenFlags::wr_create());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) co_return;
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, data)).ok());
    const Status crashed = co_await fs.close(ctx, *fd);
    EXPECT_EQ(crashed.code(), Errc::io_error);
    // The tail was destroyed but the file exists with full size.
    auto st = co_await fs.stat(ctx, "/c/global.index");
    EXPECT_TRUE(st.ok());
    if (!st.ok()) co_return;
    EXPECT_EQ(st->size, 4096u);
    auto rfd = co_await fs.open(ctx, "/c/global.index", OpenFlags::ro());
    EXPECT_TRUE(rfd.ok());
    if (!rfd.ok()) co_return;
    auto fl = co_await fs.read(ctx, *rfd, 0, 4096);
    EXPECT_TRUE(fl.ok());
    if (!fl.ok()) co_return;
    EXPECT_FALSE(fl->content_equals(data));
    // The tear is exactly the trailing bytes: prefix intact, tail zeroed.
    auto head = co_await fs.read(ctx, *rfd, 0, 4096 - 24);
    EXPECT_TRUE(head.ok());
    if (!head.ok()) co_return;
    EXPECT_TRUE(head->content_equals(data.slice(0, 4096 - 24)));
    auto tail = co_await fs.read(ctx, *rfd, 4096 - 24, 24);
    EXPECT_TRUE(tail.ok());
    if (!tail.ok()) co_return;
    EXPECT_TRUE(tail->content_equals(DataView::zeros(24)));
    EXPECT_TRUE((co_await fs.close(ctx, *rfd)).ok());
    // One-shot per path: rewriting the index closes cleanly (recovery by
    // rewrite works).
    auto wfd = co_await fs.open(ctx, "/c/global.index", OpenFlags::wr_trunc());
    EXPECT_TRUE(wfd.ok());
    if (!wfd.ok()) co_return;
    EXPECT_TRUE((co_await fs.write(ctx, *wfd, 0, data)).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *wfd)).ok());
    // Non-index files never crash.
    auto ofd = co_await fs.open(ctx, "/c/data.log", OpenFlags::wr_create());
    EXPECT_TRUE(ofd.ok());
    if (!ofd.ok()) co_return;
    EXPECT_TRUE((co_await fs.write(ctx, *ofd, 0, data)).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *ofd)).ok());
  }(fs, ctx_));
  EXPECT_EQ(counter("plfs.fault.crash_close").value(), before + 1);
}

TEST_F(FaultyFsTest, SpikeDelaysButSucceeds) {
  FaultyFs fs = make("meta.spike=1,spike_ms=40");
  test::run_task(engine_, [](FaultyFs& fs, IoCtx ctx, sim::Engine& engine) -> sim::Task<void> {
    const TimePoint t0 = engine.now();
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/spiked")).ok());
    EXPECT_GE((engine.now() - t0).to_ms(), 40.0);
  }(fs, ctx_, engine_));
}

}  // namespace
}  // namespace tio::pfs
