// Chaos suite: the full PLFS stack under seeded fault plans.
//
// An N-1 write (torn writes, transient errors, crash-on-close of the
// flattened index, MDS outages) followed by reads through all three
// ReadStrategy values must return bytes identical to a fault-free run —
// the whole point of the retry/degradation machinery. Plans are seeded, so
// every schedule here is bit-reproducible.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.h"
#include "mpisim/comm.h"
#include "pfs/faulty_fs.h"
#include "pfs/sim_pfs.h"
#include "plfs/container.h"
#include "plfs/mpiio.h"
#include "plfs/plfs.h"
#include "testutil.h"

namespace tio::plfs {
namespace {

constexpr int kProcs = 8;
constexpr int kRounds = 4;
constexpr std::uint64_t kRecord = 3000;
constexpr std::uint64_t kTotal = static_cast<std::uint64_t>(kProcs) * kRounds * kRecord;

PlfsMount chaos_mount(bool replicated = false, bool batching = false) {
  PlfsMount m;
  for (std::size_t i = 0; i < 4; ++i) {
    m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
  }
  m.num_subdirs = 8;
  m.index_flush_every = 8;
  m.mds_replicated = replicated;
  m.meta_batching = batching;
  return m;
}

struct ChaosWorld {
  explicit ChaosWorld(const std::string& plan_spec, bool replicated = false,
                      std::size_t batch = 0, Duration lease = Duration::zero())
      : cluster(engine, cluster_config()),
        base(cluster, pfs_config(replicated, batch, lease)),
        faulty(base, client_plan(plan_spec, replicated)),
        plfs(faulty, chaos_mount(replicated, batch > 0)) {
    // Replicated worlds keep server-targeted faults for the raft layer;
    // unreplicated ones lower them to whole-volume outages (what the
    // testbed Rig does for --mds_replication=none).
    if (replicated) base.schedule_server_faults(parse_plan(plan_spec));
    for (const auto& b : plfs.mount().backends) {
      if (!base.ns().mkdir_all(b).ok()) std::abort();
    }
  }
  static pfs::FaultPlan parse_plan(const std::string& spec) {
    auto plan = pfs::FaultPlan::parse(spec);
    if (!plan.ok()) std::abort();
    return std::move(plan.value());
  }
  static pfs::FaultPlan client_plan(const std::string& spec, bool replicated) {
    const pfs::FaultPlan plan = parse_plan(spec);
    return replicated ? plan : plan.lowered_for_unreplicated();
  }
  static net::ClusterConfig cluster_config() {
    net::ClusterConfig c;
    c.nodes = 16;
    c.cores_per_node = 4;
    return c;
  }
  static pfs::PfsConfig pfs_config(bool replicated = false, std::size_t batch = 0,
                                   Duration lease = Duration::zero()) {
    pfs::PfsConfig c;
    c.num_mds = 4;
    c.num_osts = 8;
    if (replicated) c.mds_replication = pfs::MdsReplication::raft;
    c.mds_batch = batch;
    c.meta_lease = lease;
    return c;
  }

  void sleep_until_ms(std::int64_t ms) {
    test::run_task(engine, [](sim::Engine& e, std::int64_t target) -> sim::Task<void> {
      const TimePoint t = TimePoint::from_ns(Duration::ms(target).to_ns());
      if (t > e.now()) co_await e.sleep(t - e.now());
    }(engine, ms));
  }

  sim::Engine engine;
  net::Cluster cluster;
  pfs::SimPfs base;
  pfs::FaultyFs faulty;
  Plfs plfs;
};

// Strided N-1 write with Index Flatten requested at close.
void write_n1(ChaosWorld& w, const std::string& logical) {
  mpi::run_spmd(w.cluster, kProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_write(w.plfs, comm, logical);
    EXPECT_TRUE(file.ok()) << file.status();
    if (!file.ok()) co_return;
    for (int r = 0; r < kRounds; ++r) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(r) * comm.size() + comm.rank()) * kRecord;
      EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(7, off, kRecord))).ok());
    }
    EXPECT_TRUE((co_await (*file)->close_write(/*flatten=*/true)).ok());
  });
}

// Collective read of the whole file on every rank; returns rank 0's bytes.
std::vector<std::byte> read_n1(ChaosWorld& w, const std::string& logical,
                               ReadStrategy strategy) {
  std::vector<std::byte> bytes;
  mpi::run_spmd(w.cluster, kProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    auto file = co_await MpiFile::open_read(w.plfs, comm, logical, strategy);
    EXPECT_TRUE(file.ok()) << file.status();
    if (!file.ok()) co_return;
    EXPECT_EQ((*file)->logical_size(), kTotal);
    auto fl = co_await (*file)->read(0, kTotal);
    EXPECT_TRUE(fl.ok()) << fl.status();
    if (!fl.ok()) co_return;
    EXPECT_TRUE(fl->content_equals(DataView::pattern(7, 0, kTotal)))
        << "strategy " << static_cast<int>(strategy) << " rank " << comm.rank();
    if (comm.rank() == 0) bytes = fl->to_bytes();
    EXPECT_TRUE((co_await (*file)->close_read()).ok());
  });
  return bytes;
}

TEST(Chaos, SeededPlansPreserveBytesAcrossAllStrategies) {
  // Fault-free reference bytes.
  ChaosWorld clean("none");
  write_n1(clean, "/chaos");
  const std::vector<std::byte> expected = read_n1(clean, "/chaos", ReadStrategy::original);
  ASSERT_EQ(expected.size(), kTotal);

  const char* kPlans[] = {
      "transient1,seed=101",
      "io=0.01,busy=0.01,stale=0.005,torn=0.05,crash_close_index=1,seed=202",
      "stress,seed=303",
  };
  for (const char* spec : kPlans) {
    SCOPED_TRACE(spec);
    ChaosWorld w(spec);
    const std::uint64_t faults_before = counter("plfs.fault.ops").value();
    write_n1(w, "/chaos");
    // Outage-bearing plans (stress) end their window at 250 ms; read after.
    w.sleep_until_ms(300);
    for (const ReadStrategy strategy : {ReadStrategy::original, ReadStrategy::index_flatten,
                                        ReadStrategy::parallel_read}) {
      EXPECT_EQ(read_n1(w, "/chaos", strategy), expected);
    }
    // The plan actually exercised the stack.
    EXPECT_GT(counter("plfs.fault.ops").value(), faults_before);
  }
}

TEST(Chaos, SameSeedIsBitReproducible) {
  const std::string spec = "io=0.01,busy=0.01,torn=0.05,crash_close_index=1,seed=777";
  const char* kCounters[] = {
      "plfs.fault.ops",       "plfs.fault.io_error",     "plfs.fault.busy",
      "plfs.fault.torn_writes", "plfs.fault.crash_close",
      "plfs.retry.attempts",  "plfs.retry.success_after_retry",
      "plfs.degrade.index_fallback", "plfs.degrade.flatten_abort",
  };
  std::vector<std::vector<std::uint64_t>> deltas;
  std::vector<std::vector<std::byte>> bytes;
  std::vector<std::int64_t> final_ns;
  for (int run = 0; run < 2; ++run) {
    std::vector<std::uint64_t> before;
    for (const char* name : kCounters) before.push_back(counter(name).value());
    ChaosWorld w(spec);
    write_n1(w, "/repro");
    bytes.push_back(read_n1(w, "/repro", ReadStrategy::index_flatten));
    final_ns.push_back(w.engine.now().to_ns());
    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      delta.push_back(counter(kCounters[i]).value() - before[i]);
    }
    deltas.push_back(std::move(delta));
  }
  // Same fault schedule, same retries, same degradations, same virtual
  // clock, same bytes: bit-identical runs.
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(final_ns[0], final_ns[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
  // And the schedule was not empty.
  EXPECT_GT(deltas[0][0], 0u);
}

// Flips two bytes in the middle of `path` through the raw PFS.
sim::Task<void> flip_bytes_at_8(pfs::SimPfs& fs, std::string path) {
  const pfs::IoCtx ctx{0, 0};
  auto fd = co_await fs.open(ctx, path, pfs::OpenFlags::wr());
  EXPECT_TRUE(fd.ok()) << fd.status();
  if (!fd.ok()) co_return;
  std::vector<std::byte> garbage(2, std::byte{0xFF});
  auto n = co_await fs.write(ctx, *fd, 8, DataView::literal(std::move(garbage)));
  EXPECT_TRUE(n.ok());
  EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
}

TEST(Chaos, CorruptFlattenedIndexDegradesToParallelRead) {
  ChaosWorld w("none");
  write_n1(w, "/corrupt");
  // Corrupt the flattened index: the CRC trailer must catch it and the
  // open must fall back.
  test::run_task(w.engine,
                 flip_bytes_at_8(w.base, w.plfs.layout("/corrupt").global_index_path()));

  const std::uint64_t fallbacks_before = counter("plfs.degrade.index_fallback").value();
  const std::vector<std::byte> got = read_n1(w, "/corrupt", ReadStrategy::index_flatten);
  EXPECT_EQ(got.size(), kTotal);
  EXPECT_EQ(counter("plfs.degrade.index_fallback").value(), fallbacks_before + 1);
}

sim::Task<void> count_stale_markers(pfs::SimPfs& fs, std::string dir, bool& saw) {
  auto entries = co_await fs.readdir(pfs::IoCtx{0, 0}, dir);
  EXPECT_TRUE(entries.ok());
  if (!entries.ok()) co_return;
  for (const auto& e : *entries) {
    std::size_t k = 0;
    if (!e.is_dir && parse_stale_marker_name(e.name, &k)) saw = true;
  }
}

TEST(Chaos, MdsOutageFailsOverToFederationRing) {
  // /vol1 is down for the first 60 virtual seconds — past the whole retry
  // schedule, so writers whose subdir hashes there must fail over.
  const PlfsMount m = chaos_mount();
  std::string logical;
  for (int i = 0; i < 100 && logical.empty(); ++i) {
    ContainerLayout lay(m, "/failover" + std::to_string(i));
    if (lay.canonical_backend() == 1) continue;  // canonical MDS must be up
    for (int r = 0; r < kProcs; ++r) {
      if (lay.subdir_backend(lay.subdir_of_rank(r)) == 1) {
        logical = lay.logical();
        break;
      }
    }
  }
  ASSERT_FALSE(logical.empty());

  ChaosWorld w("outage=/vol1@0-60000");
  const std::uint64_t failovers_before = counter("plfs.degrade.mds_failover").value();
  write_n1(w, logical);
  EXPECT_GT(counter("plfs.degrade.mds_failover").value(), failovers_before);

  // The canonical container records the displacement.
  bool saw_marker = false;
  test::run_task(w.engine,
                 count_stale_markers(w.base, w.plfs.layout(logical).canonical_container(),
                                     saw_marker));
  EXPECT_TRUE(saw_marker);

  // Readers after the outage union the ring via the stale markers and see
  // every byte, under every strategy.
  w.sleep_until_ms(61000);
  for (const ReadStrategy strategy : {ReadStrategy::original, ReadStrategy::index_flatten,
                                      ReadStrategy::parallel_read}) {
    const std::vector<std::byte> got = read_n1(w, logical, strategy);
    EXPECT_EQ(got.size(), kTotal) << static_cast<int>(strategy);
  }
}

// --- Raft-replicated metadata under server-targeted chaos ---

// Several barrier-separated storm waves inside ONE SPMD program, so rank
// tasks stay live while virtual time crosses the fault window. (Separate
// run_spmd calls per wave would not work: each engine.run() drains the
// queue to empty, fast-forwarding through the scheduled fault events while
// every raft group is parked between waves.) Group 1's metadata bursts
// span ~67-123 virtual ms under seed 11.
constexpr int kWaves = 6;

void create_storm(ChaosWorld& w, bool lease_vol1_first = false) {
  mpi::run_spmd(w.cluster, kProcs, [&](mpi::Comm comm) -> sim::Task<void> {
    if (lease_vol1_first && comm.rank() == 0) {
      // Lease /vol1 before any fault window opens (the stat must live
      // inside the SPMD program: a separate engine.run() would drain the
      // queue and fast-forward through the scheduled fault events).
      EXPECT_TRUE((co_await w.faulty.stat(pfs::IoCtx{3, 0}, "/vol1")).ok());
    }
    co_await comm.barrier();
    for (int i = 0; i < kWaves; ++i) {
      const std::string logical = "/storm" + std::to_string(i);
      auto file = co_await MpiFile::open_write(w.plfs, comm, logical);
      EXPECT_TRUE(file.ok()) << file.status();
      if (!file.ok()) co_return;
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t off =
            (static_cast<std::uint64_t>(r) * comm.size() + comm.rank()) * kRecord;
        EXPECT_TRUE((co_await (*file)->write(off, DataView::pattern(7, off, kRecord))).ok());
      }
      EXPECT_TRUE((co_await (*file)->close_write(/*flatten=*/true)).ok());
      co_await comm.barrier();
    }
  });
}

// The acceptance scenario for the replicated MDS: crash the leader of a
// metadata group at the peak of a create storm. Every create acked to a
// writer must survive the failover (acks come only after the command is
// applied), readers see every byte afterwards, and the whole schedule is a
// pure function of (plan seed, engine seed).
TEST(Chaos, RaftLeaderCrashAtCreateStormPeak) {
  const char* kCounters[] = {
      "raft.submits",        "raft.elections_won", "raft.redirects",
      "raft.client_timeouts", "plfs.fault.ops",
  };
  struct Run {
    std::vector<std::uint64_t> deltas;
    std::int64_t final_ns = 0;
    std::vector<std::byte> bytes;
  };
  auto run_once = [&kCounters] {
    Run out;
    std::vector<std::uint64_t> before;
    for (const char* name : kCounters) before.push_back(counter(name).value());
    const std::uint64_t failovers_before = histogram("raft.failover").count();
    const std::uint64_t elections_before = counter("raft.elections_won").value();

    // Group 1's create bursts run from ~67 to ~123 virtual ms (its leader
    // is established by ~66 ms). The 95-250 ms window crashes that leader
    // mid-storm — creates are in flight when the leader dies, and the
    // window outlasts a full election timeout, so the survivors elect and
    // finish the storm before the crashed replica returns.
    ChaosWorld w("server_outage=1:leader@95-250,seed=11", /*replicated=*/true);
    create_storm(w);

    // The crash interrupted live traffic: clients saw a degraded group and
    // the survivors elected a replacement beyond the four groups'
    // bootstrap elections.
    EXPECT_GT(histogram("raft.failover").count(), failovers_before);
    EXPECT_GT(counter("raft.elections_won").value(), elections_before + 4);

    // Past the outage window the restarted replica has rejoined. Every
    // acked create is readable — zero lost creates, under every strategy.
    w.sleep_until_ms(2000);
    for (int i = 0; i < kWaves; ++i) {
      const std::string logical = "/storm" + std::to_string(i);
      for (const ReadStrategy strategy :
           {ReadStrategy::original, ReadStrategy::parallel_read}) {
        EXPECT_EQ(read_n1(w, logical, strategy).size(), kTotal)
            << logical << " strategy " << static_cast<int>(strategy);
      }
    }
    // Replicated mode keeps creates on the home backend: a consistent
    // failover must not leave federation stale markers behind.
    bool saw_marker = false;
    for (int i = 0; i < kWaves; ++i) {
      test::run_task(w.engine,
                     count_stale_markers(
                         w.base, w.plfs.layout("/storm" + std::to_string(i)).canonical_container(),
                         saw_marker));
    }
    EXPECT_FALSE(saw_marker);

    out.bytes = read_n1(w, "/storm0", ReadStrategy::index_flatten);
    out.final_ns = w.engine.now().to_ns();
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      out.deltas.push_back(counter(kCounters[i]).value() - before[i]);
    }
    return out;
  };
  const Run a = run_once();
  const Run b = run_once();
  EXPECT_EQ(a.deltas, b.deltas);
  EXPECT_EQ(a.final_ns, b.final_ns);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bytes.size(), kTotal);
}

// Isolating (rather than crashing) the leader: the group elects around the
// unreachable leader, which steps down on heal, and the storm completes.
TEST(Chaos, RaftPartitionedLeaderHealsAndStormCompletes) {
  const std::uint64_t elections_before = counter("raft.elections_won").value();
  const std::uint64_t dropped_before = counter("raft.msgs_dropped").value();
  // Same seed and window as the crash test: group 1's create bursts are in
  // flight when its leader gets partitioned, so the survivors must elect.
  ChaosWorld w("partition=1@95-250,seed=11", /*replicated=*/true);
  create_storm(w);
  EXPECT_GT(counter("raft.elections_won").value(), elections_before + 4);
  EXPECT_GT(counter("raft.msgs_dropped").value(), dropped_before);
  w.sleep_until_ms(2000);
  for (int i = 0; i < kWaves; ++i) {
    EXPECT_EQ(read_n1(w, "/storm" + std::to_string(i), ReadStrategy::original).size(), kTotal);
  }
}

// Retries transient FaultyFs injections the way the client library would;
// permanent errors surface immediately.
template <typename Op>
sim::Task<Status> eventually(sim::Engine& engine, Op op) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 64; ++attempt) {
    last = co_await op();
    if (last.ok() || !last.is_transient()) co_return last;
    co_await engine.sleep(Duration::ms(2));
  }
  co_return last;
}

// The batched mutation path through the same leader crash: coalesced
// create batches are single replicated commands, so an acked create is an
// applied create no matter how many entries shared its RPC. Client leases
// must be revoked across the failover (epoch bump) — every post-crash open
// revalidates instead of trusting a pre-crash lease.
TEST(Chaos, BatchedCreateStormSurvivesLeaderCrash) {
  const std::uint64_t failovers_before = histogram("raft.failover").count();
  const std::uint64_t elections_before = counter("raft.elections_won").value();
  const std::uint64_t batch_ops_before = counter("pfs.batch.ops").value();
  const std::uint64_t batch_rpcs_before = counter("pfs.batch.rpcs").value();
  const std::uint64_t inserts_before = counter("pfs.meta_cache.inserts").value();

  // Same seed and window as the unbatched crash test: group 1's leader
  // dies while create batches are in flight.
  ChaosWorld w("server_outage=1:leader@95-250,seed=11", /*replicated=*/true,
               /*batch=*/8, /*lease=*/Duration::ms(50));
  create_storm(w);

  // The storm actually went through the batcher, and the batches coalesced:
  // strictly fewer RPCs than member ops.
  const std::uint64_t batch_ops = counter("pfs.batch.ops").value() - batch_ops_before;
  const std::uint64_t batch_rpcs = counter("pfs.batch.rpcs").value() - batch_rpcs_before;
  EXPECT_GT(batch_ops, 0u);
  EXPECT_LT(batch_rpcs, batch_ops);

  // The crash interrupted live traffic and forced an election.
  EXPECT_GT(histogram("raft.failover").count(), failovers_before);
  EXPECT_GT(counter("raft.elections_won").value(), elections_before + 4);

  // Zero lost acked creates: every byte acked to a writer is readable after
  // the window (read_n1 checks content, not just size), and no read can be
  // served from a pre-failover lease — both window edges bumped group 1's
  // epoch, so any lease issued before the crash fails the epoch check.
  w.sleep_until_ms(2000);
  for (int i = 0; i < kWaves; ++i) {
    const std::string logical = "/storm" + std::to_string(i);
    for (const ReadStrategy strategy :
         {ReadStrategy::original, ReadStrategy::parallel_read}) {
      EXPECT_EQ(read_n1(w, logical, strategy).size(), kTotal)
          << logical << " strategy " << static_cast<int>(strategy);
    }
  }
  EXPECT_GT(counter("pfs.meta_cache.inserts").value(), inserts_before);
  EXPECT_GE(w.base.group_epoch(1), 2u);  // crash edge + restart edge
}

// A lease issued before a partition must not be trusted across it: both
// window edges bump the group's epoch, so the pre-cut dentry fails the
// epoch check on its next lookup (checked before TTL — revocation wins
// even on an entry that also expired). A post-heal lease that merely sits
// past its TTL dies on expiry. Both retirement paths are driven
// explicitly against group 1 (/vol1).
TEST(Chaos, LeaseExpiryAcrossPartitionForcesRevalidation) {
  const std::uint64_t elections_before = counter("raft.elections_won").value();
  ChaosWorld w("partition=1@95-250,seed=11", /*replicated=*/true,
               /*batch=*/8, /*lease=*/Duration::ms(50));

  const std::uint64_t revoked_before = counter("pfs.meta_cache.epoch_revoked").value();
  // Rank 0 leases /vol1 at t=0 (epoch 0), then the storm spans the cut:
  // group 1 elects around its partitioned leader.
  create_storm(w, /*lease_vol1_first=*/true);
  EXPECT_GT(counter("raft.elections_won").value(), elections_before + 4);

  // Past the heal edge the epoch is 2: the pre-cut lease is revoked on its
  // next lookup, not silently served.
  w.sleep_until_ms(2000);
  EXPECT_GE(w.base.group_epoch(1), 2u);
  test::run_task(w.engine, [](ChaosWorld& w) -> sim::Task<void> {
    const pfs::IoCtx ctx{3, 0};
    EXPECT_TRUE((co_await w.faulty.stat(ctx, "/vol1")).ok());
  }(w));
  EXPECT_EQ(counter("pfs.meta_cache.epoch_revoked").value(), revoked_before + 1);

  // That revalidating stat re-leased the dentry; letting the TTL lapse
  // retires it through the expiry path.
  const std::uint64_t expired_before = counter("pfs.meta_cache.expired").value();
  w.sleep_until_ms(2060);  // 60 ms > the 50 ms lease
  test::run_task(w.engine, [](ChaosWorld& w) -> sim::Task<void> {
    const pfs::IoCtx ctx{3, 0};
    EXPECT_TRUE((co_await w.faulty.stat(ctx, "/vol1")).ok());
  }(w));
  EXPECT_EQ(counter("pfs.meta_cache.expired").value(), expired_before + 1);

  // And the acked storm is fully readable after the heal.
  for (int i = 0; i < kWaves; ++i) {
    EXPECT_EQ(read_n1(w, "/storm" + std::to_string(i), ReadStrategy::original).size(), kTotal);
  }
}

// mkdir + creates + unlink, all through the fault-injecting layer.
sim::Task<void> meta_mutation_storm(ChaosWorld& w) {
  const pfs::IoCtx ctx{2, 0};
  auto& fs = w.faulty;
  Status st = co_await eventually(w.engine, [&] { return fs.mkdir(ctx, "/vol0/meta"); });
  EXPECT_TRUE(st.ok()) << st;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/vol0/meta/f" + std::to_string(i);
    // Non-exclusive create: the retry loop may re-run the open after a
    // fault injected on the close, so the op must be idempotent.
    st = co_await eventually(w.engine, [&]() -> sim::Task<Status> {
      auto fd = co_await fs.open(ctx, path, pfs::OpenFlags::wr_create());
      if (!fd.ok()) co_return fd.status();
      co_return co_await fs.close(ctx, *fd);
    });
    EXPECT_TRUE(st.ok()) << path << ": " << st;
  }
  st = co_await eventually(w.engine, [&] { return fs.unlink(ctx, "/vol0/meta/f1"); });
  EXPECT_TRUE(st.ok()) << st;
}

sim::Task<void> expect_state(ChaosWorld& w, std::string path, bool want_exists) {
  const pfs::IoCtx ctx{2, 0};
  const Status st = co_await eventually(w.engine, [&]() -> sim::Task<Status> {
    co_return (co_await w.faulty.stat(ctx, path)).status();
  });
  if (want_exists) {
    EXPECT_TRUE(st.ok()) << path << ": " << st;
  } else {
    EXPECT_FALSE(st.ok()) << path << " should be gone";
    EXPECT_FALSE(st.is_transient()) << path << ": " << st;
  }
}

// unlink lands the same final namespace whether the metadata
// service is a single server or a raft group, transient faults and all.
TEST(Chaos, MetaMutationsSurviveTransientFaultsInBothModes) {
  for (const bool replicated : {false, true}) {
    SCOPED_TRACE(replicated ? "raft" : "none");
    ChaosWorld w("io=0.02,busy=0.1,seed=909", replicated);
    const std::uint64_t injected_before =
        counter("plfs.fault.busy").value() + counter("plfs.fault.io_error").value();
    test::run_task(w.engine, meta_mutation_storm(w));
    test::run_task(w.engine, expect_state(w, "/vol0/meta/f0", true));
    test::run_task(w.engine, expect_state(w, "/vol0/meta/f1", false));
    test::run_task(w.engine, expect_state(w, "/vol0/meta/f2", true));
    // The seeded plan actually hit the op stream.
    EXPECT_GT(counter("plfs.fault.busy").value() + counter("plfs.fault.io_error").value(),
              injected_before);
  }
}

}  // namespace
}  // namespace tio::plfs
