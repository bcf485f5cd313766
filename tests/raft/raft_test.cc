// Raft replica groups: election, replication, failover, catch-up,
// snapshotting, and bit-reproducibility on the deterministic engine.
#include "raft/raft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/cluster.h"
#include "sim/engine.h"
#include "testutil.h"

namespace tio::raft {

// Test-only view of a group's replica logs.
struct GroupTestPeer {
  static const Log& log(const Group& g, std::size_t replica) { return g.log_of(replica); }
};

namespace {

// Runs the events strictly before `horizon_ns`, then stops: drives a group
// whose heartbeats never let the engine drain to a virtual horizon.
void run_until(sim::Engine& engine, std::int64_t horizon_ns) {
  while (engine.next_event_ns() < horizon_ns && engine.step()) {
  }
}

net::ClusterConfig small_cluster() {
  net::ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 4;
  c.nic_bandwidth = 2.0e9;
  c.fabric_latency = Duration::us(2);
  c.storage_net_bandwidth = 1.25e9;
  c.storage_nic_bandwidth = 1.15e9;
  c.storage_net_latency = Duration::us(60);
  c.page_cache_per_node = 16_MiB;
  c.page_cache_block = 64_KiB;
  return c;
}

// A one-command batch carrying `v` in its path id: the fake state machine
// below reads it back from there.
pfs::MetaBatch command(int v) {
  pfs::MetaBatch batch;
  batch.cmds.push_back(pfs::MetaCommand{.path = static_cast<pfs::PathId>(v)});
  return batch;
}

// Doubles each submitted int (cmds[0].path) and answers in results[0].oid;
// remembers the apply order and, given a clock, each value's apply time.
// The raft layer is at-least-once (a timed-out client attempt may
// resubmit), so tests assert "applied at least once, acked results exact",
// not exact apply counts.
struct TestSm : StateMachine {
  std::vector<int> applied;
  Duration service = Duration::us(50);
  const sim::Engine* clock = nullptr;
  std::map<int, std::int64_t> applied_ns;  // first apply, when clock is set
  pfs::MetaBatchApply apply(Index, const pfs::MetaBatch& batch) override {
    const int v = static_cast<int>(batch.cmds.at(0).path);
    applied.push_back(v);
    if (clock != nullptr) applied_ns.emplace(v, clock->now().to_ns());
    pfs::MetaApply doubled;
    doubled.oid = static_cast<pfs::ObjectId>(v) * 2;
    pfs::MetaBatchApply out;
    out.results.push_back(doubled);
    return out;
  }
  Duration apply_service(const pfs::MetaBatch&) const override { return service; }
  std::uint64_t snapshot_bytes() const override { return 1024; }
};

// Log matching (Raft §5.3): wherever two replicas hold an entry at the same
// index with the same term, above both snapshot points, it carries the
// same command.
void expect_log_matching(const Group& g) {
  for (std::size_t a = 0; a < g.replicas(); ++a) {
    for (std::size_t b = a + 1; b < g.replicas(); ++b) {
      const Log& la = GroupTestPeer::log(g, a);
      const Log& lb = GroupTestPeer::log(g, b);
      const Index lo = std::max(la.snapshot_index(), lb.snapshot_index()) + 1;
      const Index hi = std::min(la.last_index(), lb.last_index());
      for (Index i = lo; i <= hi; ++i) {
        if (la.term_at(i) != lb.term_at(i)) continue;
        EXPECT_TRUE(la.at(i)->cmd == lb.at(i)->cmd)
            << "replicas " << a << " and " << b << " differ at index " << i << ", term "
            << la.term_at(i);
      }
    }
  }
}

RaftConfig fast_config() {
  RaftConfig c;
  c.replicas = 3;
  c.heartbeat = Duration::ms(5);
  c.election_min = Duration::ms(20);
  c.election_jitter = Duration::ms(20);
  c.request_timeout = Duration::ms(30);
  c.redirect_backoff = Duration::ms(5);
  return c;
}

// Replica r runs on node r; clients submit from node 7.
std::vector<std::size_t> first_nodes(std::size_t n) {
  std::vector<std::size_t> nodes(n);
  for (std::size_t r = 0; r < n; ++r) nodes[r] = r;
  return nodes;
}

// Election safety (Raft §5.2): no two replicas lead in the same term.
// Checked after every engine event, because a second leader in a term only
// lasts until the first AppendEntries of the other one reaches it.
struct LeaderPerTerm {
  std::map<Term, std::size_t> leader_of;
  std::vector<std::string> violations;
  void check(const Group& g) {
    for (std::size_t r = 0; r < g.replicas(); ++r) {
      if (!g.is_leader(r)) continue;
      const auto [it, fresh] = leader_of.emplace(g.term_of(r), r);
      if (it->second != r) {
        violations.push_back("term " + std::to_string(it->first) + ": replicas " +
                             std::to_string(it->second) + " and " + std::to_string(r));
      }
    }
  }
};

struct World {
  explicit World(std::uint64_t seed = 42, RaftConfig config = fast_config())
      : engine(seed), cluster(engine, small_cluster()),
        group(engine, cluster, sm, config, /*group_id=*/0, first_nodes(config.replicas)) {}
  sim::Engine engine;
  net::Cluster cluster;
  TestSm sm;
  Group group;

  // Submits `v` from node 7 and expects the doubled ack.
  sim::Task<void> expect_submit(int v) {
    pfs::MetaBatch batch = command(v);
    auto r = co_await group.submit(/*client_node=*/7, /*rank=*/0, std::move(batch), 64);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    if (!r.ok()) co_return;
    EXPECT_EQ(r->results.size(), 1u) << "ack for " << v;
    if (r->results.size() != 1) co_return;
    EXPECT_EQ(r->results[0].oid, static_cast<pfs::ObjectId>(v) * 2) << "ack for " << v;
  }
};

TEST(RaftTest, BootstrapElectsExactlyOneLeader) {
  World w;
  w.group.keep_alive(true);
  run_until(w.engine, Duration::ms(500).to_ns());
  int leaders = 0;
  for (std::size_t r = 0; r < w.group.replicas(); ++r) {
    if (static_cast<int>(r) == w.group.leader_or_negative()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  w.group.keep_alive(false);
  w.engine.run();  // parks: the queue must drain
}

TEST(RaftTest, SubmitCommitsAndAcksAfterApply) {
  World w;
  test::run_task(w.engine, w.expect_submit(21));
  ASSERT_EQ(w.sm.applied.size(), 1u);
  EXPECT_EQ(w.sm.applied[0], 21);
  // Index 1 is the leader's no-op barrier, index 2 the command.
  EXPECT_EQ(w.group.group_applied(), 2u);
}

// Results ride the log entry, not the replica: whichever replica applies an
// entry first writes its result into the entry's wait slot, and the leader
// acks from there after its own apply. With the leader's apply service
// four heartbeats long, the followers learn each commit and apply first,
// so every ack here carries a result a follower wrote.
TEST(RaftTest, FollowerFirstApplyAcksWithTheEntrysResult) {
  constexpr int kBurst = 16;
  const RaftConfig config = fast_config();
  World w(42, config);
  w.sm.service = config.heartbeat * 4;
  w.sm.clock = &w.engine;
  test::run_task(w.engine, w.expect_submit(0));  // elect a leader first
  std::map<int, std::int64_t> acked_ns;
  auto submit = [](World& w, int v, std::map<int, std::int64_t>& acked) -> sim::Task<void> {
    co_await w.expect_submit(v);
    acked[v] = w.engine.now().to_ns();
  };
  for (int v = 1; v <= kBurst; ++v) w.engine.spawn(submit(w, v, acked_ns));
  w.engine.run();
  ASSERT_EQ(acked_ns.size(), static_cast<std::size_t>(kBurst));
  for (int v = 0; v <= kBurst; ++v) {
    ASSERT_EQ(w.sm.applied_ns.count(v), 1u) << v;
  }
  // The premise: each command applied at least a heartbeat before its ack,
  // which only a follower's apply can do (the leader acks one reply hop
  // after its own apply).
  for (const auto& [v, ack_ns] : acked_ns) {
    EXPECT_GT(ack_ns - w.sm.applied_ns[v], config.heartbeat.to_ns()) << "command " << v;
  }
}

TEST(RaftTest, ReplicatesManyCommandsInOrder) {
  World w;
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    for (int v = 0; v < 32; ++v) co_await w.expect_submit(v);
  }(w));
  ASSERT_EQ(w.sm.applied.size(), 32u);
  for (int v = 0; v < 32; ++v) EXPECT_EQ(w.sm.applied[v], v);
  // All replicas converge on the same log length by the time the group
  // parks (the last append round-trips before the ack).
  const Index leader_last =
      w.group.last_index_of(static_cast<std::size_t>(w.group.leader_or_negative()));
  EXPECT_EQ(leader_last, 33u);  // barrier + 32 commands
}

TEST(RaftTest, LeaderCrashFailsOverAndLosesNoAckedCommand) {
  World w;
  const std::uint64_t elections_before = counter("raft.elections_won").value();
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    co_await w.expect_submit(1);
    const int old_leader = w.group.leader_or_negative();
    EXPECT_GE(old_leader, 0);
    if (old_leader < 0) co_return;
    w.group.crash(static_cast<std::size_t>(old_leader));
    // The two survivors hold quorum: the next submits elect a new leader
    // and commit through it.
    for (int v = 2; v <= 5; ++v) co_await w.expect_submit(v);
    EXPECT_NE(w.group.leader_or_negative(), old_leader);
  }(w));
  EXPECT_GT(counter("raft.elections_won").value(), elections_before + 1);
  // Every acked command reached the state machine.
  for (int v = 1; v <= 5; ++v) {
    EXPECT_NE(std::find(w.sm.applied.begin(), w.sm.applied.end(), v), w.sm.applied.end())
        << "acked command " << v << " lost";
  }
  expect_log_matching(w.group);
}

TEST(RaftTest, CrashedReplicaRestartsAndCatchesUp) {
  World w;
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    co_await w.expect_submit(1);
    const int leader = w.group.leader_or_negative();
    const std::size_t follower = leader == 0 ? 1 : 0;
    w.group.crash(follower);
    for (int v = 2; v <= 9; ++v) co_await w.expect_submit(v);
    w.group.restart(follower);
  }(w));
  // Heartbeat catch-up needs the group alive past the last client op.
  w.group.keep_alive(true);
  run_until(w.engine, w.engine.now().to_ns() + Duration::ms(500).to_ns());
  const auto leader = static_cast<std::size_t>(w.group.leader_or_negative());
  const std::size_t follower = leader == 0 ? 1 : 0;
  EXPECT_EQ(w.group.last_index_of(follower), w.group.last_index_of(leader));
  EXPECT_EQ(w.group.commit_of(follower), w.group.commit_of(leader));
  w.group.keep_alive(false);
  w.engine.run();
}

TEST(RaftTest, LaggingFollowerGetsSnapshotAfterCompaction) {
  RaftConfig config = fast_config();
  config.compact_threshold = 8;
  config.compact_keep = 2;
  World w(42, config);
  const std::uint64_t installs_before = counter("raft.snapshots_installed").value();
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    co_await w.expect_submit(1);
    const int leader = w.group.leader_or_negative();
    const std::size_t follower = leader == 0 ? 1 : 0;
    w.group.crash(follower);
    // Enough traffic that the leader compacts past the crash point.
    for (int v = 2; v <= 40; ++v) co_await w.expect_submit(v);
    w.group.restart(follower);
  }(w));
  w.group.keep_alive(true);
  run_until(w.engine, w.engine.now().to_ns() + Duration::sec(1).to_ns());
  EXPECT_GT(counter("raft.snapshots_installed").value(), installs_before);
  const auto leader = static_cast<std::size_t>(w.group.leader_or_negative());
  const std::size_t follower = leader == 0 ? 1 : 0;
  EXPECT_EQ(w.group.commit_of(follower), w.group.commit_of(leader));
  w.group.keep_alive(false);
  w.engine.run();
}

TEST(RaftTest, PartitionedLeaderHealsWithoutSplitBrain) {
  World w;
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    co_await w.expect_submit(1);
    const int old_leader = w.group.leader_or_negative();
    EXPECT_GE(old_leader, 0);
    if (old_leader < 0) co_return;
    w.group.set_partitioned(static_cast<std::size_t>(old_leader), true);
    for (int v = 2; v <= 5; ++v) co_await w.expect_submit(v);
    const int new_leader = w.group.leader_or_negative();
    EXPECT_NE(new_leader, old_leader);
    w.group.set_partitioned(static_cast<std::size_t>(old_leader), false);
    // The healed replica rejoins; the new leader's term dominates, so a
    // submit still lands on one coherent log.
    co_await w.expect_submit(6);
  }(w));
  for (int v = 1; v <= 6; ++v) {
    EXPECT_NE(std::find(w.sm.applied.begin(), w.sm.applied.end(), v), w.sm.applied.end());
  }
  expect_log_matching(w.group);
}

// A follower partitioned across several committed batches and a leader
// change heals through multi-entry AppendEntries, and a deposed leader
// holding entries that never committed truncates them (Log::truncate_from)
// when it rejoins. Five replicas, so a majority survives both the lagging
// follower and the deposed leader. The election jitter is narrow on
// purpose: replicas whose timers were armed by the same heartbeat time out
// within a few RPC latencies of each other, so elections are contested.
// After every event at most one replica leads per term; at the end every
// acked command was applied, every replica holds the leader's log, and
// equal (index, term) means an equal command on every pair of replicas.
TEST(RaftTest, LaggingFollowerAndDeposedLeaderHealToOneLog) {
  RaftConfig config = fast_config();
  config.replicas = 5;
  config.election_jitter = Duration::us(100);
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World w(seed, config);
    auto scenario = [](World& w) -> sim::Task<void> {
      co_await w.expect_submit(1);
      const int leader = w.group.leader_or_negative();
      EXPECT_GE(leader, 0);
      if (leader < 0) co_return;
      const auto deposed = static_cast<std::size_t>(leader);
      std::vector<std::size_t> followers;
      for (std::size_t r = 0; r < w.group.replicas(); ++r) {
        if (r != deposed) followers.push_back(r);
      }
      const std::size_t lagging = followers[0];
      w.group.set_partitioned(lagging, true);
      for (int v = 2; v <= 4; ++v) co_await w.expect_submit(v);
      // Cut the leader off from every follower for less than an election
      // timeout: the submits it takes meanwhile append to its log alone.
      for (std::size_t f : followers) w.group.set_partitioned(f, true);
      w.engine.spawn(w.expect_submit(5));
      w.engine.spawn(w.expect_submit(6));
      co_await w.engine.sleep(Duration::ms(10));
      // The leader goes down with those entries; the three others elect a
      // new leader among themselves, and 5 and 6 retry through it.
      w.group.crash(deposed);
      for (std::size_t f : followers) {
        if (f != lagging) w.group.set_partitioned(f, false);
      }
      for (int v = 7; v <= 10; ++v) co_await w.expect_submit(v);
      w.group.set_partitioned(lagging, false);
      for (int v = 11; v <= 16; ++v) co_await w.expect_submit(v);
      w.group.restart(deposed);
      for (int v = 17; v <= 20; ++v) co_await w.expect_submit(v);
      // Let heartbeats finish the catch-up before the group parks.
      w.group.keep_alive(true);
      co_await w.engine.sleep(Duration::ms(200));
      w.group.keep_alive(false);
    };
    w.engine.spawn(scenario(w));
    LeaderPerTerm monitor;
    while (w.engine.step()) monitor.check(w.group);
    w.engine.rethrow_pending_error();

    EXPECT_TRUE(monitor.violations.empty()) << "two leaders in one term: "
                                            << monitor.violations.front();
    for (int v = 1; v <= 20; ++v) {
      EXPECT_NE(std::find(w.sm.applied.begin(), w.sm.applied.end(), v), w.sm.applied.end())
          << "acked command " << v << " lost";
    }
    const int leader = w.group.leader_or_negative();
    EXPECT_GE(leader, 0);
    if (leader >= 0) {
      const Log& want = GroupTestPeer::log(w.group, static_cast<std::size_t>(leader));
      for (std::size_t r = 0; r < w.group.replicas(); ++r) {
        const Log& got = GroupTestPeer::log(w.group, r);
        EXPECT_EQ(got.last_index(), want.last_index()) << "replica " << r;
        EXPECT_EQ(got.last_term(), want.last_term()) << "replica " << r;
      }
    }
    expect_log_matching(w.group);
  }
}

TEST(RaftTest, SingleReplicaGroupDegeneratesToLocalCommit) {
  RaftConfig config = fast_config();
  config.replicas = 1;
  sim::Engine engine(7);
  net::Cluster cluster(engine, small_cluster());
  TestSm sm;
  Group group(engine, cluster, sm, config, 0, {3});
  test::run_task(engine, [](Group& g, TestSm& sm) -> sim::Task<void> {
    pfs::MetaBatch batch = command(5);
    auto r = co_await g.submit(0, 0, std::move(batch), 64);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->results.size(), 1u);
    if (r->results.size() != 1) co_return;
    EXPECT_EQ(r->results[0].oid, 10u);
    EXPECT_EQ(sm.applied.size(), 1u);
  }(group, sm));
}

TEST(RaftTest, NoQuorumSurfacesBusyWithinAttemptBound) {
  World w;
  test::run_task(w.engine, [](World& w) -> sim::Task<void> {
    co_await w.expect_submit(1);
    w.group.crash(1);
    w.group.crash(2);
    pfs::MetaBatch batch = command(2);
    auto r = co_await w.group.submit(7, 0, std::move(batch), 64);
    EXPECT_FALSE(r.ok());
    if (r.ok()) co_return;
    EXPECT_EQ(r.status().code(), Errc::busy);
    EXPECT_TRUE(r.status().is_transient());
  }(w));
}

// One instant, 256 submits: the leader keeps one AppendEntries in flight
// per peer, so the burst rides a handful of RPCs instead of one per submit
// per peer. Per peer, an unforced send needs an idle slot, which only the
// first submit or a reply frees; a reply only sends again while entries
// are still unreplicated, and every heartbeat forces one send (whose reply
// may chain one more). That bounds the appends at peers * (2 + 2 * beats).
TEST(RaftTest, PipelinedBurstKeepsOneAppendInFlightPerPeer) {
  constexpr int kBurst = 256;
  World w;
  test::run_task(w.engine, w.expect_submit(0));  // elect a leader first
  Counter& appends = counter("raft.append_rpcs");
  Counter& beats = counter("raft.heartbeats");
  Counter& suppressed = counter("raft.appends_suppressed");
  const std::uint64_t appends_before = appends.value();
  const std::uint64_t beats_before = beats.value();
  const std::uint64_t suppressed_before = suppressed.value();
  for (int v = 1; v <= kBurst; ++v) w.engine.spawn(w.expect_submit(v));
  w.engine.run();
  EXPECT_EQ(w.sm.applied.size(), static_cast<std::size_t>(kBurst) + 1);
  const std::uint64_t peers = w.group.replicas() - 1;
  const std::uint64_t sent = appends.value() - appends_before;
  const std::uint64_t heartbeats = beats.value() - beats_before;
  EXPECT_LE(sent, peers * (2 + 2 * heartbeats)) << "heartbeats=" << heartbeats;
  EXPECT_LT(sent, peers * kBurst / 8);
  EXPECT_GT(suppressed.value() - suppressed_before, 0u);
}

// An append whose reply never comes leaves the peer's in-flight slot taken;
// only the next heartbeat's forced send frees it. So a follower that misses
// an append (here: partitioned while it travels, healed before its
// election timer fires) is caught up within one heartbeat plus one round
// trip of the heal.
TEST(RaftTest, LostAppendReplyStallsAPeerAtMostOneHeartbeat) {
  const RaftConfig config = fast_config();
  World w(42, config);
  test::run_task(w.engine, w.expect_submit(1));
  w.group.keep_alive(true);
  const auto leader = static_cast<std::size_t>(w.group.leader_or_negative());
  const std::size_t follower = leader == 0 ? 1 : 0;
  // The submit reaches the leader one rpc_overhead plus a fabric hop after
  // it starts; its append then travels another rpc_overhead, so a
  // partition 5 us after the first hop lands catches the append in flight.
  const std::int64_t t0 = w.engine.now().to_ns();
  const Duration hop = config.rpc_overhead + Duration::us(5);
  const std::int64_t cut = t0 + (config.rpc_overhead + hop).to_ns();
  const std::int64_t heal = cut + Duration::ms(2).to_ns();
  w.engine.at(TimePoint::from_ns(cut), [&w, follower] { w.group.set_partitioned(follower, true); });
  w.engine.at(TimePoint::from_ns(heal),
              [&w, follower] { w.group.set_partitioned(follower, false); });
  w.engine.spawn(w.expect_submit(2));
  run_until(w.engine, heal);
  ASSERT_EQ(w.group.leader_or_negative(), static_cast<int>(leader));
  EXPECT_LT(w.group.last_index_of(follower), w.group.last_index_of(leader))
      << "the append was not lost";
  const Duration round_trip = (config.rpc_overhead + Duration::us(20)) * 2;
  run_until(w.engine, heal + (config.heartbeat + round_trip).to_ns() + 1);
  EXPECT_EQ(w.group.last_index_of(follower), w.group.last_index_of(leader));
  w.group.keep_alive(false);
  w.engine.run();
}

// The acceptance property underneath the chaos suite: a (seed, scenario)
// pair is a pure function — virtual completion time and apply order are
// bit-identical across runs.
TEST(RaftTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    World w(seed);
    test::run_task(w.engine, [](World& w) -> sim::Task<void> {
      co_await w.expect_submit(1);
      w.group.crash(static_cast<std::size_t>(w.group.leader_or_negative()));
      for (int v = 2; v <= 8; ++v) co_await w.expect_submit(v);
    }(w));
    return std::make_pair(w.engine.now().to_ns(), w.sm.applied);
  };
  const auto a = run_once(1234);
  const auto b = run_once(1234);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run_once(99);
  EXPECT_EQ(c.second.size(), a.second.size());  // same workload either way
}

}  // namespace
}  // namespace tio::raft
