#include "raft/raft.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "sim/server.h"
#include "sim/sync.h"

namespace tio::raft {

namespace {

// Simulated wire sizes (headers; entry payloads add their own bytes).
constexpr std::uint64_t kVoteBytes = 48;
constexpr std::uint64_t kReplyBytes = 32;
constexpr std::uint64_t kAppendHeaderBytes = 64;
constexpr std::uint64_t kEntryHeaderBytes = 32;

struct RaftCounters {
  Counter& submits = counter("raft.submits");
  Counter& reads = counter("raft.reads");
  Counter& elections_started = counter("raft.elections_started");
  Counter& elections_won = counter("raft.elections_won");
  Counter& heartbeats = counter("raft.heartbeats");
  Counter& append_rpcs = counter("raft.append_rpcs");
  Counter& commits = counter("raft.commits");
  Counter& applies = counter("raft.applies");
  Counter& redirects = counter("raft.redirects");
  Counter& election_waits = counter("raft.election_waits");
  Counter& client_timeouts = counter("raft.client_timeouts");
  Counter& appends_suppressed = counter("raft.appends_suppressed");
  Counter& snapshots_sent = counter("raft.snapshots_sent");
  Counter& snapshots_installed = counter("raft.snapshots_installed");
  Counter& compactions = counter("raft.compactions");
  Counter& msgs_dropped = counter("raft.msgs_dropped");
  Counter& crashes = counter("raft.crashes");
  Counter& restarts = counter("raft.restarts");
};

RaftCounters& rc() {
  static RaftCounters counters;
  return counters;
}

const trace::SpanSite& election_site() {
  static trace::SpanSite site("raft", "raft.election");
  return site;
}
const trace::SpanSite& replication_site() {
  static trace::SpanSite site("raft", "raft.replication");
  return site;
}
// Client-observed failover latency: first failed attempt -> eventual
// success. This histogram is the acceptance metric for leader-crash runs.
const trace::SpanSite& failover_site() {
  static trace::SpanSite site("raft", "raft.failover");
  return site;
}

}  // namespace

// RPCs between replicas.
struct Group::RequestVote {
  Term term = 0;
  int candidate = -1;
  Index last_index = 0;
  Term last_term = 0;
};
struct Group::VoteReply {
  Term term = 0;
  bool granted = false;
};
struct Group::AppendEntries {
  Term term = 0;
  int leader = -1;
  Index prev_index = 0;
  Term prev_term = 0;
  std::vector<std::shared_ptr<const LogEntry>> entries;
  Index commit = 0;
};
struct Group::AppendReply {
  Term term = 0;
  bool success = false;
  Index match = 0;  // on failure: follower's best hint for next_index - 1
};
struct Group::InstallSnapshot {
  Term term = 0;
  int leader = -1;
  Index last_index = 0;
  Term last_term = 0;
};

struct Reply {
  explicit Reply(sim::Engine& e) : gate(e) {}
  sim::Gate gate;
  bool done = false;        // applied at the leader; result is valid
  bool not_leader = false;  // leadership lost before commit
  int hint = -1;
  pfs::MetaBatchApply result;  // written by whichever replica applies first
};

struct Group::Activity {
  explicit Activity(Group& g) : g(g) { g.begin_activity(); }
  ~Activity() { g.end_activity(); }
  Group& g;
};

struct Group::Node {
  enum class Role { follower, candidate, leader };

  Node(sim::Engine& engine, std::size_t cluster_node, std::size_t concurrency, Rng rng_in,
       std::string name)
      : node_id(cluster_node),
        rng(rng_in),
        server(std::make_unique<sim::FcfsServer>(engine, concurrency, std::move(name))) {}

  // Persistent state (survives crash/restart).
  Term term = 0;
  int voted_for = -1;
  Log log;

  // Volatile state.
  Role role = Role::follower;
  int known_leader = -1;
  bool down = false;
  bool partitioned = false;
  Index commit = 0;
  Index applied = 0;
  bool applying = false;
  std::uint64_t timer_gen = 0;
  std::int64_t candidacy_start_ns = -1;

  // Leader state.
  std::vector<Index> next, match;
  // One outstanding AppendEntries per peer; follow-ups ride the reply.
  std::vector<char> append_inflight;
  std::vector<bool> granted;
  std::size_t votes = 0;
  std::map<Index, std::shared_ptr<Reply>> waiters;

  std::size_t node_id = 0;
  Rng rng;
  std::unique_ptr<sim::FcfsServer> server;
};

Group::Group(sim::Engine& engine, net::Cluster& cluster, StateMachine& sm, RaftConfig config,
             std::size_t group_id, std::vector<std::size_t> nodes)
    : engine_(engine), cluster_(cluster), sm_(sm), config_(config), group_id_(group_id) {
  if (nodes.size() != config_.replicas) {
    throw std::invalid_argument("raft::Group: placement size != replicas");
  }
  nodes_.reserve(config_.replicas);
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    nodes_.push_back(std::make_unique<Node>(
        engine_, nodes[r], config_.server_concurrency,
        engine_.fork_rng(hash_combine(0x4af7u, group_id_ * 251 + r)),
        "raft-g" + std::to_string(group_id_) + "-r" + std::to_string(r)));
  }
  // Bootstrap: hold the group active until the first leader emerges, then
  // park if no client operation has arrived yet.
  bootstrap_active_ = true;
  unpark();
}

Group::~Group() = default;

// ---------------------------------------------------------------- transport

void Group::send(std::size_t from, std::size_t to, Rpc msg, std::uint64_t bytes) {
  engine_.spawn(deliver(from, to, std::move(msg), bytes));
}

sim::Task<void> Group::deliver(std::size_t from, std::size_t to, Rpc msg, std::uint64_t bytes) {
  co_await engine_.sleep(config_.rpc_overhead);
  co_await cluster_.fabric_transfer(nodes_[from]->node_id, nodes_[to]->node_id, bytes);
  Node& src = *nodes_[from];
  Node& dst = *nodes_[to];
  // Evaluated at delivery time: a replica that crashed or got partitioned
  // while the message was in flight loses it.
  if (dst.down || src.partitioned != dst.partitioned) {
    rc().msgs_dropped.add();
    co_return;
  }
  dispatch(to, from, std::move(msg));
}

sim::Task<void> Group::reply_latency(std::size_t from_node, std::size_t to_node,
                                     std::uint64_t bytes) {
  co_await engine_.sleep(config_.rpc_overhead);
  co_await cluster_.fabric_transfer(from_node, to_node, bytes);
}

void Group::dispatch(std::size_t me, std::size_t from, Rpc msg) {
  std::visit([&](const auto& m) { on_rpc(me, from, m); }, msg);
}

void Group::on_rpc(std::size_t me, std::size_t from, const RequestVote& rv) {
  Node& n = *nodes_[me];
  if (rv.term > n.term) step_down(me, rv.term);
  bool grant = false;
  if (rv.term == n.term && n.role == Node::Role::follower &&
      (n.voted_for < 0 || n.voted_for == rv.candidate)) {
    const bool up_to_date =
        rv.last_term > n.log.last_term() ||
        (rv.last_term == n.log.last_term() && rv.last_index >= n.log.last_index());
    if (up_to_date) {
      grant = true;
      n.voted_for = rv.candidate;
      if (running_) arm_election(me);
    }
  }
  send(me, from, VoteReply{n.term, grant}, kReplyBytes);
}

void Group::on_rpc(std::size_t me, std::size_t from, const VoteReply& vr) {
  Node& n = *nodes_[me];
  if (vr.term > n.term) {
    step_down(me, vr.term);
    return;
  }
  if (n.role != Node::Role::candidate || vr.term != n.term) return;
  if (vr.granted && !n.granted[from]) {
    n.granted[from] = true;
    if (++n.votes > config_.replicas / 2) become_leader(me);
  }
}

void Group::on_rpc(std::size_t me, std::size_t from, const AppendEntries& ae) {
  Node& n = *nodes_[me];
  if (ae.term > n.term) step_down(me, ae.term);
  if (ae.term < n.term) {
    send(me, from, AppendReply{n.term, false, 0}, kReplyBytes);
    return;
  }
  // Valid leader for our term.
  n.known_leader = ae.leader;
  leader_hint_ = ae.leader;
  n.candidacy_start_ns = -1;
  if (n.role != Node::Role::follower) step_down(me, ae.term);
  if (running_) arm_election(me);

  // Entries at or below our snapshot point are committed and applied
  // already; skip them and anchor the consistency check at the
  // snapshot (which the leader, holding every committed entry, agrees
  // with by construction).
  Index prev = ae.prev_index;
  auto first = ae.entries.begin();
  if (prev < n.log.snapshot_index()) {
    const Index skip = n.log.snapshot_index() - prev;
    first += static_cast<std::ptrdiff_t>(
        std::min<Index>(skip, static_cast<Index>(ae.entries.size())));
    prev = n.log.snapshot_index();
  }
  bool consistent;
  if (prev > n.log.last_index()) {
    consistent = false;
  } else if (prev == n.log.snapshot_index()) {
    consistent = true;
  } else {
    consistent = n.log.term_at(prev) == ae.prev_term;
  }
  if (!consistent) {
    const Index hint = std::min(n.log.last_index(), prev > 0 ? prev - 1 : 0);
    send(me, from, AppendReply{n.term, false, hint}, kReplyBytes);
    return;
  }
  Index idx = prev;
  for (auto it = first; it != ae.entries.end(); ++it) {
    ++idx;
    if (n.log.has(idx)) {
      if (n.log.term_at(idx) == (*it)->term) continue;
      n.log.truncate_from(idx);
    }
    n.log.append(*it);
  }
  const Index match = std::max(prev, idx);
  if (ae.commit > n.commit) {
    n.commit = std::min(ae.commit, n.log.last_index());
    schedule_apply(me);
  }
  send(me, from, AppendReply{n.term, true, match}, kReplyBytes);
}

void Group::on_rpc(std::size_t me, std::size_t from, const AppendReply& ar) {
  Node& n = *nodes_[me];
  if (ar.term > n.term) {
    step_down(me, ar.term);
    return;
  }
  if (n.role != Node::Role::leader || ar.term != n.term) return;
  n.append_inflight[from] = 0;
  if (ar.success) {
    if (ar.match > n.match[from]) n.match[from] = ar.match;
    n.next[from] = n.match[from] + 1;
    advance_commit(me);
    if (n.next[from] <= n.log.last_index()) send_append(me, from);
  } else {
    const Index backed = std::min(n.next[from] > 1 ? n.next[from] - 1 : 1, ar.match + 1);
    n.next[from] = std::max<Index>(backed, 1);
    send_append(me, from);
  }
}

void Group::on_rpc(std::size_t me, std::size_t from, const InstallSnapshot& is) {
  Node& n = *nodes_[me];
  if (is.term > n.term) step_down(me, is.term);
  if (is.term < n.term) {
    send(me, from, AppendReply{n.term, false, 0}, kReplyBytes);
    return;
  }
  n.known_leader = is.leader;
  leader_hint_ = is.leader;
  if (n.role != Node::Role::follower) step_down(me, is.term);
  if (running_) arm_election(me);
  if (is.last_index > n.log.snapshot_index()) {
    if (n.log.has(is.last_index) && n.log.term_at(is.last_index) == is.last_term) {
      n.log.compact_to(is.last_index, is.last_term);
    } else {
      n.log.reset_to_snapshot(is.last_index, is.last_term);
    }
  }
  // The state machine is group-shared and snapshots only cover applied
  // entries, so adopting the snapshot point needs no replay here.
  n.commit = std::max(n.commit, is.last_index);
  n.applied = std::max(n.applied, is.last_index);
  rc().snapshots_installed.add();
  send(me, from, AppendReply{n.term, true, is.last_index}, kReplyBytes);
}

// ----------------------------------------------------------------- protocol

void Group::arm_election(std::size_t r) {
  Node& n = *nodes_[r];
  const std::uint64_t gen = ++n.timer_gen;
  const std::int64_t jitter_ns = std::max<std::int64_t>(1, config_.election_jitter.to_ns());
  const Duration d =
      config_.election_min + Duration::ns(static_cast<std::int64_t>(
                                 n.rng.below(static_cast<std::uint64_t>(jitter_ns))));
  engine_.after(d, [this, r, gen] {
    Node& n = *nodes_[r];
    if (!running_ || n.down || gen != n.timer_gen) return;
    if (n.role == Node::Role::leader) return;
    start_election(r);
  });
}

void Group::arm_heartbeat(std::size_t r) {
  Node& n = *nodes_[r];
  const std::uint64_t gen = ++n.timer_gen;
  engine_.after(config_.heartbeat, [this, r, gen] {
    Node& n = *nodes_[r];
    if (!running_ || n.down || gen != n.timer_gen) return;
    if (n.role != Node::Role::leader) return;
    rc().heartbeats.add();
    broadcast_appends(r, /*force=*/true);
    arm_heartbeat(r);
  });
}

void Group::start_election(std::size_t r) {
  Node& n = *nodes_[r];
  n.role = Node::Role::candidate;
  ++n.term;
  n.voted_for = static_cast<int>(r);
  n.known_leader = -1;
  n.votes = 1;
  n.granted.assign(config_.replicas, false);
  n.granted[r] = true;
  if (n.candidacy_start_ns < 0) n.candidacy_start_ns = engine_.now().to_ns();
  rc().elections_started.add();
  if (n.votes > config_.replicas / 2) {  // single-replica group
    become_leader(r);
    return;
  }
  for (std::size_t p = 0; p < config_.replicas; ++p) {
    if (p == r) continue;
    send(r, p, RequestVote{n.term, static_cast<int>(r), n.log.last_index(), n.log.last_term()},
         kVoteBytes);
  }
  arm_election(r);  // candidacy retry with fresh jitter
}

void Group::become_leader(std::size_t r) {
  Node& n = *nodes_[r];
  n.role = Node::Role::leader;
  n.known_leader = static_cast<int>(r);
  leader_hint_ = static_cast<int>(r);
  rc().elections_won.add();
  if (n.candidacy_start_ns >= 0) {
    trace::record_span(engine_, election_site(), -1, n.candidacy_start_ns);
    n.candidacy_start_ns = -1;
  }
  n.next.assign(config_.replicas, n.log.last_index() + 1);
  n.match.assign(config_.replicas, 0);
  n.append_inflight.assign(config_.replicas, 0);
  // No-op barrier entry: lets entries from previous terms commit promptly
  // without waiting for client traffic (Raft §5.4.2).
  append_leader_entry(r, std::nullopt, 16);
  broadcast_appends(r);
  advance_commit(r);  // single-replica groups commit immediately
  arm_heartbeat(r);
  if (bootstrap_active_) {
    bootstrap_active_ = false;
    maybe_park();
  }
}

void Group::step_down(std::size_t r, Term t) {
  Node& n = *nodes_[r];
  if (t > n.term) {
    n.term = t;
    n.voted_for = -1;
  }
  if (n.role == Node::Role::leader) fail_waiters(n);
  n.role = Node::Role::follower;
  if (running_ && !n.down) arm_election(r);
}

Index Group::append_leader_entry(std::size_t r, std::optional<pfs::MetaBatch> cmd,
                                std::uint64_t bytes, std::weak_ptr<Reply> reply) {
  Node& n = *nodes_[r];
  auto e = std::make_shared<LogEntry>();
  e->term = n.term;
  e->cmd = std::move(cmd);
  e->bytes = bytes;
  e->append_ns = engine_.now().to_ns();
  e->reply = std::move(reply);
  n.log.append(std::shared_ptr<const LogEntry>(std::move(e)));
  return n.log.last_index();
}

void Group::broadcast_appends(std::size_t r, bool force) {
  for (std::size_t p = 0; p < config_.replicas; ++p) {
    if (p != r) send_append(r, p, force);
  }
}

void Group::send_append(std::size_t leader, std::size_t peer, bool force) {
  Node& n = *nodes_[leader];
  // One append in flight per peer: the reply re-checks next <= last_index
  // and sends the follow-up. Heartbeats force through so a lost reply can
  // only stall a peer for one heartbeat interval.
  if (!force && n.append_inflight[peer]) {
    rc().appends_suppressed.add();
    return;
  }
  n.append_inflight[peer] = 1;
  if (n.next[peer] <= n.log.snapshot_index()) {
    rc().snapshots_sent.add();
    send(leader, peer,
         InstallSnapshot{n.term, static_cast<int>(leader), n.log.snapshot_index(),
                         n.log.snapshot_term()},
         sm_.snapshot_bytes());
    n.next[peer] = n.log.snapshot_index() + 1;
    return;
  }
  const Index prev = n.next[peer] - 1;
  AppendEntries ae{n.term, static_cast<int>(leader), prev, n.log.term_at(prev), {}, n.commit};
  std::uint64_t bytes = kAppendHeaderBytes;
  for (Index i = n.next[peer]; i <= n.log.last_index(); ++i) {
    const auto& e = n.log.at(i);
    bytes += kEntryHeaderBytes + e->bytes;
    ae.entries.push_back(e);
  }
  rc().append_rpcs.add();
  send(leader, peer, std::move(ae), bytes);
}

void Group::advance_commit(std::size_t r) {
  Node& n = *nodes_[r];
  for (Index i = n.log.last_index(); i > n.commit; --i) {
    if (n.log.term_at(i) != n.term) break;  // older terms commit transitively
    std::size_t cnt = 1;
    for (std::size_t p = 0; p < config_.replicas; ++p) {
      if (p != r && n.match[p] >= i) ++cnt;
    }
    if (cnt > config_.replicas / 2) {
      for (Index k = n.commit + 1; k <= i; ++k) {
        rc().commits.add();
        const auto& e = n.log.at(k);
        if (e->cmd.has_value() && e->append_ns >= 0) {
          trace::record_span(engine_, replication_site(), -1, e->append_ns);
        }
      }
      n.commit = i;
      schedule_apply(r);
      break;
    }
  }
}

void Group::schedule_apply(std::size_t r) {
  Node& n = *nodes_[r];
  if (n.applying || n.down || n.applied >= n.commit) return;
  n.applying = true;
  engine_.spawn(apply_drain(r));
}

sim::Task<void> Group::apply_drain(std::size_t r) {
  Node& n = *nodes_[r];
  while (!n.down && n.applied < n.commit) {
    if (n.applied < n.log.snapshot_index()) {
      // An installed snapshot moved us forward; entries below it are
      // already applied group-wide.
      n.applied = n.log.snapshot_index();
      continue;
    }
    const Index idx = n.applied + 1;
    auto entry = n.log.at(idx);  // keep alive across compaction
    if (idx > group_applied_ && entry->cmd.has_value() && n.role == Node::Role::leader) {
      // Queue + service at this replica's MDS before the mutation lands.
      co_await n.server->serve(sm_.apply_service(*entry->cmd));
      if (n.down) break;  // crashed while in service
    }
    if (idx > group_applied_) {
      group_applied_ = idx;
      if (entry->cmd.has_value()) {
        pfs::MetaBatchApply result = sm_.apply(idx, *entry->cmd);
        if (auto reply = entry->reply.lock()) reply->result = std::move(result);
        rc().applies.add();
      }
    }
    n.applied = idx;
    // Only the leader that appended the entry holds its waiter; its own
    // apply opens the gate, so the ack follows the leader's apply.
    auto it = n.waiters.find(idx);
    if (it != n.waiters.end()) {
      auto reply = it->second;
      n.waiters.erase(it);
      reply->done = true;
      reply->gate.open();
    }
    maybe_compact(r);
  }
  n.applying = false;
  if (!n.down && n.applied < n.commit) schedule_apply(r);
}

void Group::maybe_compact(std::size_t r) {
  Node& n = *nodes_[r];
  if (n.log.size() <= config_.compact_threshold) return;
  const Index target = n.applied > config_.compact_keep ? n.applied - config_.compact_keep : 0;
  if (target <= n.log.snapshot_index()) return;
  const Term t = n.log.term_at(target);
  n.log.compact_to(target, t);
  rc().compactions.add();
}

void Group::fail_waiters(Node& n) {
  for (auto& [idx, reply] : n.waiters) {
    reply->not_leader = true;
    reply->hint = n.known_leader;
    reply->gate.open();
  }
  n.waiters.clear();
}

// -------------------------------------------------------------- fault hooks

void Group::crash(std::size_t replica) {
  Node& n = *nodes_[replica];
  if (n.down) return;
  n.down = true;
  ++n.timer_gen;
  n.known_leader = -1;
  fail_waiters(n);
  rc().crashes.add();
}

void Group::restart(std::size_t replica) {
  Node& n = *nodes_[replica];
  if (!n.down) return;
  n.down = false;
  n.role = Node::Role::follower;
  n.known_leader = -1;
  n.applying = false;
  n.votes = 0;
  rc().restarts.add();
  if (running_) arm_election(replica);
  schedule_apply(replica);
}

void Group::set_partitioned(std::size_t replica, bool isolated) {
  nodes_[replica]->partitioned = isolated;
}

void Group::keep_alive(bool on) {
  keep_alive_ = on;
  if (on) {
    unpark();
  } else {
    maybe_park();
  }
}

// ----------------------------------------------------------- park lifecycle

void Group::begin_activity() {
  if (++inflight_ == 1) unpark();
}

void Group::end_activity() {
  if (--inflight_ == 0) {
    // Client ops drive liveness from here on. Without this a group whose
    // majority crashed before the bootstrap election completed would keep
    // electing (and losing) forever, and the engine could never drain.
    bootstrap_active_ = false;
    maybe_park();
  }
}

void Group::maybe_park() {
  if (inflight_ == 0 && !bootstrap_active_ && !keep_alive_ && running_) park();
}

void Group::unpark() {
  if (running_) return;
  running_ = true;
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    Node& n = *nodes_[r];
    if (n.down) continue;
    if (n.role == Node::Role::leader) {
      broadcast_appends(r, /*force=*/true);
      arm_heartbeat(r);
    } else {
      arm_election(r);
    }
  }
}

void Group::park() {
  running_ = false;
  for (auto& n : nodes_) ++n->timer_gen;  // pending timers become no-ops
}

void Group::rotate_hint(std::size_t failed) {
  leader_hint_ = static_cast<int>((failed + 1) % config_.replicas);
}

// -------------------------------------------------------------- client side

sim::Task<Group::Route> Group::route(std::size_t client_node, std::uint64_t request_bytes,
                                     int attempt) {
  const std::size_t target = leader_hint_ >= 0
                                 ? static_cast<std::size_t>(leader_hint_)
                                 : static_cast<std::size_t>(attempt) % config_.replicas;
  Node& t = *nodes_[target];
  co_await engine_.sleep(config_.rpc_overhead);
  co_await cluster_.fabric_transfer(client_node, t.node_id, request_bytes);
  if (t.down || t.partitioned) {
    rc().client_timeouts.add();
    co_await engine_.sleep(config_.request_timeout);
    rotate_hint(target);
    co_return Route{-1, true};
  }
  if (t.role == Node::Role::leader) co_return Route{static_cast<int>(target), false};
  rc().redirects.add();
  co_await reply_latency(t.node_id, client_node, kReplyBytes);
  const int hint = t.known_leader;
  if (hint >= 0 && static_cast<std::size_t>(hint) != target && !nodes_[hint]->down) {
    leader_hint_ = hint;
    co_return Route{-1, false};
  }
  // Election in progress: bounded wait, then probe the next replica.
  rc().election_waits.add();
  co_await engine_.sleep(config_.redirect_backoff);
  rotate_hint(target);
  co_return Route{-1, true};
}

sim::Task<Result<pfs::MetaBatchApply>> Group::submit(std::size_t client_node, int rank,
                                                     pfs::MetaBatch batch, std::uint64_t bytes) {
  Activity activity(*this);
  rc().submits.add();
  const std::int64_t start_ns = engine_.now().to_ns();
  bool degraded = false;

  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    const Route reached = co_await route(client_node, kAppendHeaderBytes + bytes, attempt);
    degraded = degraded || reached.degraded;
    if (reached.leader < 0) continue;
    const auto target = static_cast<std::size_t>(reached.leader);
    Node& t = *nodes_[target];

    // Leader: append, replicate (pipelined per peer), ack after commit +
    // apply.
    auto reply = std::make_shared<Reply>(engine_);
    const Index idx = append_leader_entry(target, batch, bytes, reply);
    t.waiters.emplace(idx, reply);
    broadcast_appends(target);
    advance_commit(target);  // single-replica groups commit here
    engine_.after(config_.commit_timeout, [reply] { reply->gate.open(); });
    co_await reply->gate.wait();

    if (reply->done) {
      co_await reply_latency(t.node_id, client_node, kAppendHeaderBytes);
      if (degraded) trace::record_span(engine_, failover_site(), rank, start_ns);
      co_return std::move(reply->result);
    }
    degraded = true;
    if (reply->not_leader) {
      if (reply->hint >= 0) {
        leader_hint_ = reply->hint;
      } else {
        rc().election_waits.add();
        co_await engine_.sleep(config_.redirect_backoff);
        rotate_hint(target);
      }
    } else {
      // Commit did not reach us in time (lost majority / partition). The
      // entry may still commit later; the command is idempotent and will
      // be resubmitted — the standard at-least-once hazard.
      rc().client_timeouts.add();
      rotate_hint(target);
    }
  }
  co_return error(Errc::busy, "raft: no leader within the submit retry bound");
}

sim::Task<Status> Group::serve_read(std::size_t client_node, int rank, Duration service) {
  Activity activity(*this);
  rc().reads.add();
  const std::int64_t start_ns = engine_.now().to_ns();
  bool degraded = false;

  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    const Route reached = co_await route(client_node, kReplyBytes, attempt);
    degraded = degraded || reached.degraded;
    if (reached.leader < 0) continue;
    const auto target = static_cast<std::size_t>(reached.leader);
    Node& t = *nodes_[target];
    co_await t.server->serve(service);
    if (t.down) {  // crashed while we were queued
      degraded = true;
      rotate_hint(target);
      continue;
    }
    co_await reply_latency(t.node_id, client_node, kReplyBytes);
    if (degraded) trace::record_span(engine_, failover_site(), rank, start_ns);
    co_return Status::Ok();
  }
  co_return error(Errc::busy, "raft: metadata group has no reachable leader");
}

// ------------------------------------------------------------ introspection

int Group::leader_or_negative() const {
  int best = -1;
  Term best_term = 0;
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    if (is_leader(r) && nodes_[r]->term >= best_term) {
      best = static_cast<int>(r);
      best_term = nodes_[r]->term;
    }
  }
  return best;
}

bool Group::is_leader(std::size_t replica) const {
  const Node& n = *nodes_[replica];
  return !n.down && n.role == Node::Role::leader;
}

Term Group::term_of(std::size_t replica) const { return nodes_[replica]->term; }
Index Group::last_index_of(std::size_t replica) const { return nodes_[replica]->log.last_index(); }
Index Group::commit_of(std::size_t replica) const { return nodes_[replica]->commit; }
const Log& Group::log_of(std::size_t replica) const { return nodes_[replica]->log; }

}  // namespace tio::raft
