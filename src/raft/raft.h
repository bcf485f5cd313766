// Deterministic Raft replica groups over the simulation engine.
//
// A Group runs one metadata namespace as `replicas` MDS server replicas
// placed on distinct cluster nodes: leader election with randomized
// virtual-time timeouts, heartbeats, log replication with commit/apply
// indices, and snapshot/compaction for lagging followers. Replicas are not
// mpisim ranks — they are engine-level actors whose RPCs are spawned
// coroutines charging `rpc_overhead` plus the fabric model. The five
// message kinds are one std::variant (Rpc), so dispatch is a visit and
// needs no tag registry.
//
// Typed commands: a log entry holds the pfs::MetaBatch it replicates
// (nullopt for the leader's no-op barrier), and the state machine answers
// with a pfs::MetaBatchApply. Results live in the submitting client's
// wait slot (Reply), which the leader creates before it appends and the
// entry points to; the group keeps no result table.
//
// Determinism and termination: every source of randomness is a fork of the
// engine RNG keyed by (group, replica), so a run is a pure function of
// (seed, fault plan). Because mpi::run_spmd drives the engine until the
// event queue is EMPTY, a replica group must not keep free-running timers
// alive forever: a group is "active" while client operations are in
// flight (plus its bootstrap election) and *parks* when the last one
// completes — timers stop re-arming, leadership/term/log state is
// retained, and the next operation unparks it. Stale timer events drain
// as generation-checked no-ops.
//
// Append schedule: the leader keeps at most one AppendEntries RPC in
// flight per peer. Submits that arrive meanwhile only append to the
// leader's log; the reply sends the follow-up carrying everything still
// unreplicated, and every heartbeat forces a send so a lost reply stalls
// a peer for at most one heartbeat interval. Under a create storm this
// keeps the replicated bytes O(n) instead of re-sending the whole log
// suffix on every submit.
//
// Exactly-once application: all replicas of a group share ONE authoritative
// state machine (the pfs::Namespace lives outside the group). A group-wide
// applied index guarantees each committed entry mutates it exactly once,
// whichever replica gets there first, and that replica writes the result
// into the entry's wait slot; per-replica apply indices track protocol
// state. Client acks are sent only after the leader has applied the entry,
// so an acknowledged create can never be lost by a crash. The client side
// retries on NotLeader redirects and request timeouts, which is the
// standard at-least-once hazard — callers submit idempotent commands (as
// the metadata ops are) and the PLFS retry budget bounds the macro-level
// retries above this layer.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/cluster.h"
#include "pfs/types.h"
#include "raft/log.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::raft {

struct RaftConfig {
  std::size_t replicas = 3;
  std::size_t server_concurrency = 4;  // FCFS service slots per replica MDS
  Duration rpc_overhead = Duration::us(15);
  Duration heartbeat = Duration::ms(10);
  Duration election_min = Duration::ms(50);
  Duration election_jitter = Duration::ms(50);
  Duration request_timeout = Duration::ms(40);   // per client attempt
  // Wait for an accepted entry to commit+apply. Much longer than
  // request_timeout: the entry is already in the leader's log, so giving up
  // early just resubmits a duplicate into the backlog (crash and step-down
  // fail the waiters explicitly; this bound only matters for lost majority).
  Duration commit_timeout = Duration::ms(400);
  Duration redirect_backoff = Duration::ms(5);   // election wait between attempts
  int max_attempts = 24;                         // per submit/serve_read
  std::size_t compact_threshold = 1024;          // log entries before compaction
  std::size_t compact_keep = 128;                // tail kept for lagging followers
};

// The replicated state machine. apply() is invoked exactly once per
// committed command, in index order, group-wide (never for the leader's
// no-op barrier). apply_service() is the simulated MDS service time
// charged (through the leader's FCFS server) before the mutation lands;
// snapshot_bytes() sizes InstallSnapshot transfers on the fabric.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual pfs::MetaBatchApply apply(Index index, const pfs::MetaBatch& batch) = 0;
  virtual Duration apply_service(const pfs::MetaBatch& batch) const = 0;
  virtual std::uint64_t snapshot_bytes() const = 0;
};

class Group {
 public:
  // `nodes[r]` is the cluster node hosting replica r (size == replicas).
  Group(sim::Engine& engine, net::Cluster& cluster, StateMachine& sm, RaftConfig config,
        std::size_t group_id, std::vector<std::size_t> nodes);
  ~Group();
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  // Replicates `batch` (`bytes` on the wire) through the group and
  // returns the state machine's apply result once the leader has committed
  // and applied it. Retries with NotLeader redirects and bounded election
  // waits; returns Errc::busy (transient) once the attempt bound is
  // exhausted so the caller's retry budget governs persistence.
  sim::Task<Result<pfs::MetaBatchApply>> submit(std::size_t client_node, int rank,
                                                pfs::MetaBatch batch, std::uint64_t bytes);

  // Non-mutating metadata op served by the leader's FCFS server, with the
  // same leader discovery / election wait as submit.
  sim::Task<Status> serve_read(std::size_t client_node, int rank, Duration service);

  // Fault hooks (FaultPlan server outages / partitions). crash() drops the
  // replica's volatile state and fails its pending client waiters;
  // persistent state (term, vote, log) survives to restart(). A
  // partitioned replica is unreachable by peers and clients but keeps
  // running.
  void crash(std::size_t replica);
  void restart(std::size_t replica);
  void set_partitioned(std::size_t replica, bool isolated);

  // Keeps timers armed while no client operation is in flight (tests that
  // drive the group to virtual-time horizons).
  void keep_alive(bool on);

  // Introspection (tests, leader-targeted fault resolution).
  int leader_or_negative() const;  // highest-term live leader, or -1
  bool is_leader(std::size_t replica) const;  // live and in the leader role
  std::size_t replicas() const { return config_.replicas; }
  std::size_t group_id() const { return group_id_; }
  Term term_of(std::size_t replica) const;
  Index last_index_of(std::size_t replica) const;
  Index commit_of(std::size_t replica) const;
  Index group_applied() const { return group_applied_; }

 private:
  friend struct GroupTestPeer;  // tests compare replica logs (log matching)

  struct Node;
  struct Activity;  // holds the group unparked while a client op runs

  // RPCs between replicas (raft.cc), carried as one variant.
  struct RequestVote;
  struct VoteReply;
  struct AppendEntries;
  struct AppendReply;
  struct InstallSnapshot;
  using Rpc = std::variant<RequestVote, VoteReply, AppendEntries, AppendReply, InstallSnapshot>;

  // Outcome of one client attempt to reach the leader.
  struct Route {
    int leader = -1;        // the replica that is leader, or -1: attempt spent
    bool degraded = false;  // the attempt waited out a dead target or an election
  };

  // Transport: fire-and-forget RPC charging rpc_overhead + fabric.
  void send(std::size_t from, std::size_t to, Rpc msg, std::uint64_t bytes);
  sim::Task<void> deliver(std::size_t from, std::size_t to, Rpc msg, std::uint64_t bytes);
  void dispatch(std::size_t me, std::size_t from, Rpc msg);
  void on_rpc(std::size_t me, std::size_t from, const RequestVote& rv);
  void on_rpc(std::size_t me, std::size_t from, const VoteReply& vr);
  void on_rpc(std::size_t me, std::size_t from, const AppendEntries& ae);
  void on_rpc(std::size_t me, std::size_t from, const AppendReply& ar);
  void on_rpc(std::size_t me, std::size_t from, const InstallSnapshot& is);
  sim::Task<void> reply_latency(std::size_t from_node, std::size_t to_node, std::uint64_t bytes);

  // Client routing: one attempt's request hop of `request_bytes` to the
  // hinted replica, then the dead-target timeout, the redirect or the
  // election wait. submit and serve_read differ only in the request bytes
  // and what they do at the leader.
  sim::Task<Route> route(std::size_t client_node, std::uint64_t request_bytes, int attempt);

  // Protocol.
  void arm_election(std::size_t r);
  void arm_heartbeat(std::size_t r);
  void start_election(std::size_t r);
  void become_leader(std::size_t r);
  void step_down(std::size_t r, Term t);
  void broadcast_appends(std::size_t r, bool force = false);
  void send_append(std::size_t leader, std::size_t peer, bool force = false);
  void advance_commit(std::size_t r);
  void schedule_apply(std::size_t r);
  sim::Task<void> apply_drain(std::size_t r);
  void maybe_compact(std::size_t r);
  void fail_waiters(Node& n);
  Index append_leader_entry(std::size_t r, std::optional<pfs::MetaBatch> cmd, std::uint64_t bytes,
                            std::weak_ptr<Reply> reply = {});
  const Log& log_of(std::size_t replica) const;

  // Park/unpark lifecycle.
  void begin_activity();
  void end_activity();
  void unpark();
  void park();
  void maybe_park();
  void rotate_hint(std::size_t failed);

  sim::Engine& engine_;
  net::Cluster& cluster_;
  StateMachine& sm_;
  RaftConfig config_;
  std::size_t group_id_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;

  int leader_hint_ = -1;  // client routing hint, updated by heartbeats
  Index group_applied_ = 0;

  std::size_t inflight_ = 0;
  bool running_ = false;
  bool bootstrap_active_ = false;
  bool keep_alive_ = false;
};

}  // namespace tio::raft
