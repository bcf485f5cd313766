// Communicator with real collective algorithms.
//
// A Comm is a per-rank view of a process group (like an MPI communicator
// handle). Collectives are implemented as the textbook message-passing
// algorithms — binomial broadcast/gather/reduce, dissemination barrier,
// pairwise all-to-all — so that message counts and volumes, and therefore
// simulated time, are faithful to what a real MPI library would generate on
// the fabric. Every rank of a comm must invoke collectives in the same
// order (the usual MPI rule); a per-rank operation counter keeps rounds
// from different collectives on disjoint tags.
#pragma once

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mpisim/runtime.h"
#include "mpisim/tag_registry.h"
#include "sim/task.h"

namespace tio::mpi {

// A partition of a communicator's ranks into groups. Group ids are dense,
// in order of first appearance by comm rank; each group's members are
// ascending comm ranks, so members[g][0] is its lowest rank.
struct RankGroups {
  std::vector<int> group_of;              // comm rank -> group id
  std::vector<std::vector<int>> members;  // group id -> comm ranks
};

class Comm {
 public:
  // World communicator for `rank`.
  static Comm world(Runtime& rt, int rank);

  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_->members.size()); }
  int global_rank() const { return group_->members[my_index_]; }
  std::size_t my_node() const { return rt_->node_of(global_rank()); }
  // Node hosting comm rank `r`. Placement is deterministic knowledge every
  // rank holds locally (block placement), so consulting it is free — the
  // topology-aware layers (intra-node collective aggregation) key off it.
  std::size_t node_of_rank(int r) const {
    check_rank(r);
    return rt_->node_of(group_->members[r]);
  }
  // Rack hosting comm rank `r` — same local-knowledge contract as
  // node_of_rank; rack geometry comes from ClusterConfig::rack_of_node.
  std::size_t rack_of_rank(int r) const {
    check_rank(r);
    return rt_->rack_of(group_->members[r]);
  }
  // This comm's ranks grouped by node when `by_node`, else one group per
  // rank. Pure placement knowledge, no communication. Built once per
  // communicator by the first rank that asks and shared by all of them.
  std::shared_ptr<const RankGroups> rank_groups(bool by_node) const;
  Runtime& runtime() const { return *rt_; }
  sim::Engine& engine() const { return rt_->engine(); }
  // Mailbox context id (unique per communicator); diagnostics only.
  std::uint64_t context() const { return group_->context; }

  // --- point to point (ranks are comm-relative) ---
  template <typename T>
  sim::Task<void> send(int dest, int tag, T value, std::uint64_t bytes);
  template <typename T>
  sim::Task<T> recv(int src, int tag) {
    return recv_as<T>(src, tag);
  }

  // --- collectives ---
  sim::Task<void> barrier();
  // Value is taken from `root` and returned on every rank; `bytes` is the
  // serialized payload size used for costing.
  template <typename T>
  sim::Task<T> bcast(int root, T value, std::uint64_t bytes);
  // Root receives a size()-element vector indexed by comm rank; other ranks
  // receive an empty vector.
  template <typename T>
  sim::Task<std::vector<T>> gather(int root, T mine, std::uint64_t bytes);
  // gather to rank 0 + bcast (n log n messages; robust at any size).
  template <typename T>
  sim::Task<std::vector<T>> allgather(T mine, std::uint64_t bytes);
  // Binomial reduction with a binary op; result valid on root only.
  template <typename T, typename Op>
  sim::Task<T> reduce(int root, T mine, std::uint64_t bytes, Op op);
  template <typename T, typename Op>
  sim::Task<T> allreduce(T mine, std::uint64_t bytes, Op op);

  // Collective: partitions ranks by `color`; ordering within a group is by
  // (key, rank). Returns this rank's sub-communicator. All ranks of one
  // color share one group (members list and caches).
  sim::Task<Comm> split(int color, int key);

 private:
  friend struct CommTestPeer;  // tests inspect group sharing and memos

  struct Group;
  struct SplitEntry {
    int color;
    int key;
  };
  // One split's partition of the parent: the first rank out of the
  // exchange computes it, each rank adopts its slot, and the last one to
  // adopt erases it from the parent's memo.
  struct SplitResult {
    std::vector<std::shared_ptr<const Group>> groups;  // one per color
    std::vector<std::pair<int, int>> place;  // parent rank -> (group, index)
    int pending = 0;                         // ranks yet to adopt
  };
  // A process group, shared by every rank's handle. Communicator-wide
  // structures hang off it so they are built once per communicator, not
  // once per rank: each of those builds spans the whole group, so per-rank
  // builds cost O(size^2). All ranks of a runtime run on one engine
  // thread, so the mutable caches need no lock.
  struct Group {
    std::uint64_t context = 0;
    std::vector<int> members;  // global ranks, comm order
    mutable std::map<std::uint32_t, SplitResult> splits;  // in flight, by op counter
    mutable std::shared_ptr<const RankGroups> node_groups;
    mutable std::shared_ptr<const RankGroups> single_groups;
  };
  Comm(Runtime& rt, std::shared_ptr<const Group> group, int my_index)
      : rt_(&rt), group_(std::move(group)), my_index_(my_index) {}

  // Raw transfer of one message to a comm-relative destination.
  sim::Task<void> send_any(int dest, int tag, std::any payload, std::uint64_t bytes);
  // The one receive: takes the next (src, tag) message for this rank and
  // checks that it carries a T. A mismatch throws std::runtime_error naming
  // this rank, the source and the tag.
  template <typename T>
  sim::Task<T> recv_as(int src, int tag);
  int next_op_tag() { return kCollectiveTagBase + 32 * static_cast<int>(op_counter_++); }
  // Forms every color's group of the split at op counter `op`.
  SplitResult partition(const std::vector<SplitEntry>& entries, std::uint32_t op) const;
  void check_rank(int r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("Comm: bad rank");
  }

  // All user-visible tags live in registry blocks below this limit
  // (mpisim/tag_registry.h); everything above is ours for collectives.
  static constexpr int kCollectiveTagBase = kCollectiveTagLimit;

  Runtime* rt_;
  std::shared_ptr<const Group> group_;
  int my_index_;
  std::uint32_t op_counter_ = 0;
};

// --- implementation ---

template <typename T>
sim::Task<void> Comm::send(int dest, int tag, T value, std::uint64_t bytes) {
  if (tag >= kCollectiveTagBase) throw std::invalid_argument("Comm::send: reserved tag");
  co_await send_any(dest, tag, std::any(std::move(value)), bytes);
}

template <typename T>
sim::Task<T> Comm::recv_as(int src, int tag) {
  check_rank(src);
  const Runtime::MailboxKey key{group_->context, my_index_, src, tag};
  std::any payload = co_await rt_->mailbox(key).pop();
  rt_->gc_mailbox(key);
  if (payload.type() != typeid(T)) {
    throw std::runtime_error(std::string("Comm::recv type mismatch: expected ") +
                             typeid(T).name() + " got " + payload.type().name() +
                             " (rank " + std::to_string(rank()) + " src " +
                             std::to_string(src) + " tag " + std::to_string(tag) + ")");
  }
  co_return std::any_cast<T>(std::move(payload));
}

template <typename T>
sim::Task<T> Comm::bcast(int root, T value, std::uint64_t bytes) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      value = co_await recv_as<T>(parent, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && !(vrank & mask) && vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      co_await send_any(child, tag, std::any(value), bytes);
    }
    mask >>= 1;
  }
  co_return value;
}

template <typename T>
sim::Task<std::vector<T>> Comm::gather(int root, T mine, std::uint64_t bytes) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  // Accumulate (vrank, value) pairs up a binomial tree.
  std::vector<std::pair<int, T>> acc;
  acc.emplace_back(vrank, std::move(mine));
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      const std::uint64_t vol = bytes * acc.size();
      co_await send_any(parent, tag, std::any(std::move(acc)), vol);
      co_return std::vector<T>{};
    }
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      auto chunk = co_await recv_as<std::vector<std::pair<int, T>>>(child, tag);
      for (auto& p : chunk) acc.push_back(std::move(p));
    }
    mask <<= 1;
  }
  // Root: reorder by comm rank.
  std::vector<T> out(n);
  for (auto& [vr, v] : acc) out[(vr + root) % n] = std::move(v);
  co_return out;
}

template <typename T>
sim::Task<std::vector<T>> Comm::allgather(T mine, std::uint64_t bytes) {
  auto gathered = co_await gather(0, std::move(mine), bytes);
  // Broadcasting the full vector costs n * bytes.
  co_return co_await bcast(0, std::move(gathered),
                           bytes * static_cast<std::uint64_t>(size()));
}

template <typename T, typename Op>
sim::Task<T> Comm::reduce(int root, T mine, std::uint64_t bytes, Op op) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      co_await send_any(parent, tag, std::any(std::move(mine)), bytes);
      co_return T{};
    }
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      T theirs = co_await recv_as<T>(child, tag);
      mine = op(std::move(mine), std::move(theirs));
    }
    mask <<= 1;
  }
  co_return mine;
}

template <typename T, typename Op>
sim::Task<T> Comm::allreduce(T mine, std::uint64_t bytes, Op op) {
  T reduced = co_await reduce(0, std::move(mine), bytes, op);
  co_return co_await bcast(0, std::move(reduced), bytes);
}

}  // namespace tio::mpi
