// Simulated MPI runtime: rank placement and point-to-point mailboxes.
//
// Each rank is a coroutine; messages are matched by (context, destination,
// source, tag) exactly, like MPI point-to-point without wildcards. Payloads
// stay in-process in a type-erased mailbox (std::any): the payload types
// form an open set (FlatIndex handles, collective-buffering chunk vectors,
// split entries, ...), and Comm's one receive checks the type on the way
// out. Transfer time is charged from the byte count through the cluster
// fabric model.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "net/cluster.h"
#include "sim/sync.h"

namespace tio::mpi {

class Comm;

class Runtime {
 public:
  // Block placement: rank r runs on node r / cores_per_node (wrapping if the
  // job is larger than the machine, i.e. oversubscribed).
  Runtime(net::Cluster& cluster, int nprocs);

  net::Cluster& cluster() { return cluster_; }
  sim::Engine& engine() { return cluster_.engine(); }
  int nprocs() const { return nprocs_; }
  std::size_t node_of(int rank) const;
  // Rack hosting `rank` (cluster rack geometry over node_of).
  std::size_t rack_of(int rank) const;

  // Per-message software overhead on top of the fabric transfer.
  Duration send_overhead() const { return Duration::us(1); }

  struct MailboxKey {
    std::uint64_t context;
    int dst;
    int src;
    int tag;
    bool operator==(const MailboxKey&) const = default;
  };
  sim::Queue<std::any>& mailbox(const MailboxKey& key);
  // Destroys the mailbox if it is drained and unwaited. Mailboxes are
  // keyed by (context, dst, src, tag): collectives mint fresh tags per
  // operation, so at 65,536 ranks an un-collected map leaks gigabytes.
  void gc_mailbox(const MailboxKey& key);

 private:
  friend class Comm;  // caches the shared world group below

  struct KeyHash {
    std::size_t operator()(const MailboxKey& k) const {
      std::uint64_t h = hash_combine(k.context, static_cast<std::uint64_t>(k.dst));
      h = hash_combine(h, static_cast<std::uint64_t>(k.src));
      return static_cast<std::size_t>(hash_combine(h, static_cast<std::uint64_t>(k.tag)));
    }
  };

  net::Cluster& cluster_;
  int nprocs_;
  // A mailbox lives for exactly one message on the collective paths (fresh
  // tag per operation), so both sides of the lookup are churn-optimized:
  // the map is open-addressed (no node allocation per message) and drained
  // Queue objects recycle through idle_queues_ instead of being destroyed.
  // all_queues_ owns every Queue ever minted, whatever map state it dies in.
  FlatMap<MailboxKey, sim::Queue<std::any>*, KeyHash> mailboxes_;
  std::vector<std::unique_ptr<sim::Queue<std::any>>> all_queues_;
  std::vector<sim::Queue<std::any>*> idle_queues_;
  // Comm::world's group is identical for every rank; building it per rank
  // would be O(nprocs^2). Stored type-erased to avoid a header cycle with
  // comm.h (only Comm::world touches it).
  std::shared_ptr<const void> world_group_;
};

// Runs an SPMD job: spawns `nprocs` rank coroutines (each receiving its own
// world Comm) and drives the engine until its queue drains. Throws
// std::runtime_error naming the stranded ranks if any rank is then still
// suspended (a peer returned before a collective or send it waits on).
void run_spmd(net::Cluster& cluster, int nprocs,
              const std::function<sim::Task<void>(Comm)>& rank_main);

}  // namespace tio::mpi
