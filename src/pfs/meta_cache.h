// Leased client-side metadata cache.
//
// Serves repeat lookups (dentry/attr hits) locally, without an MDS round
// trip, for up to one lease TTL of virtual time. Consistency is kept by two
// mechanisms layered on the simulator's shared-truth namespace:
//
//   * invalidation-on-mutation: every applied metadata mutation (create,
//     mkdir, unlink) drops the path's cached entries on EVERY
//     node before the mutator is acked, so a lease never covers a path
//     that changed underneath it;
//   * epoch revocation: each metadata group carries an epoch that the
//     owning SimPfs bumps on crash/restart/partition events. A cached
//     entry remembers the epoch it was issued under and is discarded on
//     mismatch — the conservative "revoke everything on failover" rule,
//     which is what makes cached reads safe across Raft leader changes
//     without a distributed lease-recall protocol.
//
// Entries also expire at insert_time + lease (virtual time), bounding how
// long a quiescent client may go without revalidating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/units.h"
#include "pfs/namespace.h"
#include "pfs/types.h"
#include "sim/engine.h"

namespace tio::pfs {

class MetaCache {
 public:
  struct Entry {
    ObjectId oid = kNoObject;
    bool is_dir = false;
    TimePoint expires;
    std::uint64_t epoch = 0;
  };

  MetaCache(sim::Engine& engine, Duration lease) : engine_(engine), lease_(lease) {}

  bool enabled() const { return lease_ > Duration::zero(); }

  // Valid (unexpired, current-epoch) entry for (node, path), or nullptr.
  // Expired and revoked entries are erased on the way out. Paths are the
  // owning file system's interned ids; kNoPath always misses.
  const Entry* lookup(std::size_t node, PathId path, std::uint64_t group_epoch);

  // Installs/refreshes the lease for (node, path) under `group_epoch`.
  void insert(std::size_t node, PathId path, ObjectId oid, bool is_dir,
              std::uint64_t group_epoch);

  // Mutation invalidation: drops the path on every node.
  void invalidate(PathId path);

  // Tests/introspection.
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  sim::Engine& engine_;
  Duration lease_;
  // path -> per-node leases. Keyed by path first so a mutation invalidates
  // all nodes with one erase.
  std::unordered_map<PathId, std::unordered_map<std::size_t, Entry>> entries_;
};

}  // namespace tio::pfs
