// Sharded deterministic execution across OS threads.
//
// ShardPool runs *independent* simulations (each its own Engine, the
// common bench/test shape: one Rig per data point) on N shard threads.
// Jobs are assigned round-robin by submission index (job j runs on shard
// j mod N), stat/trace accumulation is keyed on the shard id
// (common/stats.h, common/trace.h), and each job draws its engine trace
// pids from a pre-reserved block keyed by j — so every simulated result
// and exported artifact is a pure function of (seed, job list), identical
// at every shard count. shards=1 is the same path with one shard, run on
// the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/stats.h"

namespace tio::sim {

// Deterministic pool of independent simulation jobs over N shard threads.
class ShardPool {
 public:
  // Trace pids reserved per job: a job may create up to this many Engines
  // (a Rig creates one; multi-rig jobs a handful).
  static constexpr std::uint32_t kPidsPerJob = 64;

  // Throws std::invalid_argument unless 1 <= shards <= kMaxShards.
  explicit ShardPool(std::size_t shards);

  std::size_t shards() const { return shards_; }

  // Queues a job. Jobs must be mutually independent: no shared mutable
  // state except the sharded stats/trace registries, and no nested pools.
  void submit(MoveFn<void()> job);

  // Runs every queued job to completion and clears the queue. Job j runs
  // on shard j mod shards(), in submission order within a shard. If jobs
  // threw, the exception of the lowest job index is rethrown after all
  // jobs finish. Shard 0 runs on the calling thread.
  void run_all();

 private:
  std::size_t shards_;
  std::vector<MoveFn<void()>> jobs_;
};

}  // namespace tio::sim
