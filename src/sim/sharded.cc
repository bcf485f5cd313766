#include "sim/sharded.h"

#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/stats.h"
#include "common/trace.h"
#include "sim/frame_pool.h"

namespace tio::sim {

static_assert(kMaxShards == Counter::kSlots,
              "each live shard needs its own Counter cell for local_value()");
static_assert(kMaxShards <= kMaxStatShards, "shard ids must be valid stat shards");

ShardPool::ShardPool(std::size_t shards) : shards_(shards) {
  if (shards < 1 || shards > kMaxShards) {
    throw std::invalid_argument("ShardPool: shards must be in [1, kMaxShards]");
  }
}

void ShardPool::submit(MoveFn<void()> job) { jobs_.push_back(std::move(job)); }

void ShardPool::run_all() {
  std::vector<MoveFn<void()>> jobs = std::move(jobs_);
  jobs_.clear();
  if (jobs.empty()) return;

  if (shards_ == 1) {
    // The legacy serial path, bit for bit: inline execution, global pid
    // numbering, exceptions propagate immediately.
    for (auto& job : jobs) job();
    return;
  }

  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.note_shard_count(shards_);
  // Reserve every job's pid block upfront so job j's engines get the same
  // trace pids no matter which thread runs it or when.
  const std::uint32_t pid_base =
      tracer.reserve_pids(static_cast<std::uint32_t>(jobs.size()) * kPidsPerJob);

  std::vector<std::exception_ptr> errors(jobs.size());
  const auto worker = [&](std::size_t shard) {
    set_stat_shard(static_cast<unsigned>(shard));
    for (std::size_t j = shard; j < jobs.size(); j += shards_) {
      trace::PidScope pids(pid_base + static_cast<std::uint32_t>(j) * kPidsPerJob,
                           kPidsPerJob);
      try {
        jobs[j]();
      } catch (...) {
        errors[j] = std::current_exception();
      }
    }
    // Flush this thread's frame-pool deltas while its thread-locals are
    // still alive, then free the recycling cache: frames cached on an
    // exited thread are unreachable and read as leaks.
    FramePool::publish_counters();
    FramePool::trim();
  };

  std::vector<std::thread> threads;
  threads.reserve(shards_ - 1);
  for (std::size_t s = 1; s < shards_; ++s) threads.emplace_back(worker, s);
  worker(0);
  for (auto& t : threads) t.join();

  // All jobs ran; surface the failure of the lowest job index (a
  // deterministic choice) and drop the rest.
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace tio::sim
