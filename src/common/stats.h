// Process-global named registries for lightweight subsystem
// instrumentation: monotonically increasing counters (index builds, cache
// hits, ...) and latency histograms (span durations recorded by
// common/trace.h).
//
// Sharded accumulation: the simulator runs independent simulations on
// several OS threads (sim/sharded.h). Counters, histograms and trace
// buffers (common/trace.h) therefore keep one cell per shard, indexed by
// a thread-local shard id (set_stat_shard), so hot-path recording never
// contends across shards, and reads merge the cells. Merges are
// order-independent (sums for counters, a sorted multiset for histogram
// samples), so reported values do not depend on how work was spread
// across shards. A thread that never calls set_stat_shard records into
// shard 0.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tio {

// The one bound on shard ids: sim::ShardPool runs at most this many shards,
// and every per-shard array (counter cells, histogram cells, trace buffers)
// has this many entries. Ids must be unique among concurrently recording
// threads; sim::ShardPool assigns dense ids 0..shards-1.
inline constexpr std::size_t kMaxShards = 16;

// Sets this thread's shard id (throws std::invalid_argument when
// shard >= kMaxShards). Shard-pool workers call this before running jobs;
// other threads default to shard 0.
void set_stat_shard(unsigned shard);
unsigned stat_shard();

// A monotonically increasing event/byte counter. Counters are registered by
// name the first time they are requested and live for the process lifetime,
// so holding a `Counter&` across calls is always safe.
//
// Internally sharded: add() lands in the calling thread's cell (indexed by
// stat_shard()), value() sums every cell. Cells are cache-line-sized so
// shards incrementing the same counter never false-share.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    cells_[stat_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  // Raises a max-valued counter to at least `v`. The max lives in cell 0
  // (compare-exchange), so value() is the largest `v` any shard published,
  // whatever the interleaving. Do not mix with add() on one counter.
  void raise_to(std::uint64_t v);
  // Total across all shards.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  // This shard's contribution only. Lets a job measure a before/after delta
  // of a global counter without seeing concurrent jobs on other shards.
  std::uint64_t local_value() const {
    return cells_[stat_shard()].v.load(std::memory_order_relaxed);
  }
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMaxShards> cells_{};
};

// A latency histogram over nonnegative int64 samples (virtual-time
// nanoseconds, in practice). It keeps the raw samples, so percentiles are
// exact (nearest-rank over the full sample); the merged sort is lazy and
// cached until the next record. sum() is derived from the samples at read
// time.
// Like counters, histograms live in a process-global registry for the
// process lifetime, so holding a `Histogram&` across calls is always safe.
//
// Sharded accumulation: record() appends to the calling shard's sample
// vector (no lock, no atomics); reads merge the cells. Readers must be
// quiescent with respect to writers (the benches read only after shard
// threads have joined); the merged sample is a sorted multiset, so it does
// not depend on which shard recorded which sample.
class Histogram {
 public:
  // Records one sample; negative values clamp to zero.
  void record(std::int64_t v) { cells_[stat_shard()].samples.push_back(v < 0 ? 0 : v); }

  std::uint64_t count() const;
  bool empty() const { return count() == 0; }
  std::int64_t sum() const;
  std::int64_t min() const;  // 0 when empty
  std::int64_t max() const;  // 0 when empty
  // Exact nearest-rank percentile, p in [0, 100] (clamped); 0 when empty.
  std::int64_t percentile(double p) const;

  void reset();

 private:
  // One shard's samples; padded so shards appending to the same histogram
  // never false-share.
  struct alignas(64) Cell {
    std::vector<std::int64_t> samples;
  };
  // Rebuilds the merged sorted sample cache when stale; returns it.
  const std::vector<std::int64_t>& merged() const;

  std::array<Cell, kMaxShards> cells_{};
  mutable std::mutex mu_;  // guards the merge cache
  mutable std::vector<std::int64_t> sorted_cache_;
  mutable std::uint64_t sorted_count_ = ~std::uint64_t{0};
};

// Returns the process-global counter with this name, creating it on first
// use. Dotted names ("plfs.index.entries_merged") group related counters.
Counter& counter(std::string_view name);

// The process-global histogram with this name, creating it on first use.
// Names share the dotted-group convention with counters.
Histogram& histogram(std::string_view name);

// True when `name` belongs to the dot-separated group `prefix`: the empty
// prefix matches everything, otherwise `name` must equal `prefix` or start
// with `prefix` followed by a '.'. A prefix already ending in '.' is taken
// as a raw prefix match. So "plfs.index" matches "plfs.index.builds" but
// NOT "plfs.index_cache.hits"; use "plfs.index" + "plfs.index_cache" (or
// the raw prefix "plfs.index") to cover both.
bool name_in_group(std::string_view name, std::string_view prefix);

// All registered counters as (name, value), sorted by name. Counters whose
// value is zero are included; `prefix` filters by dot-boundary group (see
// name_in_group).
std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot(
    std::string_view prefix = "");

// All registered histograms as (name, histogram), sorted by name, filtered
// by dot-boundary group like counter_snapshot. The pointers stay valid for
// the process lifetime.
std::vector<std::pair<std::string, const Histogram*>> histogram_snapshot(
    std::string_view prefix = "");

}  // namespace tio
