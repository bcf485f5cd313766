// Size-class recycling allocator for coroutine frames.
//
// The simulator creates one coroutine frame per rank op (and one driver
// frame per spawned process); at Cielo scale that is 10^7-10^8 frames per
// run, all short-lived and drawn from a handful of distinct sizes. Frames
// are rounded up to a 64-byte size class and cached on a per-class free
// list when destroyed, so steady-state simulation rarely calls the global
// allocator. Oversized frames (> kMaxPooled) go straight to ::operator
// new/delete and are counted.
//
// The cache follows the live frames. Each thread may cache at most
// max(kBudgetFloor, live / kBudgetLiveDivisor) bytes, where `live` is the
// pooled bytes its coroutines hold right now. A free that pushes the cache
// past that budget hands whole classes back to the heap, least recently
// allocated first, until the cache fits again; the class being freed into
// is never released, so a phase that frees en masse keeps its frames for
// the next phase that allocates the same sizes. What a finished phase
// leaves behind in classes nobody allocates any more goes back to the heap,
// where other classes and other allocations reuse it. (A fixed cap of
// 131,072 frames per class, the earlier rule, held a create storm's dead
// create-phase frames through its close and stat phases.)
//
// The simulator is single-threaded per engine; the pool state is
// thread_local so concurrent engines on different threads never contend.
//
// Once a run drains, every one of its processes has finished, so Engine::run
// trims the pool: a later run (the next row of a sweep, or the read side
// after the write side) starts with an empty cache.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tio::sim {

class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;   // size-class step, bytes
  static constexpr std::size_t kMaxPooled = 4096;   // largest pooled frame
  // The cache budget: cached bytes may reach live bytes / kBudgetLiveDivisor,
  // and kBudgetFloor whatever the live bytes.
  static constexpr std::uint64_t kBudgetLiveDivisor = 2;
  static constexpr std::uint64_t kBudgetFloor = std::uint64_t{4} << 20;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t hits = 0;      // allocations served from a free list
    std::uint64_t misses = 0;    // pooled-size allocations that hit ::new
    std::uint64_t oversize = 0;  // frames larger than kMaxPooled
    std::uint64_t dropped = 0;   // cached frames the budget handed back to ::delete
    std::uint64_t cached = 0;    // frames currently held in free lists
    std::uint64_t bytes = 0;       // pooled bytes held now, live plus cached
    std::uint64_t peak_bytes = 0;  // high-water of `bytes`
    std::uint64_t peak_live_bytes = 0;  // high-water of the live (not cached) bytes
  };
  // This thread's lifetime totals.
  static Stats stats();

  // Adds the deltas since the previous publish into the global counter
  // registry (sim.engine.frame_pool_*), and raises
  // sim.engine.frame_pool_peak_bytes and frame_pool_peak_live_bytes to this
  // thread's high-waters. Called from Engine::run.
  static void publish_counters();

  // Releases every cached frame back to the heap. Engine::run calls it once
  // its queue drains; ShardPool workers call it before their thread exits.
  static void trim() noexcept;
};

// Inherit in a coroutine promise type to allocate its frame from the pool.
// The sized operator delete is required: the pool recomputes the size class
// from the byte count rather than storing a per-frame header.
struct PooledFrame {
  static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FramePool::deallocate(p, bytes);
  }
};

}  // namespace tio::sim
