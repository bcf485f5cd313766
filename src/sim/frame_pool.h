// Size-class recycling allocator for coroutine frames.
//
// The simulator creates one coroutine frame per rank op (and one driver
// frame per spawned process); at Cielo scale that is 10^7-10^8 frames per
// run, all short-lived and drawn from a handful of distinct sizes. Frames
// are rounded up to a 64-byte size class and cached on a per-class free
// list when destroyed, so steady-state simulation never calls the global
// allocator. Oversized frames (> kMaxPooled) and allocations past the
// per-class cache cap fall back to ::operator new/delete and are counted.
//
// The simulator is single-threaded per engine; the pool state is
// thread_local so concurrent engines on different threads never contend.
//
// Recycling pays within one engine run, where ranks free frames at one
// phase barrier and allocate the same sizes at the next. Once a run drains,
// every one of its processes has finished, so Engine::run trims the pool:
// a later run (the next row of a sweep, or the read side after the write
// side) starts with an empty cache instead of carrying the largest
// earlier phase's dead frames as resident memory.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tio::sim {

class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;   // size-class step, bytes
  static constexpr std::size_t kMaxPooled = 4096;   // largest pooled frame
  // Per-class cap on cached frames; beyond it frees go straight to the
  // heap. Sized to hold a whole 65,536-rank bulk-synchronous phase's worth
  // of frames of one class — fig8-scale runs free rank frames en masse at
  // phase barriers and reallocate them at the next phase. A tighter cap
  // (cache no larger than the live frames of the class) cut a create
  // storm's peak RSS further but multiplied its pool misses by ~4 and slowed
  // its stat pass; the drain-time trim bounds the cache between runs
  // instead.
  static constexpr std::size_t kMaxCachedPerClass = 1 << 17;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t hits = 0;      // allocations served from a free list
    std::uint64_t misses = 0;    // pooled-size allocations that hit ::new
    std::uint64_t oversize = 0;  // frames larger than kMaxPooled
    std::uint64_t dropped = 0;   // frees past the cache cap, sent to ::delete
    std::uint64_t cached = 0;    // frames currently held in free lists
    std::uint64_t bytes = 0;       // pooled bytes held now, live plus cached
    std::uint64_t peak_bytes = 0;  // high-water of `bytes`
  };
  // This thread's lifetime totals.
  static Stats stats();

  // Adds the deltas since the previous publish into the global counter
  // registry (sim.engine.frame_pool_*), and raises
  // sim.engine.frame_pool_peak_bytes to this thread's high-water. Called
  // from Engine::run.
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
