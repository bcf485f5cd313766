#include "sim/frame_pool.h"

#include <new>

#include "common/stats.h"

// Recycled frames bypass the allocator, so use-after-free of a pooled
// coroutine frame is invisible to ASan by default: the stale writer quietly
// corrupts whichever frame got the memory next. Poison cached blocks (minus
// the free-list link word) so the first stale touch faults at its source.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TIO_FRAME_POOL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define TIO_FRAME_POOL_ASAN 1
#endif
#ifdef TIO_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace tio::sim {
namespace {

constexpr std::size_t kNumClasses = FramePool::kMaxPooled / FramePool::kGranularity;

// Free blocks are chained through their own first word.
struct FreeNode {
  FreeNode* next;
};

struct PoolState {
  FreeNode* free_lists[kNumClasses] = {};
  std::size_t cached[kNumClasses] = {};
  FramePool::Stats totals;
  FramePool::Stats published;  // totals already flushed to the registry
};

PoolState& state() {
  thread_local PoolState s;
  return s;
}

// 0-based class index; callers have already excluded oversize requests.
std::size_t class_of(std::size_t bytes) {
  return (bytes + FramePool::kGranularity - 1) / FramePool::kGranularity - 1;
}

std::size_t class_bytes(std::size_t cls) { return (cls + 1) * FramePool::kGranularity; }

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
#ifdef TIO_FRAME_POOL_NO_RECYCLE
  return ::operator new(bytes);
#endif
  PoolState& s = state();
  if (bytes > kMaxPooled) {
    ++s.totals.oversize;
    return ::operator new(bytes);
  }
  const std::size_t cls = class_of(bytes);
  if (FreeNode* n = s.free_lists[cls]) {
#ifdef TIO_FRAME_POOL_ASAN
    __asan_unpoison_memory_region(n, class_bytes(cls));
#endif
    s.free_lists[cls] = n->next;
    --s.cached[cls];
    --s.totals.cached;
    ++s.totals.hits;
    return n;
  }
  ++s.totals.misses;
  s.totals.bytes += class_bytes(cls);
  if (s.totals.bytes > s.totals.peak_bytes) s.totals.peak_bytes = s.totals.bytes;
  return ::operator new(class_bytes(cls));
}

void FramePool::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
#ifdef TIO_FRAME_POOL_NO_RECYCLE
  ::operator delete(p);
  return;
#endif
  PoolState& s = state();
  if (bytes > kMaxPooled) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = class_of(bytes);
  if (s.cached[cls] >= kMaxCachedPerClass) {
    ++s.totals.dropped;
    s.totals.bytes -= class_bytes(cls);
    ::operator delete(p);
    return;
  }
  auto* n = static_cast<FreeNode*>(p);
  n->next = s.free_lists[cls];
  s.free_lists[cls] = n;
  ++s.cached[cls];
  ++s.totals.cached;
#ifdef TIO_FRAME_POOL_ASAN
  // Leave the link word readable: LeakSanitizer cannot scan poisoned bytes,
  // and it needs the `next` chain to see cached blocks as reachable.
  __asan_poison_memory_region(reinterpret_cast<char*>(n) + sizeof(FreeNode),
                              class_bytes(cls) - sizeof(FreeNode));
#endif
}

FramePool::Stats FramePool::stats() { return state().totals; }

void FramePool::publish_counters() {
  PoolState& s = state();
  const auto flush = [](const char* name, std::uint64_t total, std::uint64_t& published) {
    if (total > published) {
      counter(name).add(total - published);
      published = total;
    }
  };
  flush("sim.engine.frame_pool_hits", s.totals.hits, s.published.hits);
  flush("sim.engine.frame_pool_misses", s.totals.misses, s.published.misses);
  flush("sim.engine.frame_pool_oversize", s.totals.oversize, s.published.oversize);
  flush("sim.engine.frame_pool_dropped", s.totals.dropped, s.published.dropped);
  counter("sim.engine.frame_pool_peak_bytes").raise_to(s.totals.peak_bytes);
}

void FramePool::trim() noexcept {
  PoolState& s = state();
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    while (FreeNode* n = s.free_lists[cls]) {
#ifdef TIO_FRAME_POOL_ASAN
      __asan_unpoison_memory_region(n, class_bytes(cls));
#endif
      s.free_lists[cls] = n->next;
      ::operator delete(n);
      --s.cached[cls];
      --s.totals.cached;
      s.totals.bytes -= class_bytes(cls);
    }
  }
}

}  // namespace tio::sim
