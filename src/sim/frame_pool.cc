#include "sim/frame_pool.h"

#include <algorithm>
#include <bit>
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
// One bit per class in PoolState::stocked.
static_assert(kNumClasses == 64, "PoolState::stocked holds one bit per size class");

// Free blocks are chained through their own first word.
struct FreeNode {
  FreeNode* next;
};

struct PoolState {
  FreeNode* free_lists[kNumClasses] = {};
  std::size_t cached[kNumClasses] = {};
  // Allocation clock reading of each class's latest allocation: the class
  // with the smallest is the least recently allocated.
  std::uint64_t last_alloc[kNumClasses] = {};
  std::uint64_t clock = 0;
  std::uint64_t stocked = 0;       // bit c set while free_lists[c] is non-empty
  std::uint64_t live_bytes = 0;    // pooled bytes handed out and not yet freed
  std::uint64_t cached_bytes = 0;  // pooled bytes sitting in free lists
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

std::uint64_t budget(std::uint64_t live_bytes) {
  return std::max(FramePool::kBudgetFloor, live_bytes / FramePool::kBudgetLiveDivisor);
}

void note_live(PoolState& s, std::size_t bytes) {
  s.live_bytes += bytes;
  s.totals.peak_live_bytes = std::max(s.totals.peak_live_bytes, s.live_bytes);
}

// Hands every cached frame of `cls` back to the heap; returns how many.
std::size_t release_class(PoolState& s, std::size_t cls) noexcept {
  const std::size_t n = s.cached[cls];
  while (FreeNode* node = s.free_lists[cls]) {
#ifdef TIO_FRAME_POOL_ASAN
    __asan_unpoison_memory_region(node, class_bytes(cls));
#endif
    s.free_lists[cls] = node->next;
    ::operator delete(node);
  }
  s.cached[cls] = 0;
  s.stocked &= ~(std::uint64_t{1} << cls);
  s.totals.cached -= n;
  s.cached_bytes -= n * class_bytes(cls);
  s.totals.bytes -= n * class_bytes(cls);
  return n;
}

// Brings the cache back under the budget by releasing whole classes, least
// recently allocated first, never `keep` (the class just freed into).
void shed(PoolState& s, std::size_t keep) noexcept {
  while (s.cached_bytes > budget(s.live_bytes)) {
    std::uint64_t others = s.stocked & ~(std::uint64_t{1} << keep);
    if (others == 0) return;
    std::size_t victim = static_cast<std::size_t>(std::countr_zero(others));
    for (others &= others - 1; others != 0; others &= others - 1) {
      const auto cls = static_cast<std::size_t>(std::countr_zero(others));
      if (s.last_alloc[cls] < s.last_alloc[victim]) victim = cls;
    }
    s.totals.dropped += release_class(s, victim);
  }
}

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
  s.last_alloc[cls] = ++s.clock;
  note_live(s, class_bytes(cls));
  if (FreeNode* n = s.free_lists[cls]) {
#ifdef TIO_FRAME_POOL_ASAN
    __asan_unpoison_memory_region(n, class_bytes(cls));
#endif
    s.free_lists[cls] = n->next;
    if (--s.cached[cls] == 0) s.stocked &= ~(std::uint64_t{1} << cls);
    --s.totals.cached;
    s.cached_bytes -= class_bytes(cls);
    ++s.totals.hits;
    return n;
  }
  ++s.totals.misses;
  s.totals.bytes += class_bytes(cls);
  s.totals.peak_bytes = std::max(s.totals.peak_bytes, s.totals.bytes);
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
  auto* n = static_cast<FreeNode*>(p);
  n->next = s.free_lists[cls];
  s.free_lists[cls] = n;
  ++s.cached[cls];
  s.stocked |= std::uint64_t{1} << cls;
  ++s.totals.cached;
  s.live_bytes -= class_bytes(cls);
  s.cached_bytes += class_bytes(cls);
#ifdef TIO_FRAME_POOL_ASAN
  // Leave the link word readable: LeakSanitizer cannot scan poisoned bytes,
  // and it needs the `next` chain to see cached blocks as reachable.
  __asan_poison_memory_region(reinterpret_cast<char*>(n) + sizeof(FreeNode),
                              class_bytes(cls) - sizeof(FreeNode));
#endif
  if (s.cached_bytes > budget(s.live_bytes)) shed(s, cls);
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
  counter("sim.engine.frame_pool_peak_live_bytes").raise_to(s.totals.peak_live_bytes);
}

void FramePool::trim() noexcept {
  PoolState& s = state();
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) release_class(s, cls);
}

}  // namespace tio::sim
