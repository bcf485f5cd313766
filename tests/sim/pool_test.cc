// Tests for the allocation-recycling layers behind the engine hot path:
// MoveFn's small-buffer optimization (inline vs heap spill), the coroutine
// FramePool (size-class reuse, oversize fallback, cache cap), and the
// engine's pooled event slab. These run under ASan/UBSan via ci.sh, which
// is the point: every pool recycles raw memory, so lifetime bugs here are
// exactly what the sanitizers exist to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/function.h"
#include "common/stats.h"
#include "sim/engine.h"
#include "sim/frame_pool.h"
#include "sim/task.h"

namespace tio::sim {
namespace {

// ---------------------------------------------------------------- MoveFn --

TEST(MoveFn, SmallCaptureStaysInline) {
  int x = 41;
  MoveFn<int()> fn = [x] { return x + 1; };
  EXPECT_TRUE(fn.uses_inline_storage());
  EXPECT_EQ(fn(), 42);
}

TEST(MoveFn, InlineSurvivesMoves) {
  auto p = std::make_unique<int>(7);  // move-only, non-trivial capture
  MoveFn<int()> fn = [p = std::move(p)] { return *p; };
  EXPECT_TRUE(fn.uses_inline_storage());
  MoveFn<int()> fn2 = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  MoveFn<int()> fn3;
  fn3 = std::move(fn2);
  EXPECT_TRUE(fn3.uses_inline_storage());
  EXPECT_EQ(fn3(), 7);
}

TEST(MoveFn, LargeCaptureSpillsToHeapAndCounts) {
  const std::uint64_t spills_before = counter("common.fn.heap_spills").value();
  struct Big {
    std::uint64_t words[8];  // 64 bytes > kInlineSize (32)
  } big{{1, 2, 3, 4, 5, 6, 7, 8}};
  MoveFn<std::uint64_t()> fn = [big] { return big.words[0] + big.words[7]; };
  EXPECT_FALSE(fn.uses_inline_storage());
  EXPECT_EQ(fn(), 9u);
  EXPECT_EQ(counter("common.fn.heap_spills").value(), spills_before + 1);

  // Moving a spilled callable transfers the heap pointer; it must still be
  // destroyed exactly once (ASan validates this).
  MoveFn<std::uint64_t()> fn2 = std::move(fn);
  EXPECT_FALSE(fn2.uses_inline_storage());
  EXPECT_EQ(fn2(), 9u);
}

TEST(MoveFn, DestructorRunsForInlineNonTrivialCapture) {
  auto flag = std::make_shared<int>(0);
  {
    MoveFn<void()> fn = [flag] { ++*flag; };
    EXPECT_TRUE(fn.uses_inline_storage());
    fn();
  }
  EXPECT_EQ(*flag, 1);               // called once
  EXPECT_EQ(flag.use_count(), 1);    // capture released on destruction
}

// ------------------------------------------------------------- FramePool --

TEST(FramePool, ReusesSameSizeClass) {
  FramePool::trim();
  const auto before = FramePool::stats();
  void* a = FramePool::allocate(100);  // class: 128 bytes
  FramePool::deallocate(a, 100);
  void* b = FramePool::allocate(110);  // same class, must reuse a's block
  EXPECT_EQ(a, b);
  FramePool::deallocate(b, 110);
  const auto after = FramePool::stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  FramePool::trim();
}

TEST(FramePool, DistinctSizeClassesDoNotMix) {
  FramePool::trim();
  void* small = FramePool::allocate(64);
  FramePool::deallocate(small, 64);
  void* large = FramePool::allocate(1024);  // different class: fresh block
  EXPECT_NE(small, large);
  FramePool::deallocate(large, 1024);
  FramePool::trim();
}

TEST(FramePool, OversizeFallsBackToHeap) {
  FramePool::trim();
  const auto before = FramePool::stats();
  void* p = FramePool::allocate(FramePool::kMaxPooled + 1);
  ASSERT_NE(p, nullptr);
  FramePool::deallocate(p, FramePool::kMaxPooled + 1);
  const auto after = FramePool::stats();
  EXPECT_EQ(after.oversize, before.oversize + 1);
  EXPECT_EQ(after.cached, before.cached);  // oversize frames are never cached
}

TEST(FramePool, CacheCapDropsExcessFrees) {
  FramePool::trim();
  constexpr std::size_t kBytes = 256;
  std::vector<void*> blocks;
  blocks.reserve(FramePool::kMaxCachedPerClass + 8);
  for (std::size_t i = 0; i < FramePool::kMaxCachedPerClass + 8; ++i) {
    blocks.push_back(FramePool::allocate(kBytes));
  }
  const auto before = FramePool::stats();
  for (void* p : blocks) FramePool::deallocate(p, kBytes);
  const auto after = FramePool::stats();
  EXPECT_EQ(after.dropped, before.dropped + 8);  // cap reached, rest dropped
  EXPECT_EQ(after.cached, FramePool::kMaxCachedPerClass);
  FramePool::trim();
  EXPECT_EQ(FramePool::stats().cached, 0u);
}

// Coroutine frames actually route through the pool via PooledFrame.
Task<int> add_one(int x) { co_return x + 1; }

Task<int> run_chain(Engine& engine, int n) {
  int v = 0;
  for (int i = 0; i < n; ++i) {
    v = co_await add_one(v);
    co_await engine.sleep(Duration::ns(1));
  }
  co_return v;
}

TEST(FramePool, CoroutineFramesRecycle) {
  FramePool::trim();
  Engine engine;
  int result = 0;
  engine.spawn([](Engine& e, int* out) -> Task<void> {
    *out = co_await run_chain(e, 100);
  }(engine, &result));
  engine.run();
  EXPECT_EQ(result, 100);
  const auto stats = FramePool::stats();
  // 100 add_one frames all share one size class: after the first handful of
  // cold allocations, every frame is a free-list hit.
  EXPECT_GT(stats.hits, 90u);
  FramePool::trim();
}

// A drained Engine::run leaves no dead frames cached: every process of the
// run has finished, so the pool gives its free lists back. A second
// identical run (starting from an empty cache) computes the same results.
TEST(FramePool, EngineRunDrainReleasesCachedFrames) {
  FramePool::trim();
  const std::uint64_t bytes_before = FramePool::stats().bytes;
  const auto run_once = [] {
    Engine engine;
    std::vector<int> results(64);
    for (int p = 0; p < 64; ++p) {
      engine.spawn([](Engine& e, int n, int* out) -> Task<void> {
        *out = co_await run_chain(e, n);
      }(engine, p + 1, &results[static_cast<std::size_t>(p)]));
    }
    const std::uint64_t events = engine.run();
    EXPECT_EQ(FramePool::stats().cached, 0u);
    return std::make_tuple(events, engine.now().to_ns(), results);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(std::get<2>(first)[63], 64);
  const auto stats = FramePool::stats();
  EXPECT_EQ(stats.bytes, bytes_before);  // nothing live, nothing cached
  EXPECT_GE(stats.peak_bytes, 64u * FramePool::kGranularity);
  EXPECT_GE(counter("sim.engine.frame_pool_peak_bytes").value(), stats.peak_bytes);
}

// ------------------------------------------------------------ event slab --

TEST(EventPool, SteadyStateRecyclesEventSlots) {
  Engine engine;
  // A self-rescheduling timer: at most a couple of events pending at once,
  // so the slab should stay tiny while thousands of events run through it.
  int remaining = 5000;
  struct Ticker {
    Engine* engine;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) engine->after(Duration::ns(5), Ticker{engine, remaining});
    }
  };
  engine.after(Duration::ns(5), Ticker{&engine, &remaining});
  engine.run();
  const auto& stats = engine.queue_stats();
  EXPECT_EQ(stats.pool_hits + stats.pool_misses, 5000u);
  EXPECT_LE(stats.pool_misses, 4u);  // slab grew to the tiny peak, then reused
  EXPECT_LE(stats.peak_queue, 2u);
  EXPECT_EQ(engine.events_processed(), 5000u);
}

TEST(EventPool, PeakQueueTracksPendingEvents) {
  Engine engine;
  for (int i = 0; i < 1000; ++i) {
    engine.at(TimePoint::from_ns(i + 1), [] {});
  }
  engine.run();
  EXPECT_EQ(engine.queue_stats().peak_queue, 1000u);
  EXPECT_EQ(engine.queue_stats().pool_misses, 1000u);  // all distinct slots
}

}  // namespace
}  // namespace tio::sim
