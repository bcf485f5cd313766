// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a (time, sequence)-ordered event
// queue; ties are broken by insertion order, so runs are bit-reproducible.
// Simulated processes are Task<void> coroutines spawned on the engine; they
// advance the clock only by awaiting timers, resources, and channels.
//
// Hot-path layout: event callbacks live in a pooled slab (freed slots are
// reused, so a steady-state simulation stops allocating), and the ready
// queue is a 4-ary min-heap of 16-byte (time, seq|slab-index) records —
// comparisons never leave the heap array, sifts move trivially copyable
// records instead of type-erased closures, and each 4-ary child group is
// exactly one cache line. Events scheduled at the current time (wakeups,
// spawns) skip the heap entirely via a FIFO. Closure state is stored
// inline in MoveFn's small buffer, so scheduling a timer allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/dheap.h"
#include "common/function.h"
#include "common/rng.h"
#include "common/trace.h"
#include "common/units.h"
#include "sim/task.h"

namespace tio::sim {

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 0x5eed)
      : trace_pid_(trace::Tracer::instance().next_pid()), rng_(seed) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  TimePoint now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now).
  void at(TimePoint t, MoveFn<void()> fn);
  // Schedules `fn` after `d` (negative delays clamp to now; delays that
  // would overflow the 64-bit nanosecond clock saturate to the far future).
  void after(Duration d, MoveFn<void()> fn);

  // Awaitable timer: co_await engine.sleep(d).
  struct SleepAwaiter {
    Engine* engine;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->after(d, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep(Duration d) { return SleepAwaiter{this, d}; }

  // Reschedules the caller at the current time, behind already-queued events
  // (a fairness yield).
  SleepAwaiter yield() { return SleepAwaiter{this, Duration::zero()}; }

  // Starts a detached process. The coroutine frame is owned by the engine
  // and released when the process finishes. Start happens via the event
  // queue at the current time.
  void spawn(Task<void> process);

  // Runs until the event queue is empty. Throws if a detached process threw.
  // Returns the number of events processed. Once drained it trims this
  // thread's coroutine frame pool (FramePool::trim) and publishes
  // sim.engine.* counters (events, wall time, pool and queue statistics).
  std::uint64_t run();
  // Processes a single event; returns false when the queue is empty.
  bool step();

  // Virtual time of the next pending event; INT64_MAX when idle.
  std::int64_t next_event_ns() const;
  // Flushes this engine's deltas into the process-global sim.engine.*
  // counters (run() does this automatically).
  void publish_counters();
  // Rethrows (and clears) the first error a detached process recorded.
  void rethrow_pending_error();
  // True while this engine is dispatching an event on the calling thread.
  // Sync primitives assert this in debug builds: a coroutine bound to an
  // engine must only await on the shard thread currently running it.
  bool is_current() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t processes_alive() const { return processes_alive_; }

  struct QueueStats {
    std::uint64_t pool_hits = 0;    // event nodes reused from the free list
    std::uint64_t pool_misses = 0;  // slab growth (allocation fallback)
    std::size_t peak_queue = 0;     // most events pending at once
  };
  const QueueStats& queue_stats() const { return stats_; }

  Rng& rng() { return rng_; }
  Rng fork_rng(std::uint64_t stream) const { return rng_.fork(stream); }

  // Trace "process" id of this engine: each Engine is its own process in
  // exported Chrome traces, so successive rigs don't overlap timelines.
  std::uint32_t trace_pid() const { return trace_pid_; }

  // Internal: called by the detached-process driver.
  void notify_process_finished() { --processes_alive_; }
  void record_process_error(std::exception_ptr e) {
    if (!process_error_) process_error_ = std::move(e);
  }

 private:
  // Heap records carry the full ordering key; the callable stays in the
  // slab so sift operations never move or inspect it. The sequence number
  // and slot index pack into one word (seq in the high bits, so comparing
  // `key` IS comparing seq — indices only differ when seqs do), keeping
  // records at 16 bytes: four per cache line, one line per 4-ary child
  // group.
  static constexpr std::uint32_t kIdxBits = 24;  // up to ~16.7M pending events
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;
  struct HeapItem {
    std::int64_t when_ns;
    std::uint64_t key;  // (seq << kIdxBits) | slot index
  };
  struct ItemLess {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
      return a.key < b.key;
    }
  };

  // Chunked slab of pending callables: growth appends a fixed-size chunk,
  // so existing slots never move (no per-element relocation on growth) and
  // freed slots are recycled through free_.
  static constexpr std::uint32_t kChunkShift = 12;  // 4096 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  MoveFn<void()>& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<MoveFn<void()>[]>> chunks_;
  std::uint32_t slab_size_ = 0;
  std::vector<std::uint32_t> free_;
  DaryHeap<HeapItem, ItemLess> heap_;
  // Events scheduled at exactly now_ (wakeups, spawns, yields — the most
  // common schedule in a sync-heavy simulation) bypass the heap: a FIFO
  // preserves their seq order, and every heap entry at the same virtual
  // time was inserted earlier (while now_ was smaller), so draining the
  // heap's now_-entries before the FIFO reproduces (time, seq) order
  // exactly at O(1) per event instead of O(log n).
  std::vector<std::uint32_t> today_;
  std::size_t today_head_ = 0;
  TimePoint now_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t processes_alive_ = 0;
  std::exception_ptr process_error_;
  QueueStats stats_;
  QueueStats published_;             // stats already flushed to the registry
  std::uint64_t published_events_ = 0;
  std::uint32_t trace_pid_ = 0;
  Rng rng_;
};

}  // namespace tio::sim
