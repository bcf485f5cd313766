#include "sim/engine.h"

#include <chrono>
#include <limits>
#include <stdexcept>

#include "common/stats.h"
#include "sim/frame_pool.h"

namespace tio::sim {
namespace {

// The driver process that owns a spawned Task: its frame comes from the
// same recycling pool as Task frames.
Process drive(Engine&, Task<void> process) { co_await std::move(process); }

// The engine currently dispatching an event on this thread (set around the
// callback in step()); backs Engine::is_current().
thread_local const Engine* t_current_engine = nullptr;

struct CurrentEngineScope {
  const Engine* prev;
  explicit CurrentEngineScope(const Engine* e) : prev(t_current_engine) {
    t_current_engine = e;
  }
  ~CurrentEngineScope() { t_current_engine = prev; }
};

}  // namespace

Engine::~Engine() = default;

bool Engine::is_current() const { return t_current_engine == this; }

void Engine::at(TimePoint t, MoveFn<void()> fn) {
  if (t < now_) throw std::logic_error("Engine::at: scheduling into the past");
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    ++stats_.pool_hits;
  } else {
    if (slab_size_ > kIdxMask) {
      throw std::length_error("Engine::at: event slab exhausted");
    }
    if ((slab_size_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<MoveFn<void()>[]>(kChunkSize));
    }
    idx = slab_size_++;
    ++stats_.pool_misses;
  }
  slot(idx) = std::move(fn);
  ++seq_;
  if (t == now_) {
    today_.push_back(idx);  // runs after the heap's now_-entries; see engine.h
  } else {
    heap_.push(HeapItem{t.to_ns(), (seq_ << kIdxBits) | idx});
  }
  const std::size_t pending = heap_.size() + (today_.size() - today_head_);
  if (pending > stats_.peak_queue) stats_.peak_queue = pending;
}

void Engine::after(Duration d, MoveFn<void()> fn) {
  const std::int64_t delta = d < Duration::zero() ? 0 : d.to_ns();
  std::int64_t t;
  if (__builtin_add_overflow(now_.to_ns(), delta, &t)) {
    t = std::numeric_limits<std::int64_t>::max();  // saturate, don't wrap
  }
  at(TimePoint::from_ns(t), std::move(fn));
}

void Engine::spawn(Task<void> process) { spawn(drive(*this, std::move(process))); }

void Engine::spawn(Process process) {
  ++processes_alive_;
  const auto h = process.h_;
  after(Duration::zero(), [h] { h.resume(); });
}

Process::promise_type::~promise_type() { engine->notify_process_finished(); }

void Process::promise_type::unhandled_exception() {
  engine->record_process_error(std::current_exception());
}

bool Engine::step() {
  std::uint32_t idx;
  const bool have_today = today_head_ < today_.size();
  if (have_today && (heap_.empty() || heap_.top().when_ns > now_.to_ns())) {
    // All heap entries at now_ predate (out-sequence) anything in the FIFO,
    // so the FIFO only runs once the heap has moved past the current time.
    idx = today_[today_head_++];
    if (today_head_ == today_.size()) {
      today_.clear();
      today_head_ = 0;
    }
  } else {
    if (heap_.empty()) return false;
    // Start pulling the winning callable's cache line while the sift-down
    // in pop_top is still running; the slot is a random access into the slab.
    __builtin_prefetch(&slot(static_cast<std::uint32_t>(heap_.top().key & kIdxMask)));
    HeapItem item;
    heap_.pop_top(item);
    idx = static_cast<std::uint32_t>(item.key & kIdxMask);
    now_ = TimePoint::from_ns(item.when_ns);
  }
  ++events_processed_;
  // Move the callable out and release the slot before running: the callback
  // may schedule new events, and the freed slot lets it reuse this one.
  MoveFn<void()> fn = std::move(slot(idx));
  free_.push_back(idx);
  if (fn) {
    CurrentEngineScope scope(this);
    fn();
  }
  return true;
}

std::int64_t Engine::next_event_ns() const {
  std::int64_t t = std::numeric_limits<std::int64_t>::max();
  if (!heap_.empty()) t = heap_.top().when_ns;
  // FIFO entries run at now_, and heap entries never sort before now_.
  if (today_head_ < today_.size()) t = now_.to_ns();
  return t;
}

void Engine::rethrow_pending_error() {
  if (process_error_) {
    auto err = std::exchange(process_error_, nullptr);
    std::rethrow_exception(err);
  }
}

std::uint64_t Engine::run() {
  // One span per run(): the engine-level timeline every rank-level span
  // nests inside when a trace is being collected. Per-event dispatch spans
  // are deliberately absent — they are zero-length in virtual time and
  // their volume (millions per run) would dwarf everything else; event
  // dispatch is observable through sim.engine.events and this run span.
  static const trace::SpanSite kRunSite("sim.engine", "sim.engine.run");
  trace::Span run_span(*this, kRunSite);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t start = events_processed_;
  while (step()) {
  }
  run_span.end();
  // Drained: every process of this run has finished, so the frame pool's
  // free lists hold only dead frames. Give them back (DESIGN.md 5d).
  FramePool::trim();
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  counter("sim.engine.run_wall_ns").add(static_cast<std::uint64_t>(wall_ns));
  publish_counters();
  rethrow_pending_error();
  return events_processed_ - start;
}

void Engine::publish_counters() {
  const auto flush = [](const char* name, std::uint64_t total, std::uint64_t& published) {
    if (total > published) {
      counter(name).add(total - published);
      published = total;
    }
  };
  flush("sim.engine.events", events_processed_, published_events_);
  flush("sim.engine.event_pool_hits", stats_.pool_hits, published_.pool_hits);
  flush("sim.engine.event_pool_misses", stats_.pool_misses, published_.pool_misses);
  // Peak pending events across every engine in the process (max, not sum).
  counter("sim.engine.queue_peak").raise_to(stats_.peak_queue);
  FramePool::publish_counters();
}

}  // namespace tio::sim
