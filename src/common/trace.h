// Virtual-time span tracing.
//
// A Span is an RAII segment of *simulated* time: it captures the engine
// clock at construction and destruction (or an explicit end()), always
// feeds the duration into a per-name latency Histogram (common/stats.h),
// and — when the process-global Tracer is enabled — appends a record to a
// per-rank buffer that exports as Chrome trace-event JSON, loadable by
// chrome://tracing and Perfetto.
//
// Design notes:
//   * The span clock is the simulation clock, so traces are bit-identical
//     across reruns (the determinism suite relies on this) and tracing
//     never perturbs simulated behaviour — a Span performs no awaits.
//   * Call sites pre-resolve name/category/histogram through a SpanSite
//     (usually a function-local static), so opening a span on the hot path
//     costs two clock reads and a vector push, never a registry lock.
//   * Nesting is tracked per rank, not per host thread: the simulator
//     interleaves thousands of rank coroutines on one host thread, and a
//     rank's spans are properly nested in its own logical control flow.
//     In the exported trace each rank is a Chrome "thread" (tid = rank+1;
//     tid 0 holds engine-level spans) and each Engine a "process", so
//     successive rigs in one bench don't overlap timelines.
//   * Sharded runs (sim/sharded.h): span buffers are a fixed per-shard
//     array indexed by stat_shard() (common/stats.h), like counter and
//     histogram cells — begin/end touch only the calling shard's buffers,
//     no lock. An engine runs on exactly one host thread, so a (pid, tid)
//     track lives wholly inside one shard. Export merges shards with one
//     deterministic sort on (pid, tid, start, seq); combined with
//     PidScope's job-keyed pid assignment, --trace= output is
//     byte-identical across reruns and across shard counts.
//   * Tracer buffers grow unboundedly while enabled; benches enable it
//     only when --trace=<file> is given.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/units.h"

namespace tio::sim {
class Engine;  // provides TimePoint now() and std::uint32_t trace_pid()
}

namespace tio::trace {

// A completed (or still-open) span in one rank's buffer.
struct SpanRecord {
  std::uint32_t name_id = 0;
  std::uint32_t cat_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while the span is open
  std::uint32_t pid = 0;     // engine id (one per Engine instance)
  // Index+1 of the enclosing span in the same rank buffer; 0 = top level.
  std::uint32_t parent = 0;
  std::uint32_t depth = 0;  // 0 = top level
  // Shard-local begin order; the export sort's final tie-break, so spans
  // opened at the same virtual time keep their program order.
  std::uint64_t seq = 0;
};

inline constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};

// Process-global trace collector. Disabled by default: a disabled tracer
// records nothing (spans still feed their histograms).
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  // Drops all buffered spans, per-rank state and pid numbering (interned
  // names are kept). Not concurrency-safe: call only while no shard
  // threads are running.
  void clear();

  // Interns a string, returning a stable id (idempotent per content).
  // Thread-safe; the returned reference from interned() never moves.
  std::uint32_t intern(std::string_view s);
  const std::string& interned(std::uint32_t id) const;

  // Opens a span on `rank`'s buffer (rank -1 = the engine-level track) and
  // returns its record index, or kNoRecord when disabled. The record lives
  // in the calling thread's shard; end_span must run on the same shard
  // (spans never migrate threads — an engine is pinned to its shard).
  std::uint32_t begin_span(int rank, std::uint32_t name_id, std::uint32_t cat_id,
                           std::uint32_t pid, std::int64_t start_ns);
  // Closes the span opened as `record` on `rank`'s buffer.
  void end_span(int rank, std::uint32_t record, std::int64_t end_ns);

  // Total spans across all shards (readers must be quiescent with writers).
  std::size_t span_count() const;
  // All spans of one rank recorded on this thread's shard, in begin order
  // (tests and tooling).
  const std::vector<SpanRecord>& rank_spans(int rank) const;

  // Chrome trace-event JSON ({"traceEvents": [...]}); locale-independent.
  // Open spans (begun but never ended) are omitted. Events are ordered by
  // (pid, tid, start, seq), so the document does not depend on the shard
  // count.
  std::string to_chrome_json() const;
  // Writes to_chrome_json() to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  // Engine-instance ids ("processes" in the exported trace). Inside a
  // PidScope, ids come from the scope's reserved block (deterministic
  // regardless of thread interleaving); outside, from a global counter.
  std::uint32_t next_pid();
  // Reserves `count` consecutive pids and returns the first — the blocks
  // PidScope hands out. A shard pool reserves jobs*stride upfront so job j
  // always gets the same pids at any shard count.
  std::uint32_t reserve_pids(std::uint32_t count);

 private:
  struct RankBuffer {
    std::vector<SpanRecord> spans;
    std::vector<std::uint32_t> open;  // indices of currently open spans
  };
  // One shard's buffers. Only the thread holding that shard id writes
  // them; merges happen while writers are quiescent. Padded so shards
  // opening spans concurrently never false-share.
  struct alignas(64) Shard {
    std::vector<RankBuffer> buffers;  // [0] = engine track, [r+1] = rank r
    std::uint64_t next_seq = 0;
  };
  static RankBuffer& buffer_for(Shard& shard, int rank);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> pid_counter_{0};
  std::array<Shard, kMaxShards> shards_;
  mutable std::mutex mu_;          // guards names_
  std::deque<std::string> names_;  // deque: interned() references stay valid
};

// RAII deterministic pid block: while active, this thread's next_pid()
// draws consecutive ids from [base, base + count). A shard-pool job wraps
// itself in one so engine pids depend on the job index, not on which
// thread ran the job or when. Throws std::length_error when a job creates
// more engines than its block holds. Scopes nest (LIFO) per thread.
class PidScope {
 public:
  PidScope(std::uint32_t base, std::uint32_t count);
  ~PidScope();
  PidScope(const PidScope&) = delete;
  PidScope& operator=(const PidScope&) = delete;

 private:
  std::uint32_t prev_next_;
  std::uint32_t prev_end_;
  bool prev_active_;
};

// Pre-resolved identity of a span call site: interned name/category ids
// plus the histogram fed by every traversal. Construct once (function-local
// static) — construction takes the registry lock, traversals don't.
struct SpanSite {
  SpanSite(std::string_view category, std::string_view name, bool with_histogram = true)
      : name_id(Tracer::instance().intern(name)),
        cat_id(Tracer::instance().intern(category)),
        hist(with_histogram ? &histogram(name) : nullptr) {}

  std::uint32_t name_id;
  std::uint32_t cat_id;
  Histogram* hist;  // null for trace-only sites (e.g. per-event volume)
};

// RAII virtual-time span. Template over the clock type so common/ needs no
// link-time dependency on sim/ — in practice Clock is sim::Engine and the
// `Span` alias below is what call sites use.
template <typename Clock>
class BasicSpan {
 public:
  BasicSpan() = default;  // inert
  BasicSpan(Clock& clock, const SpanSite& site, int rank = -1)
      : clock_(&clock), site_(&site), rank_(rank), start_ns_(clock.now().to_ns()) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      record_ = t.begin_span(rank_, site.name_id, site.cat_id, clock.trace_pid(), start_ns_);
    }
  }
  BasicSpan(const BasicSpan&) = delete;
  BasicSpan& operator=(const BasicSpan&) = delete;
  BasicSpan(BasicSpan&& o) noexcept { *this = std::move(o); }
  BasicSpan& operator=(BasicSpan&& o) noexcept {
    end();
    clock_ = o.clock_;
    site_ = o.site_;
    rank_ = o.rank_;
    start_ns_ = o.start_ns_;
    record_ = o.record_;
    o.clock_ = nullptr;
    return *this;
  }
  ~BasicSpan() { end(); }

  // Closes the span now (idempotent; the destructor is then a no-op).
  void end() {
    if (clock_ == nullptr) return;
    const std::int64_t end_ns = clock_->now().to_ns();
    if (site_->hist != nullptr) site_->hist->record(end_ns - start_ns_);
    if (record_ != kNoRecord) Tracer::instance().end_span(rank_, record_, end_ns);
    clock_ = nullptr;
  }

  bool active() const { return clock_ != nullptr; }

 private:
  Clock* clock_ = nullptr;
  const SpanSite* site_ = nullptr;
  int rank_ = -1;
  std::int64_t start_ns_ = 0;
  std::uint32_t record_ = kNoRecord;
};

using Span = BasicSpan<sim::Engine>;

// Records a span retroactively, from a captured start time to now — for
// segments whose significance is only known at the end (e.g. a raft
// candidacy, recorded once it is won).
template <typename Clock>
void record_span(Clock& clock, const SpanSite& site, int rank, std::int64_t start_ns) {
  const std::int64_t end_ns = clock.now().to_ns();
  if (site.hist != nullptr) site.hist->record(end_ns - start_ns);
  Tracer& t = Tracer::instance();
  if (t.enabled()) {
    t.end_span(rank, t.begin_span(rank, site.name_id, site.cat_id, clock.trace_pid(), start_ns),
               end_ns);
  }
}

}  // namespace tio::trace
