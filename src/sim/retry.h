// The one transient-fault retry loop.
//
// retry() below re-issues an op that failed transiently, under a
// RetryPolicy's capped, deterministically jittered backoff (common/retry.h);
// write_fully() builds torn-write resumption on the same loop. In the
// program its one caller is pfs::RetryingFs (pfs/retrying_fs.h), the
// FsClient decorator that every retried backend op goes through: PLFS owns
// one over its backend, and the direct-access comparator shares another.
//
// A caller's data lives in its Retrier: the policy, the budget its retries
// draw on, its counter family and, optionally, a span for its backoffs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/dataview.h"
#include "common/retry.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/trace.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::sim {

// One caller's retry counters, `<family>.attempts` and so on.
struct RetryCounters {
  explicit RetryCounters(std::string_view family)
      : attempts(counter(std::string(family) + ".attempts")),
        backoff_ns(counter(std::string(family) + ".backoff_ns")),
        success_after_retry(counter(std::string(family) + ".success_after_retry")),
        exhausted(counter(std::string(family) + ".exhausted")),
        budget_exhausted(counter(std::string(family) + ".budget_exhausted")),
        short_write_resumed(counter(std::string(family) + ".short_write_resumed")) {}

  Counter& attempts;             // backoff sleeps taken
  Counter& backoff_ns;           // virtual time spent in them
  Counter& success_after_retry;  // logical ops that succeeded after a retry
  Counter& exhausted;            // ops that ran out of attempts
  Counter& budget_exhausted;     // ops refused a retry by an empty budget
  Counter& short_write_resumed;  // torn writes resumed after their prefix
};

// One caller's retry state. The counters and the backoff span site (when
// `backoff_span` is set; category `family`) register on first use — the
// counters on the first op, the span site on the first backoff — so a
// family shows up in a bench's report only once its caller runs.
class Retrier {
 public:
  Retrier(Engine& engine, RetryPolicy policy, std::uint64_t budget, std::string family,
          std::string backoff_span = {})
      : engine(&engine), policy(policy), budget(budget), family_(std::move(family)),
        backoff_span_(std::move(backoff_span)) {}
  // In-flight ops hold its address.
  Retrier(const Retrier&) = delete;
  Retrier& operator=(const Retrier&) = delete;

  RetryCounters& counters() {
    if (!counters_) counters_.emplace(family_);
    return *counters_;
  }
  // Null when backoff sleeps go untraced.
  const trace::SpanSite* backoff_site() {
    if (backoff_span_.empty()) return nullptr;
    if (!site_) site_.emplace(family_, backoff_span_);
    return &*site_;
  }

  Engine* engine;
  RetryPolicy policy;
  RetryBudget budget;

 private:
  std::string family_;
  std::string backoff_span_;
  std::optional<RetryCounters> counters_;
  std::optional<trace::SpanSite> site_;
};

namespace detail {
inline Status status_of(const Status& s) { return s; }
template <typename T>
Status status_of(const Result<T>& r) {
  return r.status();
}

template <typename T>
struct task_value;
template <typename T>
struct task_value<Task<T>> {
  using type = T;
};

// One backoff sleep, traced when the Retrier has a span site. A frame of
// its own, made only when an op is retried, so the span does not sit in
// the frame of every op's retry loop.
inline Task<void> backoff(Retrier& r, int rank, Duration wait) {
  trace::Span span;
  if (const trace::SpanSite* site = r.backoff_site(); site != nullptr) {
    span = trace::Span(*r.engine, *site, rank);
  }
  co_await r.engine->sleep(wait);
}
}  // namespace detail

// Runs make_op() until it succeeds, fails permanently, or runs out of
// attempts or budget, and returns the last result. A transient failure
// sleeps policy.backoff(attempt, op_key) before the next attempt; `rank`
// attributes the backoff span. An op factory with a `landed(result)`
// member may report a successful attempt as partial progress (a torn
// write): the loop then re-issues it with the attempt count reset.
// The loop's frame is live for every op, so it keeps no copy of a status.
template <typename MakeOp>
auto retry(Retrier& r, int rank, std::uint64_t op_key, MakeOp make_op) -> decltype(make_op()) {
  using R = typename detail::task_value<decltype(make_op())>::type;
  RetryCounters& rc = r.counters();
  bool retried = false;
  for (int attempt = 0;;) {
    R result = co_await make_op();
    if (detail::status_of(result).ok()) {
      if constexpr (requires { make_op.landed(result); }) {
        if (!make_op.landed(result)) {
          rc.short_write_resumed.add(1);
          attempt = 0;
          continue;
        }
      }
      if (retried) rc.success_after_retry.add(1);
      co_return std::move(result);
    }
    if (!detail::status_of(result).is_transient()) co_return std::move(result);
    if (attempt + 1 >= r.policy.max_attempts) {
      rc.exhausted.add(1);
      co_return std::move(result);
    }
    if (!r.budget.try_consume()) {
      rc.budget_exhausted.add(1);
      co_return std::move(result);
    }
    const Duration wait = r.policy.backoff(attempt, op_key);
    rc.attempts.add(1);
    rc.backoff_ns.add(static_cast<std::uint64_t>(wait.to_ns()));
    co_await detail::backoff(r, rank, wait);
    retried = true;
    ++attempt;
  }
}

// Op factory for write_fully: each attempt writes the bytes that have not
// landed yet, through write_at(done, rest).
template <typename WriteAt>
struct ResumingWrite {
  WriteAt write_at;
  DataView data;
  std::uint64_t done = 0;

  auto operator()() { return write_at(done, data.slice(done, data.size() - done)); }
  // Counts an attempt's bytes; once all have landed, `wrote` becomes the
  // total, which the loop returns.
  bool landed(Result<std::uint64_t>& wrote) {
    done += *wrote;
    if (done < data.size()) return false;
    wrote = done;
    return true;
  }
};

// Writes all of `data` through the retry loop and returns the total:
// write_at(done, rest) writes `rest` at byte `done` of the logical write and
// returns the bytes that landed. A torn write is progress, not failure, so
// completion is guaranteed for any finite tear sequence. An empty `data`
// still issues one write; callers skip empty writes.
template <typename WriteAt>
Task<Result<std::uint64_t>> write_fully(Retrier& r, int rank, std::uint64_t op_key, DataView data,
                                        WriteAt write_at) {
  return retry(r, rank, op_key, ResumingWrite<WriteAt>{std::move(write_at), std::move(data)});
}

}  // namespace tio::sim
