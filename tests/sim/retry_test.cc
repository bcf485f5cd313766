// sim::retry, the one transient-fault retry loop, and sim::write_fully, the
// torn-write resume helper built on it. Every case is checked in closed
// form: virtual time equals the sum of the policy's backoffs, and the
// budget and counters move by exact amounts.
#include "sim/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "testutil.h"

namespace tio::sim {
namespace {

constexpr std::uint64_t kKey = 0x5eed;

RetryCounters& test_counters() {
  static RetryCounters c("test.retry");
  return c;
}

// Counter deltas over one test body.
struct Snapshot {
  std::uint64_t attempts = test_counters().attempts.value();
  std::uint64_t backoff_ns = test_counters().backoff_ns.value();
  std::uint64_t success_after_retry = test_counters().success_after_retry.value();
  std::uint64_t exhausted = test_counters().exhausted.value();
  std::uint64_t budget_exhausted = test_counters().budget_exhausted.value();
  std::uint64_t short_write_resumed = test_counters().short_write_resumed.value();
};

struct World {
  Engine engine;
  Retrier retrier{engine, RetryPolicy{}, 100, "test.retry"};
  Snapshot before;

  // Sum of the first n backoffs of the op keyed kKey.
  std::int64_t backoff_sum(int n) const {
    std::int64_t ns = 0;
    for (int i = 0; i < n; ++i) ns += retrier.policy.backoff(i, kKey).to_ns();
    return ns;
  }
};

// Fails with `code` on its first `failures` calls, then succeeds.
Task<Status> flaky(int& calls, int failures, Errc code) {
  ++calls;
  if (calls <= failures) co_return error(code, "injected");
  co_return Status::Ok();
}

TEST(RetryLoop, TransientFailuresSleepTheBackoffScheduleAndTakeTokens) {
  for (const int k : {1, 3, 7}) {
    World w;
    int calls = 0;
    const Status st = test::run_task(
        w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, k, Errc::io_error); }));
    EXPECT_TRUE(st.ok()) << k;
    EXPECT_EQ(calls, k + 1);
    EXPECT_EQ(w.engine.now().to_ns(), w.backoff_sum(k));
    EXPECT_EQ(w.retrier.budget.remaining(), 100u - static_cast<std::uint64_t>(k));
    EXPECT_EQ(test_counters().attempts.value() - w.before.attempts,
              static_cast<std::uint64_t>(k));
    EXPECT_EQ(test_counters().backoff_ns.value() - w.before.backoff_ns,
              static_cast<std::uint64_t>(w.backoff_sum(k)));
    EXPECT_EQ(test_counters().success_after_retry.value() - w.before.success_after_retry, 1u);
  }
}

TEST(RetryLoop, FirstTrySuccessCountsNothing) {
  World w;
  int calls = 0;
  const Status st = test::run_task(
      w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, 0, Errc::io_error); }));
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(w.engine.now().to_ns(), 0);
  EXPECT_EQ(test_counters().success_after_retry.value(), w.before.success_after_retry);
  EXPECT_EQ(test_counters().attempts.value(), w.before.attempts);
}

TEST(RetryLoop, PermanentErrorReturnsAtOnce) {
  World w;
  int calls = 0;
  const Status st = test::run_task(
      w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, 5, Errc::not_found); }));
  EXPECT_EQ(st.code(), Errc::not_found);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(w.engine.now().to_ns(), 0);
  EXPECT_EQ(w.retrier.budget.remaining(), 100u);
  EXPECT_EQ(test_counters().attempts.value(), w.before.attempts);
  EXPECT_EQ(test_counters().exhausted.value(), w.before.exhausted);
}

TEST(RetryLoop, StopsAtMaxAttempts) {
  World w;
  w.retrier.policy.max_attempts = 4;
  int calls = 0;
  const Status st = test::run_task(
      w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, 1000, Errc::busy); }));
  EXPECT_EQ(st.code(), Errc::busy);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(w.engine.now().to_ns(), w.backoff_sum(3));
  EXPECT_EQ(w.retrier.budget.remaining(), 97u);
  EXPECT_EQ(test_counters().exhausted.value() - w.before.exhausted, 1u);
  EXPECT_EQ(test_counters().attempts.value() - w.before.attempts, 3u);
  EXPECT_EQ(test_counters().success_after_retry.value(), w.before.success_after_retry);
}

TEST(RetryLoop, EmptyBudgetReturnsTheFailure) {
  World w;
  w.retrier.budget.refill(0);
  int calls = 0;
  const Status st = test::run_task(
      w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, 1, Errc::stale); }));
  EXPECT_EQ(st.code(), Errc::stale);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(w.engine.now().to_ns(), 0);
  EXPECT_EQ(test_counters().budget_exhausted.value() - w.before.budget_exhausted, 1u);
  EXPECT_EQ(test_counters().attempts.value(), w.before.attempts);
  EXPECT_EQ(test_counters().exhausted.value(), w.before.exhausted);
}

TEST(RetryLoop, BudgetRunsDryMidOp) {
  World w;
  w.retrier.budget.refill(2);
  int calls = 0;
  const Status st = test::run_task(
      w.engine, retry(w.retrier, 0, kKey, [&] { return flaky(calls, 5, Errc::io_error); }));
  EXPECT_EQ(st.code(), Errc::io_error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(w.engine.now().to_ns(), w.backoff_sum(2));
  EXPECT_EQ(w.retrier.budget.remaining(), 0u);
  EXPECT_EQ(test_counters().budget_exhausted.value() - w.before.budget_exhausted, 1u);
}

// One scripted write attempt: a transient failure, or the number of bytes
// that land (fewer than asked is a torn write).
struct Step {
  bool fail;
  std::uint64_t bytes;
};
struct Script {
  std::vector<Step> steps;
  std::size_t next = 0;
  std::vector<std::uint64_t> offsets;  // `done` of each attempt
  std::vector<std::uint64_t> sizes;    // bytes asked of each attempt
};

Task<Result<std::uint64_t>> scripted_write(Script& s, std::uint64_t done, DataView rest) {
  s.offsets.push_back(done);
  s.sizes.push_back(rest.size());
  const Step step = s.steps.at(s.next++);
  if (step.fail) co_return error(Errc::io_error, "injected");
  co_return std::min(step.bytes, rest.size());
}

TEST(RetryLoop, TornWriteResetsAttemptsAndCountsOneSuccess) {
  World w;
  Script s;
  s.steps = {{true, 0}, {false, 3}, {true, 0}, {true, 0}, {false, 4}, {false, 10}};
  const Result<std::uint64_t> wrote = test::run_task(
      w.engine, write_fully(w.retrier, 0, kKey, DataView::zeros(10),
                            [&s](std::uint64_t done, DataView rest) {
                              return scripted_write(s, done, std::move(rest));
                            }));
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, 10u);  // the total, not the last attempt's bytes
  EXPECT_EQ(s.next, s.steps.size());
  EXPECT_EQ(s.offsets, (std::vector<std::uint64_t>{0, 0, 3, 3, 3, 7}));
  EXPECT_EQ(s.sizes, (std::vector<std::uint64_t>{10, 10, 7, 7, 7, 3}));
  // The tear after the first failure resets the schedule: the next two
  // failures wait backoff(0) and backoff(1) again.
  EXPECT_EQ(w.engine.now().to_ns(), w.backoff_sum(1) + w.backoff_sum(2));
  EXPECT_EQ(w.retrier.budget.remaining(), 97u);
  EXPECT_EQ(test_counters().attempts.value() - w.before.attempts, 3u);
  EXPECT_EQ(test_counters().short_write_resumed.value() - w.before.short_write_resumed, 2u);
  EXPECT_EQ(test_counters().success_after_retry.value() - w.before.success_after_retry, 1u);
}

TEST(RetryLoop, TornWriteWithoutFailuresIsNotARetry) {
  World w;
  Script s;
  s.steps = {{false, 6}, {false, 6}};
  const Result<std::uint64_t> wrote = test::run_task(
      w.engine, write_fully(w.retrier, 0, kKey, DataView::zeros(12),
                            [&s](std::uint64_t done, DataView rest) {
                              return scripted_write(s, done, std::move(rest));
                            }));
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, 12u);
  EXPECT_EQ(w.engine.now().to_ns(), 0);
  EXPECT_EQ(test_counters().short_write_resumed.value() - w.before.short_write_resumed, 1u);
  EXPECT_EQ(test_counters().success_after_retry.value(), w.before.success_after_retry);
}

TEST(RetryLoop, BackoffSleepsAreTracedOnlyWithASpanSite) {
  World w;
  Retrier traced(w.engine, RetryPolicy{}, 100, "test.retry", "test.retry.backoff");
  EXPECT_TRUE(histogram_snapshot("test.retry").empty());  // registers on the first backoff
  int calls = 0;
  EXPECT_TRUE(test::run_task(w.engine, retry(traced, 0, kKey, [&] {
                return flaky(calls, 2, Errc::busy);
              })).ok());
  const Histogram& hist = histogram("test.retry.backoff");
  EXPECT_EQ(hist.count(), 2u);
  calls = 0;
  EXPECT_TRUE(test::run_task(w.engine, retry(w.retrier, 0, kKey, [&] {
                return flaky(calls, 2, Errc::busy);
              })).ok());
  EXPECT_EQ(hist.count(), 2u);
}

}  // namespace
}  // namespace tio::sim
