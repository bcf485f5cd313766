// RetryingFs, the FsClient decorator every retried backend op goes through.
// Each op kind runs over a FaultyFs transient plan on the zero-cost MemFs,
// so an op's virtual time is exactly the backoffs its retries slept: k
// retries of an op keyed `key` take sum_{i<k} policy.backoff(i, key), which
// pins the key rule in retrying_fs.h.
#include "pfs/retrying_fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "localfs/mem_fs.h"
#include "pfs/faulty_fs.h"
#include "testutil.h"

namespace tio::pfs {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00d;
constexpr IoCtx kCtx{0, 0};

struct World {
  explicit World(std::string_view plan, std::string family = "test.retrying_fs",
                 std::string backoff_span = {}, std::uint64_t budget = 100000)
      : faulty(mem, FaultPlan::parse(plan).value()),
        fs(faulty, kSeed, RetryPolicy{}, budget, family, std::move(backoff_span)),
        counters(family) {}

  sim::Engine engine;
  localfs::MemFs mem{engine};
  FaultyFs faulty;
  RetryingFs fs;
  sim::RetryCounters counters;  // the same registered counters fs reports to

  // Creates `path` directly on the MemFs (no faults, no retries) and
  // returns an fd open for reading and writing.
  FileId make_file(const std::string& path, std::uint64_t bytes = 0) {
    OpenFlags flags = OpenFlags::rdwr();
    flags.create = true;
    const FileId fd = test::run_task(engine, mem.open(kCtx, path, flags)).value();
    if (bytes > 0) {
      EXPECT_TRUE(test::run_task(engine, mem.write(kCtx, fd, 0, DataView::pattern(1, 0, bytes)))
                      .ok());
    }
    return fd;
  }
  std::int64_t backoff_sum(int k, std::uint64_t key) const {
    const RetryPolicy policy;
    std::int64_t ns = 0;
    for (int i = 0; i < k; ++i) ns += policy.backoff(i, key).to_ns();
    return ns;
  }
};

// Runs `op` to completion and checks that its retries slept exactly the
// backoff schedule of `key`; returns the number of retries.
template <typename T>
int expect_schedule(World& w, std::uint64_t key, sim::Task<T> op) {
  const std::uint64_t attempts = w.counters.attempts.value();
  const TimePoint t0 = w.engine.now();
  (void)test::run_task(w.engine, std::move(op));
  const int k = static_cast<int>(w.counters.attempts.value() - attempts);
  EXPECT_EQ((w.engine.now() - t0).to_ns(), w.backoff_sum(k, key)) << k << " retries";
  return k;
}

// Tracks the most retries any one op of a case needed: every case must
// see an op retried at least twice, so its schedule is really checked.
struct MostRetries {
  int most = 0;
  void operator+=(int k) { most = std::max(most, k); }
};

constexpr int kOps = 40;
constexpr std::string_view kFlaky = "io=0.4";

TEST(RetryingFs, OpenBacksOffOnThePathKey) {
  World w(kFlaky);
  MostRetries r;
  for (int i = 0; i < kOps; ++i) {
    const std::string path = "/f" + std::to_string(i);
    r += expect_schedule(w, path_op_key(kSeed, path),
                         w.fs.open(kCtx, path, OpenFlags::wr_create()));
  }
  EXPECT_GE(r.most, 2);
}

TEST(RetryingFs, MetadataOpsXorThePathKey) {
  World w(kFlaky);
  MostRetries r;
  for (int i = 0; i < kOps; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    const std::string file = "/u" + std::to_string(i);
    w.make_file(file);
    const std::uint64_t dir_key = path_op_key(kSeed, dir);
    r += expect_schedule(w, dir_key ^ 1, w.fs.mkdir(kCtx, dir));
    r += expect_schedule(w, dir_key ^ 4, w.fs.stat(kCtx, dir));
    r += expect_schedule(w, dir_key ^ 5, w.fs.readdir(kCtx, dir));
    r += expect_schedule(w, path_op_key(kSeed, file) ^ 3, w.fs.unlink(kCtx, file));
  }
  EXPECT_GE(r.most, 2);
}

TEST(RetryingFs, CloseBacksOffOnTheFdKey) {
  World w(kFlaky);
  MostRetries r;
  for (int i = 0; i < kOps; ++i) {
    const FileId fd = w.make_file("/c" + std::to_string(i));
    r += expect_schedule(w, splitmix64(fd), w.fs.close(kCtx, fd));
  }
  EXPECT_GE(r.most, 2);
}

TEST(RetryingFs, ReadBacksOffOnTheFdAndOffsetKey) {
  World w(kFlaky);
  const FileId fd = w.make_file("/r", 64 * kOps);
  MostRetries r;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t offset = 64 * static_cast<std::uint64_t>(i);
    r += expect_schedule(w, splitmix64(fd ^ offset), w.fs.read(kCtx, fd, offset, 64));
  }
  EXPECT_GE(r.most, 2);
}

TEST(RetryingFs, WriteBacksOffOnTheFdKeyAtAnyOffset) {
  World w(kFlaky);
  const FileId fd = w.make_file("/w");
  MostRetries r;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t offset = 64 * static_cast<std::uint64_t>(i);
    r += expect_schedule(w, splitmix64(fd),
                         w.fs.write(kCtx, fd, offset, DataView::pattern(2, offset, 64)));
  }
  EXPECT_GE(r.most, 2);
  const FragmentList back =
      test::run_task(w.engine, w.mem.read(kCtx, fd, 0, 64 * kOps)).value();
  EXPECT_TRUE(back.content_equals(DataView::pattern(2, 0, 64 * kOps)));
}

// Every op kind draws on the one budget; once it is dry, a transient
// failure of any kind surfaces at once.
TEST(RetryingFs, OneBudgetAcrossOpKinds) {
  constexpr std::uint64_t kBudget = 12;
  World w(kFlaky, "test.retrying_fs", {}, kBudget);
  const FileId fd = w.make_file("/b", 4096);
  const std::uint64_t attempts = w.counters.attempts.value();
  const std::uint64_t refused = w.counters.budget_exhausted.value();
  for (int i = 0; w.counters.budget_exhausted.value() == refused; ++i) {
    ASSERT_LT(i, 1000) << "the budget never ran dry";
    const std::string path = "/b" + std::to_string(i);
    (void)test::run_task(w.engine, w.fs.mkdir(kCtx, path));
    (void)test::run_task(w.engine, w.fs.stat(kCtx, path));
    (void)test::run_task(w.engine, w.fs.read(kCtx, fd, 64 * static_cast<std::uint64_t>(i), 64));
    (void)test::run_task(w.engine, w.fs.write(kCtx, fd, 0, DataView::zeros(64)));
  }
  EXPECT_EQ(w.counters.attempts.value() - attempts, kBudget);
  // Dry: no op of any kind sleeps again.
  const TimePoint dry = w.engine.now();
  for (int i = 0; i < kOps; ++i) {
    (void)test::run_task(w.engine, w.fs.open(kCtx, "/dry" + std::to_string(i),
                                             OpenFlags::wr_create()));
    (void)test::run_task(w.engine, w.fs.readdir(kCtx, "/"));
  }
  EXPECT_EQ(w.engine.now(), dry);
  EXPECT_EQ(w.counters.attempts.value() - attempts, kBudget);
  EXPECT_GT(w.counters.budget_exhausted.value() - refused, 1u);
}

// A torn write resumes after the prefix that landed, writes every byte
// once, and counts as one logical op however often it tore or failed.
TEST(RetryingFs, TornWriteResumesAndCountsOnce) {
  World w("write.io=0.3,torn=0.5");
  const FileId fd = w.make_file("/t");
  constexpr std::uint64_t kLen = 4096;
  int both = 0;  // ops that both failed and tore
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t offset = kLen * static_cast<std::uint64_t>(i);
    const std::uint64_t attempts = w.counters.attempts.value();
    const std::uint64_t resumed = w.counters.short_write_resumed.value();
    const std::uint64_t succeeded = w.counters.success_after_retry.value();
    const Result<std::uint64_t> wrote = test::run_task(
        w.engine, w.fs.write(kCtx, fd, offset, DataView::pattern(3, offset, kLen)));
    ASSERT_TRUE(wrote.ok()) << wrote.status().to_string();
    EXPECT_EQ(*wrote, kLen);
    const bool retried = w.counters.attempts.value() > attempts;
    EXPECT_EQ(w.counters.success_after_retry.value() - succeeded, retried ? 1u : 0u);
    if (retried && w.counters.short_write_resumed.value() > resumed) ++both;
  }
  EXPECT_GT(both, 0);
  const FragmentList back =
      test::run_task(w.engine, w.mem.read(kCtx, fd, 0, kLen * kOps)).value();
  EXPECT_TRUE(back.content_equals(DataView::pattern(3, 0, kLen * kOps)));
}

// Backoff sleeps are spans only when the instance names a span site, and
// the site registers with the first backoff, not before.
TEST(RetryingFs, BackoffSpanOnlyWithASite) {
  World traced(kFlaky, "test.retrying_fs_traced", "test.retrying_fs_traced.backoff");
  World untraced(kFlaky, "test.retrying_fs_untraced");
  EXPECT_TRUE(histogram_snapshot("test.retrying_fs_traced").empty());
  for (World* w : {&traced, &untraced}) {
    for (int i = 0; i < kOps; ++i) {
      (void)test::run_task(w->engine, w->fs.mkdir(kCtx, "/s" + std::to_string(i)));
    }
    ASSERT_GT(w->counters.attempts.value(), 0u);
  }
  const auto hists = histogram_snapshot("test.retrying_fs_traced");
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].first, "test.retrying_fs_traced.backoff");
  EXPECT_EQ(hists[0].second->count(), traced.counters.attempts.value());
  EXPECT_TRUE(histogram_snapshot("test.retrying_fs_untraced").empty());
}

}  // namespace
}  // namespace tio::pfs
