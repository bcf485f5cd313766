// Tests for the sharded execution layer: ShardPool (independent
// simulations spread across OS threads), shard-local stats accumulation,
// and the multi-shard trace export.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "sim/engine.h"
#include "sim/sharded.h"

namespace tio::sim {
namespace {

TEST(ShardPool, RejectsInvalidShardCounts) {
  EXPECT_THROW(ShardPool{0}, std::invalid_argument);
  EXPECT_THROW(ShardPool{kMaxShards + 1}, std::invalid_argument);
  EXPECT_NO_THROW(ShardPool{1});
  EXPECT_NO_THROW(ShardPool{kMaxShards});
}

TEST(ShardPool, SerialModeRunsJobsInSubmissionOrder) {
  ShardPool pool(1);
  std::vector<int> order;
  for (int j = 0; j < 5; ++j) {
    pool.submit([&order, j] { order.push_back(j); });
  }
  pool.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardPool, RunsEveryJobAcrossShards) {
  ShardPool pool(4);
  std::vector<std::uint64_t> events(16, 0);
  for (int j = 0; j < 16; ++j) {
    // Each job owns one slot, so there is no cross-thread write sharing.
    pool.submit([&events, j] {
      Engine engine;
      for (int i = 0; i <= j; ++i) {
        engine.after(Duration::us(i), [] {});
      }
      engine.run();
      events[static_cast<std::size_t>(j)] = engine.events_processed();
    });
  }
  pool.run_all();
  for (int j = 0; j < 16; ++j) {
    EXPECT_EQ(events[static_cast<std::size_t>(j)], static_cast<std::uint64_t>(j) + 1)
        << "job " << j;
  }
}

TEST(ShardPool, RethrowsLowestIndexJobError) {
  ShardPool pool(2);
  pool.submit([] {});
  pool.submit([] { throw std::runtime_error("job one"); });
  pool.submit([] {});
  pool.submit([] { throw std::runtime_error("job three"); });
  try {
    pool.run_all();
    FAIL() << "expected run_all to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job one");
  }
}

TEST(ShardPool, CounterLocalValueIsolatesShards) {
  auto& c = counter("test.sharded.local_delta");
  std::vector<std::uint64_t> deltas(2, 0);
  ShardPool pool(2);
  for (int j = 0; j < 2; ++j) {
    pool.submit([&deltas, &c, j] {
      const std::uint64_t before = c.local_value();
      c.add(static_cast<std::uint64_t>(10 * (j + 1)));
      deltas[static_cast<std::size_t>(j)] = c.local_value() - before;
    });
  }
  pool.run_all();
  // Each shard's before/after delta sees only its own adds; the global
  // value still sums both.
  EXPECT_EQ(deltas[0], 10u);
  EXPECT_EQ(deltas[1], 20u);
}

TEST(ShardPool, PidBlocksAreDeterministicAcrossRuns) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  const auto run_pids = [] {
    std::vector<std::uint32_t> pids(6, 0);
    ShardPool pool(3);
    for (int j = 0; j < 6; ++j) {
      pool.submit(
          [&pids, j] { pids[static_cast<std::size_t>(j)] = trace::Tracer::instance().next_pid(); });
    }
    pool.run_all();
    return pids;
  };
  const std::vector<std::uint32_t> a = run_pids();
  tracer.clear();
  const std::vector<std::uint32_t> b = run_pids();
  EXPECT_EQ(a, b);
  // Every job draws from its own pre-reserved block keyed by submission
  // index, so pids cannot depend on thread interleaving.
  for (std::size_t j = 1; j < a.size(); ++j) {
    EXPECT_EQ(a[j] - a[0], static_cast<std::uint32_t>(j) * ShardPool::kPidsPerJob);
  }
  tracer.clear();
}

class ShardedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Tracer::instance().clear();
    trace::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    trace::Tracer::instance().set_enabled(false);
    trace::Tracer::instance().clear();
  }
};

std::string run_traced_pool(std::size_t shards) {
  trace::Tracer& t = trace::Tracer::instance();
  ShardPool pool(shards);
  for (int j = 0; j < 4; ++j) {
    pool.submit([j] {
      trace::Tracer& tr = trace::Tracer::instance();
      const std::uint32_t name = tr.intern("sharded.span");
      const std::uint32_t cat = tr.intern("sharded");
      const std::uint32_t pid = tr.next_pid();
      const std::uint32_t rec = tr.begin_span(/*rank=*/j, name, cat, pid, 1000 * (j + 1));
      tr.end_span(j, rec, 1000 * (j + 1) + 500);
    });
  }
  pool.run_all();
  return t.to_chrome_json();
}

TEST_F(ShardedTraceTest, MultiShardExportIsDeterministicAndTagged) {
  const std::string a = run_traced_pool(2);
  trace::Tracer::instance().clear();
  trace::Tracer::instance().set_enabled(true);
  const std::string b = run_traced_pool(2);
  // Byte-identical across reruns at the same shard count: the export sorts
  // on (pid, tid, ts, open seq), none of which depend on thread timing.
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"otherData\":{\"shards\":2}"), std::string::npos);
  EXPECT_NE(a.find("sharded.span"), std::string::npos);
}

TEST_F(ShardedTraceTest, SerialExportKeepsLegacyFormat) {
  const std::string json = run_traced_pool(1);
  // The single-shard document is the pre-sharding wire format: no
  // otherData block, same trailer.
  EXPECT_EQ(json.find("otherData"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  EXPECT_NE(json.find("sharded.span"), std::string::npos);
}

}  // namespace
}  // namespace tio::sim
