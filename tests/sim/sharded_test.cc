// Tests for the sharded execution layer: ShardPool (independent
// simulations spread across OS threads), shard-keyed stats accumulation,
// and the trace export's independence from the shard count.
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
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardPool pool(shards);
    std::vector<int> ran(4, 0);
    pool.submit([&ran] { ran[0] = 1; });
    pool.submit([&ran] {
      ran[1] = 1;
      throw std::runtime_error("job one");
    });
    pool.submit([&ran] { ran[2] = 1; });
    pool.submit([&ran] {
      ran[3] = 1;
      throw std::runtime_error("job three");
    });
    try {
      pool.run_all();
      FAIL() << "expected run_all to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job one");
    }
    // Every job runs before the rethrow, including those after a failure.
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
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

TEST(ShardPool, QueuePeakIsTheLargestEnginePeak) {
  // Job j's engine holds (j + 1) * 10 events pending at once. The
  // published counter is a max over engines, not a sum, at any shard count.
  Counter& peak = counter("sim.engine.queue_peak");
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    peak.reset();
    std::vector<std::size_t> peaks(8, 0);
    ShardPool pool(shards);
    for (int j = 0; j < 8; ++j) {
      pool.submit([&peaks, j] {
        Engine engine;
        for (int i = 0; i < (j + 1) * 10; ++i) engine.after(Duration::us(i + 1), [] {});
        engine.run();
        peaks[static_cast<std::size_t>(j)] = engine.queue_stats().peak_queue;
      });
    }
    pool.run_all();
    EXPECT_EQ(peaks[0], 10u);
    EXPECT_EQ(peaks[7], 80u);
    EXPECT_EQ(peak.value(), 80u);
  }
  peak.reset();
}

class ShardedTraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    trace::Tracer::instance().set_enabled(false);
    trace::Tracer::instance().clear();
  }
};

// Runs a fixed job list traced through a pool of `shards` and returns the
// exported document. Jobs share start times across engines and open
// several same-time spans per track, so the export order is exercised on
// every sort key.
std::string run_traced_pool(std::size_t shards) {
  trace::Tracer& t = trace::Tracer::instance();
  t.clear();
  t.set_enabled(true);
  ShardPool pool(shards);
  for (int j = 0; j < 6; ++j) {
    pool.submit([j] {
      trace::Tracer& tr = trace::Tracer::instance();
      const std::uint32_t name = tr.intern(j % 2 == 0 ? "sharded.even" : "sharded.odd");
      const std::uint32_t inner_name = tr.intern("sharded.inner");
      const std::uint32_t cat = tr.intern("sharded");
      for (int e = 0; e <= j % 3; ++e) {
        const std::uint32_t pid = tr.next_pid();
        for (int rank = -1; rank < 2; ++rank) {
          const std::uint32_t outer = tr.begin_span(rank, name, cat, pid, 1000);
          const std::uint32_t inner = tr.begin_span(rank, inner_name, cat, pid, 1000);
          tr.end_span(rank, inner, 1000 + 100 * j);
          tr.end_span(rank, outer, 2000 + 100 * e);
        }
      }
    });
  }
  pool.run_all();
  return t.to_chrome_json();
}

TEST_F(ShardedTraceTest, MultiShardExportIsDeterministicAndTagged) {
  const std::string a = run_traced_pool(2);
  const std::string b = run_traced_pool(2);
  // Byte-identical across reruns at the same shard count: the export sorts
  // on (pid, tid, ts, open seq), none of which depend on thread timing.
  EXPECT_EQ(a, b);
  // Every span is tagged with a pid from its job's reserved block: job j
  // draws from j * kPidsPerJob whichever shard runs it.
  for (std::uint32_t j = 0; j < 6; ++j) {
    SCOPED_TRACE("job=" + std::to_string(j));
    const std::string tag = "\"pid\":" + std::to_string(j * ShardPool::kPidsPerJob) + ",";
    EXPECT_NE(a.find(tag), std::string::npos);
  }
  EXPECT_NE(a.find("sharded.even"), std::string::npos);
}

TEST_F(ShardedTraceTest, SerialExportKeepsLegacyFormat) {
  const std::string json = run_traced_pool(1);
  // The one export format is the pre-sharding wire format: no otherData
  // block, same trailer.
  EXPECT_EQ(json.find("otherData"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  EXPECT_NE(json.find("sharded.odd"), std::string::npos);
}

TEST_F(ShardedTraceTest, ExportIsByteIdenticalAcrossShardCounts) {
  const std::string serial = run_traced_pool(1);
  EXPECT_NE(serial.find("sharded.odd"), std::string::npos);
  EXPECT_EQ(serial.find("otherData"), std::string::npos);
  EXPECT_EQ(run_traced_pool(1), serial);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(run_traced_pool(shards), serial);
  }
}

}  // namespace
}  // namespace tio::sim
