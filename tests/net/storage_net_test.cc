// Closed forms for the storage network: one FlowNet link whose flows are
// capped, so n concurrent transfers each move at min(cap, capacity / n).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "sim/engine.h"

namespace tio::net {
namespace {

constexpr double kMB = 1e6;
constexpr double kUncapped = std::numeric_limits<double>::infinity();

sim::Task<void> xfer(sim::Engine& e, StorageNet& net, std::uint64_t bytes, double* done_s) {
  co_await net.transfer(bytes);
  *done_s = e.now().to_seconds();
}

sim::Task<void> delayed_xfer(sim::Engine& e, StorageNet& net, Duration start,
                             std::uint64_t bytes, double* done_s) {
  co_await e.sleep(start);
  co_await net.transfer(bytes);
  *done_s = e.now().to_seconds();
}

TEST(FairShare, SingleTransferRunsAtFullCapacity) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, kUncapped);
  double done = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(200 * kMB), &done));
  e.run();
  EXPECT_NEAR(done, 2.0, 1e-6);
}

TEST(FairShare, TwoEqualTransfersShareCapacity) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, kUncapped);
  double d1 = 0, d2 = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(100 * kMB), &d1));
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(100 * kMB), &d2));
  e.run();
  // Each gets 50 MB/s => both complete at 2 s.
  EXPECT_NEAR(d1, 2.0, 1e-6);
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(FairShare, ShortTransferFinishesFirstThenLongSpeedsUp) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, kUncapped);
  double short_done = 0, long_done = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(50 * kMB), &short_done));
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(150 * kMB), &long_done));
  e.run();
  // Shared 50/50 until the short one finishes at t=1 (50 MB at 50 MB/s);
  // the long one then has 100 MB left at full 100 MB/s => t=2.
  EXPECT_NEAR(short_done, 1.0, 1e-6);
  EXPECT_NEAR(long_done, 2.0, 1e-6);
}

TEST(FairShare, LateArrivalSlowsExistingTransfer) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, kUncapped);
  double d1 = 0, d2 = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(100 * kMB), &d1));
  e.spawn(delayed_xfer(e, net, Duration::seconds(0.5), static_cast<std::uint64_t>(100 * kMB),
                       &d2));
  e.run();
  // First: 50 MB alone in 0.5 s, then 50 MB at 50 MB/s => done at 1.5 s.
  // Second: 50 MB shared (t=0.5..1.5), then 50 MB alone (0.5 s) => 2.0 s.
  EXPECT_NEAR(d1, 1.5, 1e-6);
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(FairShare, PerStreamCapLimitsLightLoad) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, 10 * kMB);
  double done = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(20 * kMB), &done));
  e.run();
  // Alone but capped at 10 MB/s => 2 s.
  EXPECT_NEAR(done, 2.0, 1e-6);
}

TEST(FairShare, CapIgnoredWhenShareIsSmaller) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, 30 * kMB);
  std::vector<double> done(5, 0);
  for (int i = 0; i < 5; ++i) {
    e.spawn(xfer(e, net, static_cast<std::uint64_t>(20 * kMB), &done[i]));
  }
  e.run();
  // 5 streams share 100 => 20 MB/s each (below the 30 cap) => 1 s.
  for (const double d : done) EXPECT_NEAR(d, 1.0, 1e-6);
}

TEST(FairShare, ZeroByteTransferCompletesInstantly) {
  sim::Engine e;
  StorageNet net(e, kMB, kUncapped);
  double done = -1;
  e.spawn(xfer(e, net, 0, &done));
  e.run();
  EXPECT_EQ(done, 0.0);
  EXPECT_EQ(net.stats().transfers, 0u);
}

TEST(FairShare, AggregateThroughputNeverExceedsCapacity) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, kUncapped);
  const int kStreams = 64;
  std::vector<double> done(kStreams, 0);
  std::uint64_t total = 0;
  Rng r(7);
  for (int i = 0; i < kStreams; ++i) {
    const std::uint64_t bytes = (1 + r.below(50)) * static_cast<std::uint64_t>(kMB);
    total += bytes;
    e.spawn(xfer(e, net, bytes, &done[i]));
  }
  e.run();
  const double makespan = e.now().to_seconds();
  // Work-conserving: all streams busy from t=0, so makespan == total/capacity.
  EXPECT_NEAR(makespan, static_cast<double>(total) / (100 * kMB), 1e-3);
  EXPECT_EQ(net.stats().transfers, static_cast<std::uint64_t>(kStreams));
  EXPECT_EQ(net.stats().bytes, total);
  EXPECT_EQ(net.stats().max_concurrency, static_cast<std::size_t>(kStreams));
}

TEST(FairShare, ManyConcurrentStreamsComplete) {
  sim::Engine e;
  StorageNet net(e, 1e9, kUncapped);
  const int kStreams = 10000;
  int completions = 0;
  auto t = [](StorageNet& n, int* count) -> sim::Task<void> {
    co_await n.transfer(1000000);
    ++*count;
  };
  for (int i = 0; i < kStreams; ++i) e.spawn(t(net, &completions));
  e.run();
  EXPECT_EQ(completions, kStreams);
  EXPECT_NEAR(e.now().to_seconds(), 10.0, 0.01);  // 10 GB over 1 GB/s
}

TEST(FairShare, InvalidCapacityThrows) {
  sim::Engine e;
  EXPECT_THROW(StorageNet(e, 0, kUncapped), std::invalid_argument);
  EXPECT_THROW(StorageNet(e, -5, kUncapped), std::invalid_argument);
  EXPECT_THROW(StorageNet(e, 10, 0), std::invalid_argument);
}

TEST(FairShare, CurrentRateReflectsMembership) {
  sim::Engine e;
  StorageNet net(e, 100 * kMB, 80 * kMB);
  EXPECT_LT(net.net().rate_of(0), 0);  // no flow admitted yet
  double d1 = 0, d2 = 0;
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(kMB), &d1));
  // Rates settle once per instant: run t = 0 to its end.
  while (e.step() && e.next_event_ns() == 0) {
  }
  EXPECT_DOUBLE_EQ(net.net().rate_of(0), 80 * kMB);  // alone, held by the cap
  e.spawn(xfer(e, net, static_cast<std::uint64_t>(kMB), &d2));
  while (e.step() && e.next_event_ns() == 0) {
  }
  EXPECT_DOUBLE_EQ(net.net().rate_of(0), 50 * kMB);
  EXPECT_DOUBLE_EQ(net.net().rate_of(1), 50 * kMB);
  e.run();
  EXPECT_EQ(net.net().active_flows(), 0u);
}

}  // namespace
}  // namespace tio::net
