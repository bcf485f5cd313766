#include "mpisim/comm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "mpisim/runtime.h"

namespace tio::mpi {

// Test-only view of a communicator's shared group.
struct CommTestPeer {
  static const std::vector<int>& members(const Comm& c) { return c.group_->members; }
  static std::size_t pending_splits(const Comm& c) { return c.group_->splits.size(); }
};

namespace {

net::ClusterConfig test_cluster() {
  net::ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 4;
  return c;
}

// Runs `fn` as an SPMD job of `n` ranks on a fresh cluster.
void spmd(int n, const std::function<sim::Task<void>(Comm)>& fn) {
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  run_spmd(cluster, n, fn);
}

TEST(Runtime, BlockPlacement) {
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  Runtime rt(cluster, 32);
  EXPECT_EQ(rt.node_of(0), 0u);
  EXPECT_EQ(rt.node_of(3), 0u);
  EXPECT_EQ(rt.node_of(4), 1u);
  EXPECT_EQ(rt.node_of(31), 7u);
  // Oversubscription wraps.
  Runtime big(cluster, 64);
  EXPECT_EQ(big.node_of(32), 0u);
}

TEST(Runtime, InvalidSizeThrows) {
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  EXPECT_THROW(Runtime(cluster, 0), std::invalid_argument);
}

TEST(Comm, SendRecvDeliversPayloadAndTakesTime) {
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  std::string got;
  run_spmd(cluster, 8, [&got](Comm comm) -> sim::Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(7, 42, std::string("payload"), 1_MiB);
    } else if (comm.rank() == 7) {
      got = co_await comm.recv<std::string>(0, 42);
    }
  });
  EXPECT_EQ(got, "payload");
  EXPECT_GT(engine.now().to_ns(), Duration::us(500).to_ns());  // 1 MiB over 2 GB/s NICs
}

TEST(Comm, MessagesMatchBySourceAndTag) {
  std::vector<int> got(2, -1);
  spmd(3, [&got](Comm comm) -> sim::Task<void> {
    if (comm.rank() == 1) co_await comm.send(0, 5, 100, 8);
    if (comm.rank() == 2) co_await comm.send(0, 6, 200, 8);
    if (comm.rank() == 0) {
      // Receive in the opposite order of arrival likelihood.
      got[1] = co_await comm.recv<int>(2, 6);
      got[0] = co_await comm.recv<int>(1, 5);
    }
  });
  EXPECT_EQ(got[0], 100);
  EXPECT_EQ(got[1], 200);
}

class CommSizes : public ::testing::TestWithParam<int> {};

TEST_P(CommSizes, BcastReachesAllRanks) {
  const int n = GetParam();
  std::vector<int> got(n, -1);
  spmd(n, [&got](Comm comm) -> sim::Task<void> {
    const int root = comm.size() > 2 ? 2 : 0;
    const int value = comm.rank() == root ? 777 : -1;
    got[comm.rank()] = co_await comm.bcast(root, value, 64);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(got[r], 777) << "rank " << r;
}

TEST_P(CommSizes, GatherCollectsInRankOrder) {
  const int n = GetParam();
  std::vector<int> result;
  spmd(n, [&result](Comm comm) -> sim::Task<void> {
    const int root = comm.size() - 1;
    auto v = co_await comm.gather(root, comm.rank() * 10, 8);
    if (comm.rank() == root) {
      result = std::move(v);
    } else {
      EXPECT_TRUE(v.empty());
    }
  });
  ASSERT_EQ(result.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) EXPECT_EQ(result[r], r * 10);
}

TEST_P(CommSizes, AllgatherGivesEveryoneEverything) {
  const int n = GetParam();
  std::vector<std::vector<int>> results(n);
  spmd(n, [&results](Comm comm) -> sim::Task<void> {
    results[comm.rank()] = co_await comm.allgather(comm.rank() + 1, 8);
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(results[r].size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) EXPECT_EQ(results[r][i], i + 1);
  }
}

TEST_P(CommSizes, ReduceSums) {
  const int n = GetParam();
  int result = -1;
  spmd(n, [&result](Comm comm) -> sim::Task<void> {
    const int sum =
        co_await comm.reduce(0, comm.rank() + 1, 8, [](int a, int b) { return a + b; });
    if (comm.rank() == 0) result = sum;
  });
  EXPECT_EQ(result, n * (n + 1) / 2);
}

TEST_P(CommSizes, AllreduceMax) {
  const int n = GetParam();
  std::vector<int> results(n, -1);
  spmd(n, [&results](Comm comm) -> sim::Task<void> {
    results[comm.rank()] = co_await comm.allreduce(
        comm.rank() * 3 + 1, 8, [](int a, int b) { return a > b ? a : b; });
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(results[r], (n - 1) * 3 + 1);
}

TEST_P(CommSizes, AlltoallTransposes) {
  const int n = GetParam();
  std::vector<std::vector<int>> results(n);
  spmd(n, [&results](Comm comm) -> sim::Task<void> {
    std::vector<int> to_send(comm.size());
    for (int i = 0; i < comm.size(); ++i) to_send[i] = comm.rank() * 100 + i;
    results[comm.rank()] = co_await comm.alltoall(std::move(to_send), 8);
  });
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(results[r][i], i * 100 + r);  // from rank i, slot r
    }
  }
}

TEST_P(CommSizes, BarrierSynchronizesArrivalTimes) {
  const int n = GetParam();
  std::vector<std::int64_t> exit_ns(n, 0);
  sim::Engine engine;
  net::Cluster cluster(engine, test_cluster());
  run_spmd(cluster, n, [&exit_ns](Comm comm) -> sim::Task<void> {
    // Stagger arrivals; everyone leaves only after the slowest arrives.
    co_await comm.engine().sleep(Duration::ms(comm.rank()));
    co_await comm.barrier();
    exit_ns[comm.rank()] = comm.engine().now().to_ns();
  });
  const auto last_arrival = Duration::ms(n - 1).to_ns();
  for (int r = 0; r < n; ++r) EXPECT_GE(exit_ns[r], last_arrival);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommSizes, ::testing::Values(1, 2, 3, 5, 8, 13, 16, 33));

TEST(Comm, SplitFormsCorrectGroups) {
  const int n = 12;
  std::vector<int> sub_rank(n, -1), sub_size(n, -1);
  spmd(n, [&sub_rank, &sub_size](Comm comm) -> sim::Task<void> {
    // Groups of 4 consecutive ranks.
    Comm sub = co_await comm.split(comm.rank() / 4, comm.rank());
    sub_rank[comm.rank()] = sub.rank();
    sub_size[comm.rank()] = sub.size();
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(sub_size[r], 4);
    EXPECT_EQ(sub_rank[r], r % 4);
  }
}

TEST(Comm, SplitSubcommCollectivesWork) {
  const int n = 8;
  std::vector<int> results(n, -1);
  spmd(n, [&results](Comm comm) -> sim::Task<void> {
    Comm sub = co_await comm.split(comm.rank() % 2, comm.rank());
    // Leader of each parity group broadcasts its world rank.
    const int value = sub.rank() == 0 ? comm.rank() : -1;
    results[comm.rank()] = co_await sub.bcast(0, value, 8);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(results[r], r % 2);
}

TEST(Comm, SplitWithReversedKeysReversesOrder) {
  const int n = 6;
  std::vector<int> sub_rank(n, -1);
  spmd(n, [&sub_rank](Comm comm) -> sim::Task<void> {
    Comm sub = co_await comm.split(0, -comm.rank());
    sub_rank[comm.rank()] = sub.rank();
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(sub_rank[r], n - 1 - r);
}

// Splits with seeded random colors and keys (ties and negative keys
// included) must give every rank exactly what the per-rank (key, rank) sort
// over its own color gives, and all ranks of one color must share one
// members list.
TEST(Comm, SplitMatchesPerRankReference) {
  for (const int n : {1, 2, 3, 13, 33, 256}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::mt19937 rng(static_cast<std::uint32_t>(1000 + n));
    std::vector<int> color(n), key(n);
    for (int r = 0; r < n; ++r) {
      color[r] = static_cast<int>(rng() % 5) - 1;
      key[r] = static_cast<int>(rng() % 7) - 3;
    }
    std::vector<int> sub_rank(n, -1), sub_size(n, -1);
    std::vector<std::vector<int>> members(n);
    std::vector<Comm> subs;  // keeps every group alive for the identity check
    spmd(n, [&](Comm comm) -> sim::Task<void> {
      const int me = comm.rank();
      Comm sub = co_await comm.split(color[me], key[me]);
      sub_rank[me] = sub.rank();
      sub_size[me] = sub.size();
      members[me] = CommTestPeer::members(sub);
      subs.push_back(sub);
    });
    ASSERT_EQ(subs.size(), static_cast<std::size_t>(n));
    std::vector<const std::vector<int>*> list_of_color;
    std::vector<int> seen_colors;
    for (const Comm& sub : subs) {
      const int r = sub.global_rank();
      std::vector<std::pair<std::pair<int, int>, int>> mine;  // ((key, rank), rank)
      for (int q = 0; q < n; ++q) {
        if (color[q] == color[r]) mine.push_back({{key[q], q}, q});
      }
      std::sort(mine.begin(), mine.end());
      std::vector<int> want;
      for (const auto& m : mine) want.push_back(m.second);
      const auto at = std::find(want.begin(), want.end(), r) - want.begin();
      EXPECT_EQ(sub_rank[r], at) << "rank " << r;
      EXPECT_EQ(sub_size[r], static_cast<int>(want.size())) << "rank " << r;
      EXPECT_EQ(members[r], want) << "rank " << r;
      const auto c = std::find(seen_colors.begin(), seen_colors.end(), color[r]);
      if (c == seen_colors.end()) {
        seen_colors.push_back(color[r]);
        list_of_color.push_back(&CommTestPeer::members(sub));
      } else {
        EXPECT_EQ(&CommTestPeer::members(sub), list_of_color[c - seen_colors.begin()])
            << "rank " << r << " has its own copy of color " << color[r];
      }
    }
    // Distinct colors never share a group.
    for (std::size_t i = 0; i < list_of_color.size(); ++i) {
      for (std::size_t j = i + 1; j < list_of_color.size(); ++j) {
        EXPECT_NE(list_of_color[i], list_of_color[j]);
      }
    }
  }
}

// Back-to-back splits of one parent and a split of a split both work, and
// once every rank is past a split the parent holds no memo for it.
TEST(Comm, NestedAndBackToBackSplitsLeaveNoMemo) {
  constexpr int n = 24;
  std::vector<int> sums(n, -1);
  spmd(n, [&sums](Comm comm) -> sim::Task<void> {
    const int me = comm.rank();
    Comm thirds = co_await comm.split(me % 3, -me);
    Comm blocks = co_await comm.split(me / 8, me);
    co_await comm.barrier();
    EXPECT_EQ(CommTestPeer::pending_splits(comm), 0u);
    EXPECT_EQ(thirds.size(), 8);
    EXPECT_EQ(thirds.rank(), 7 - me / 3);
    EXPECT_EQ(blocks.size(), 8);
    EXPECT_EQ(blocks.rank(), me % 8);

    Comm halves = co_await thirds.split(thirds.rank() % 2, thirds.rank());
    co_await thirds.barrier();
    EXPECT_EQ(CommTestPeer::pending_splits(thirds), 0u);
    EXPECT_EQ(halves.size(), 4);
    EXPECT_EQ(halves.rank(), thirds.rank() / 2);

    // Collectives on every level still pair up.
    const auto plus = [](int a, int b) { return a + b; };
    const int in_halves = co_await halves.allreduce(me, 8, plus);
    const int in_blocks = co_await blocks.allreduce(in_halves, 8, plus);
    sums[me] = co_await comm.allreduce(in_blocks, 8, plus);
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(sums[r], sums[0]) << "rank " << r;
  EXPECT_GT(sums[0], 0);
}

TEST(Comm, CollectiveTimesScaleLogarithmically) {
  auto time_bcast = [](int n) {
    sim::Engine engine;
    net::ClusterConfig cfg = test_cluster();
    cfg.nodes = 256;
    cfg.cores_per_node = 1;
    net::Cluster cluster(engine, cfg);
    run_spmd(cluster, n, [](Comm comm) -> sim::Task<void> {
      (void)co_await comm.bcast(0, 1, 1_MiB);
    });
    return engine.now().to_seconds();
  };
  const double t16 = time_bcast(16);
  const double t256 = time_bcast(256);
  // Binomial: 4 rounds vs 8 rounds, not 16 vs 256.
  EXPECT_LT(t256, t16 * 4);
  EXPECT_GT(t256, t16);
}

TEST(Comm, ManySiblingSubcommunicatorsDoNotCrossTalk) {
  // Regression: with 128+ group colors plus a leaders split (the Parallel
  // Index Read pattern), the old context hash collided between sibling
  // subcomms and a bcast delivered a payload of the wrong type.
  spmd(256, [](Comm comm) -> sim::Task<void> {
    Comm group = co_await comm.split(comm.rank() / 2, comm.rank());
    Comm leaders = co_await comm.split(group.rank() == 0 ? 0 : 1, comm.rank());
    if (group.rank() == 0) {
      auto gathered = co_await leaders.allgather(std::vector<int>(1, comm.rank()), 8);
      EXPECT_EQ(gathered.size(), 128u);
    }
    const auto x = co_await group.bcast(0, std::uint64_t{7}, 8);
    EXPECT_EQ(x, 7u);
    // A second, differently-typed broadcast on the same comm. (No braced
    // init lists here: GCC 12 cannot materialize initializer_list arrays in
    // coroutine frames.)
    const std::vector<int> probe(3, comm.rank() / 2);
    const auto y = co_await group.bcast(0, probe, 16);
    EXPECT_EQ(y, probe);
  });
}

TEST(Comm, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine engine;
    net::Cluster cluster(engine, test_cluster());
    run_spmd(cluster, 16, [](Comm comm) -> sim::Task<void> {
      auto all = co_await comm.allgather(comm.rank(), 64);
      (void)co_await comm.reduce(0, static_cast<int>(all.size()), 8,
                                 [](int a, int b) { return a + b; });
      co_await comm.barrier();
    });
    return std::make_pair(engine.now().to_ns(), engine.events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Comm, ReservedTagIsRejected) {
  // Tasks are lazy: validation throws surface when the task is awaited.
  spmd(2, [](Comm comm) -> sim::Task<void> {
    if (comm.rank() == 0) {
      bool threw = false;
      try {
        co_await comm.send(1, 1 << 21, 0, 8);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      EXPECT_TRUE(threw);
    }
  });
}

TEST(Comm, BadRankThrows) {
  spmd(2, [](Comm comm) -> sim::Task<void> {
    bool threw = false;
    try {
      (void)co_await comm.bcast(5, 0, 8);
    } catch (const std::out_of_range&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  });
}

}  // namespace
}  // namespace tio::mpi
