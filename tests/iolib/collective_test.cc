// Differential suite for the collective-buffering pipeline: every mode of
// cb_write/cb_read (aggregator counts, intra-node aggregation, sieving,
// fault plans) must produce bytes identical to plain per-rank direct I/O.
// Plus unit tests pinning the sieve heuristic at its threshold boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "iolib/collective_buffer.h"
#include "iolib/node_agg.h"
#include "net/cluster.h"
#include "pfs/extent_map.h"
#include "pfs/faulty_fs.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"

namespace tio::iolib {
namespace {

net::ClusterConfig tiny_cluster() {
  net::ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 4;
  return c;
}

// A per-rank access shape: the write chunks double as the read ranges.
struct Shape {
  const char* name;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> (*ops)(int rank, int nprocs);
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> strided_shape(int rank, int nprocs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 32; ++r) {
    ops.emplace_back((static_cast<std::uint64_t>(r) * nprocs + rank) * 1024, 1024);
  }
  return ops;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> segmented_shape(int rank, int nprocs) {
  (void)nprocs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 8; ++r) {
    ops.emplace_back(static_cast<std::uint64_t>(rank) * 32768 + static_cast<std::uint64_t>(r) * 4096,
                     4096);
  }
  return ops;
}

// Field access with holes: 512 useful bytes per 2 KiB element.
std::vector<std::pair<std::uint64_t, std::uint64_t>> noncontig_shape(int rank, int nprocs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  for (int r = 0; r < 16; ++r) {
    ops.emplace_back((static_cast<std::uint64_t>(r) * nprocs + rank) * 2048, 512);
  }
  return ops;
}

// Only every third rank participates, with rank-dependent odd sizes.
std::vector<std::pair<std::uint64_t, std::uint64_t>> uneven_shape(int rank, int nprocs) {
  (void)nprocs;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  if (rank % 3 == 0) {
    ops.emplace_back(static_cast<std::uint64_t>(rank) * 5000, 3000 + static_cast<std::uint64_t>(rank));
  }
  return ops;
}

// Records that overlap other ranks' records, touch end to end, and come
// out of offset order within a rank, so the exchange must union the
// requests (sort and coalesce) and rebuild each want from its pieces in
// offset order. Rank r owns a 4 KiB block at r * 4 KiB, and its first
// record runs 2 KiB into rank r+1's block. Every fourth rank adds a record
// over three blocks. Ranks 1, 5, 9 and 13 also want the whole file (one
// piece per aggregator) among 24 small records in descending offset
// order: enough pieces that a sort on the want alone would misplace them.
std::vector<std::pair<std::uint64_t, std::uint64_t>> overlap_shape(int rank, int nprocs) {
  const std::uint64_t base = static_cast<std::uint64_t>(rank) * 4096;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops = {
      {base + 4096, 2048},  // overlaps rank+1's first two records
      {base + 1024, 1024},  // touches the next two end to end
      {base, 1024},
      {base + 2048, 3072},  // overlaps the first record within the rank
  };
  if (rank % 4 == 0) ops.emplace_back(base + 512, 3 * 4096);
  if (rank % 4 == 1) {
    ops.emplace_back(0, static_cast<std::uint64_t>(nprocs) * 4096 + 2048);
    for (int k = 23; k >= 0; --k) ops.emplace_back(static_cast<std::uint64_t>(k) * 2560, 512);
  }
  return ops;
}

const Shape kShapes[] = {
    {"strided", strided_shape},
    {"segmented", segmented_shape},
    {"noncontig", noncontig_shape},
    {"uneven", uneven_shape},
    {"overlap", overlap_shape},
};

// The config grid the differential sweeps cover.
std::vector<CbConfig> config_grid(double sieve_threshold = 0.0) {
  std::vector<CbConfig> grid;
  for (const int aggs : {0, 1, 3}) {
    for (const bool node_agg : {false, true}) {
      CbConfig cb;
      cb.aggregators = aggs;
      cb.node_aggregation = node_agg;
      cb.sieve_threshold = sieve_threshold;
      cb.buffer_bytes = 64 * 1024;  // small cap: exercises multi-op staging
      grid.push_back(cb);
    }
  }
  return grid;
}

TEST(CbDifferential, WritesMatchDirectPerRankIo) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  for (const Shape& shape : kShapes) {
    // Reference: every rank writes its own records directly.
    pfs::ExtentMap reference;
    std::uint64_t total = 0;
    for (int r = 0; r < n; ++r) {
      for (const auto& [off, len] : shape.ops(r, n)) {
        reference.write(off, DataView::pattern(7, off, len));
        total = std::max(total, off + len);
      }
    }
    for (const CbConfig& cb : config_grid()) {
      pfs::ExtentMap file;
      mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
        std::vector<CbChunk> mine;
        for (const auto& [off, len] : shape.ops(comm.rank(), n)) {
          mine.push_back(CbChunk{off, DataView::pattern(7, off, len)});
        }
        const WriteFn write_at = [&file](std::uint64_t off, DataView data) -> sim::Task<Status> {
          file.write(off, std::move(data));
          co_return Status::Ok();
        };
        EXPECT_TRUE((co_await cb_write(comm, cb, std::move(mine), write_at)).ok());
      });
      EXPECT_TRUE(file.read(0, total).content_equals(reference.read(0, total)))
          << shape.name << " aggs=" << cb.aggregators << " node_agg=" << cb.node_aggregation;
    }
  }
}

TEST(CbDifferential, ReadsMatchDirectPerRankIo) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  for (const Shape& shape : kShapes) {
    std::uint64_t total = 0;
    for (int r = 0; r < n; ++r) {
      for (const auto& [off, len] : shape.ops(r, n)) total = std::max(total, off + len);
    }
    pfs::ExtentMap file;
    file.write(0, DataView::pattern(9, 0, total));
    // Sieving at any threshold must never change the returned bytes.
    for (const double sieve : {0.0, 1.0, 1e9}) {
      for (const CbConfig& cb : config_grid(sieve)) {
        mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
          std::vector<CbRange> wants;
          for (const auto& [off, len] : shape.ops(comm.rank(), n)) {
            wants.push_back(CbRange{off, len});
          }
          const ReadFn read_at = [&file, total](std::uint64_t off, std::uint64_t len)
              -> sim::Task<Result<FragmentList>> {
            if (off >= total) co_return FragmentList{};
            co_return file.read(off, std::min(len, total - off));
          };
          std::vector<FragmentList> got;
          EXPECT_TRUE((co_await cb_read(comm, cb, wants, read_at, &got)).ok());
          EXPECT_EQ(got.size(), wants.size());
          if (got.size() != wants.size()) co_return;
          for (std::size_t i = 0; i < wants.size(); ++i) {
            // Direct per-rank I/O would read the pattern straight out.
            EXPECT_TRUE(got[i].content_equals(
                DataView::pattern(9, wants[i].offset, wants[i].len)))
                << shape.name << " rank " << comm.rank() << " want " << i
                << " aggs=" << cb.aggregators << " node_agg=" << cb.node_aggregation
                << " sieve=" << cb.sieve_threshold;
          }
        });
      }
    }
  }
}

// The full stack (Rig + FaultyFs): transient faults are absorbed below the
// collective layer and must not change any byte, in either pipeline mode.
TEST(CbDifferential, FaultPlansDoNotChangeBytes) {
  for (const char* plan : {"none", "transient1"}) {
    for (const bool node_agg : {false, true}) {
      testbed::Rig::Options opts;
      opts.cluster = testbed::lanl_cluster();
      opts.pfs = testbed::lanl_pfs(1);
      opts.fault_plan = pfs::FaultPlan::parse(plan).value();
      testbed::Rig rig(opts);

      CbConfig cb;
      cb.node_aggregation = node_agg;
      cb.sieve_threshold = node_agg ? 2.0 : 0.0;  // exercise sieving in one mode
      workloads::TargetOptions target;
      target.access = workloads::Access::direct_n1;

      // Both collective kernels; their read_fn verifies every byte against
      // the written pattern (== what direct per-rank I/O produces).
      auto lanl3 = workloads::lanl3(16, 1 << 20, target, cb);
      EXPECT_NO_THROW(workloads::run_job(rig, 16, lanl3)) << plan << " " << node_agg;
      auto nc = workloads::noncontig(16, 1 << 20, 512, 2048, target, cb);
      EXPECT_NO_THROW(workloads::run_job(rig, 16, nc)) << plan << " " << node_agg;
    }
  }
}

TEST(CbNodePlan, GroupsRanksByNodeWithLowestRankLeading) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  mpi::run_spmd(cluster, 16, [](mpi::Comm comm) -> sim::Task<void> {
    const NodePlan plan = NodePlan::of(comm, /*by_node=*/true);
    EXPECT_EQ(plan.num_groups(), 4);
    EXPECT_EQ(plan.my_group, comm.rank() / 4);
    EXPECT_EQ(plan.leader_of(plan.my_group), (comm.rank() / 4) * 4);
    EXPECT_EQ(plan.is_leader(comm.rank()), comm.rank() % 4 == 0);
    EXPECT_EQ(plan.members(plan.my_group).size(), 4u);
    co_return;
  });
}

TEST(CbNodePlan, PerRankGroupingMakesEveryRankItsOwnLeader) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  mpi::run_spmd(cluster, 16, [](mpi::Comm comm) -> sim::Task<void> {
    const NodePlan plan = NodePlan::of(comm, /*by_node=*/false);
    EXPECT_EQ(plan.num_groups(), 16);
    EXPECT_EQ(plan.my_group, comm.rank());
    EXPECT_TRUE(plan.is_leader(comm.rank()));
    EXPECT_EQ(plan.members(plan.my_group), std::vector<int>{comm.rank()});
    co_return;
  });
}

// The grouping as every rank used to build it for itself: dense ids in
// order of first appearance by comm rank, members ascending.
mpi::RankGroups reference_groups(const mpi::Comm& comm, bool by_node) {
  mpi::RankGroups ref;
  std::map<std::size_t, int> dense;
  for (int r = 0; r < comm.size(); ++r) {
    const std::size_t key = by_node ? comm.node_of_rank(r) : static_cast<std::size_t>(r);
    auto [it, inserted] = dense.emplace(key, static_cast<int>(ref.members.size()));
    if (inserted) ref.members.emplace_back();
    ref.group_of.push_back(it->second);
    ref.members[static_cast<std::size_t>(it->second)].push_back(r);
  }
  return ref;
}

// One layout per communicator and grouping, shared by all of its ranks.
// 24 ranks on 16 cores wrap around the nodes, so node groups are not
// contiguous rank blocks; the odd/even split gives sub-communicators whose
// node groups differ from the world's.
TEST(CbNodePlan, LayoutSharedAcrossRanks) {
  constexpr int kRanks = 24;
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  // Holding the layouts keeps their addresses from being reused.
  using Layout = std::shared_ptr<const mpi::RankGroups>;
  std::vector<Layout> world[2];
  std::vector<Layout> sub[2];
  std::vector<int> parity(kRanks);
  for (auto& v : world) v.resize(kRanks);
  for (auto& v : sub) v.resize(kRanks);
  mpi::run_spmd(cluster, kRanks, [&](mpi::Comm comm) -> sim::Task<void> {
    const int me = comm.rank();
    parity[static_cast<std::size_t>(me)] = me % 2;
    mpi::Comm half = co_await comm.split(me % 2, me);
    // (No braced init lists in coroutines: GCC 12 cannot materialize their
    // arrays in coroutine frames.)
    for (int by_node = 0; by_node < 2; ++by_node) {
      const NodePlan plan = NodePlan::of(comm, by_node == 1);
      const NodePlan half_plan = NodePlan::of(half, by_node == 1);
      const mpi::RankGroups ref = reference_groups(comm, by_node == 1);
      const mpi::RankGroups half_ref = reference_groups(half, by_node == 1);
      EXPECT_EQ(plan.layout->group_of, ref.group_of);
      EXPECT_EQ(plan.layout->members, ref.members);
      EXPECT_EQ(plan.my_group, ref.group_of[static_cast<std::size_t>(me)]);
      EXPECT_EQ(half_plan.layout->group_of, half_ref.group_of);
      EXPECT_EQ(half_plan.layout->members, half_ref.members);
      world[by_node][static_cast<std::size_t>(me)] = plan.layout;
      sub[by_node][static_cast<std::size_t>(me)] = half_plan.layout;
    }
  });
  for (const int by_node : {0, 1}) {
    SCOPED_TRACE("by_node=" + std::to_string(by_node));
    for (int r = 0; r < kRanks; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(world[by_node][i], world[by_node][0]);
      EXPECT_EQ(sub[by_node][i], sub[by_node][static_cast<std::size_t>(parity[i])]);
      EXPECT_NE(sub[by_node][i], world[by_node][i]);
    }
    EXPECT_NE(sub[by_node][0], sub[by_node][1]);
    EXPECT_NE(world[by_node][0], world[1 - by_node][0]);
  }
}

// --- config validation ---

// Each invalid config fails with Errc::invalid on every rank before any
// message moves or any virtual time passes (buffer_bytes == 0 used to
// spin forever in the staging loops).
TEST(CbConfig, InvalidValuesFailBeforeAnyCommunication) {
  EXPECT_TRUE(cb_validate(CbConfig{}).ok());
  struct Case {
    std::string name;
    CbConfig cb;
  };
  const Case bad[] = {
      {"buffer_bytes=0", CbConfig{.buffer_bytes = 0}},
      {"aggregators=-5", CbConfig{.aggregators = -5}},
      {"sieve=-1", CbConfig{.sieve_threshold = -1.0}},
      {"sieve=nan", CbConfig{.sieve_threshold = std::nan("")}},
      {"sieve=inf", CbConfig{.sieve_threshold = HUGE_VAL}},
  };
  for (const Case& c : bad) {
    const std::string& name = c.name;
    const CbConfig& cb = c.cb;
    EXPECT_EQ(cb_validate(cb).code(), Errc::invalid) << name;
    sim::Engine engine;
    net::Cluster cluster(engine, tiny_cluster());
    Counter& fabric = counter("iolib.cb.fabric_msgs");
    Counter& local = counter("iolib.cb.local_msgs");
    const std::uint64_t msgs_before = fabric.value() + local.value();
    int io_calls = 0;
    mpi::run_spmd(cluster, 16, [&](mpi::Comm comm) -> sim::Task<void> {
      const WriteFn write_at = [&io_calls](std::uint64_t, DataView) -> sim::Task<Status> {
        ++io_calls;
        co_return Status::Ok();
      };
      const ReadFn read_at = [&io_calls](std::uint64_t,
                                         std::uint64_t) -> sim::Task<Result<FragmentList>> {
        ++io_calls;
        co_return FragmentList{};
      };
      const std::uint64_t off = static_cast<std::uint64_t>(comm.rank()) * 1024;
      std::vector<CbChunk> mine(1, CbChunk{off, DataView::pattern(1, off, 1024)});
      const Status w = co_await cb_write(comm, cb, std::move(mine), write_at);
      EXPECT_EQ(w.code(), Errc::invalid) << name << " rank " << comm.rank();
      std::vector<CbRange> wants(1, CbRange{off, 1024});
      std::vector<FragmentList> got;
      const Status r = co_await cb_read(comm, cb, std::move(wants), read_at, &got);
      EXPECT_EQ(r.code(), Errc::invalid) << name << " rank " << comm.rank();
    });
    EXPECT_EQ(engine.now(), TimePoint{}) << name;
    EXPECT_EQ(fabric.value() + local.value(), msgs_before) << name;
    EXPECT_EQ(io_calls, 0) << name;
  }
}

// --- message census in closed form ---

// On tiny_cluster (4 nodes x 4 cores, block placement: node = rank / 4),
// the exchange sends one phase-1 message per (group leader, aggregator)
// pair; reads answer each pair once more in phase 2. Phase 0 and the read
// fan-out cost one intra-node hop per non-leader member.
struct Census {
  std::uint64_t fabric = 0;
  std::uint64_t local = 0;
};

Census expected_census(bool by_node, int aggregators, bool read) {
  const int n = 16;
  const auto node = [](int rank) { return rank / 4; };
  std::vector<int> leaders;
  for (int r = 0; r < n; ++r) {
    if (!by_node || r % 4 == 0) leaders.push_back(r);
  }
  const std::uint64_t member_hops = static_cast<std::uint64_t>(n) - leaders.size();
  Census pairs;
  for (const int l : leaders) {
    for (int j = 0; j < aggregators; ++j) {
      const int agg = cb_aggregator_rank(j, aggregators, n);
      ++(node(l) == node(agg) ? pairs.local : pairs.fabric);
    }
  }
  const std::uint64_t legs = read ? 2 : 1;  // request + reply, or ship only
  return Census{legs * pairs.fabric, legs * (pairs.local + member_hops)};
}

TEST(CbCensus, MessagesMatchTheClosedFormForEveryGrouping) {
  const int n = 16;
  std::uint64_t total = 0;
  for (int r = 0; r < n; ++r) {
    for (const auto& [off, len] : strided_shape(r, n)) total = std::max(total, off + len);
  }
  Counter& fabric = counter("iolib.cb.fabric_msgs");
  Counter& local = counter("iolib.cb.local_msgs");
  for (const int aggs : {1, 3}) {
    for (const bool node_agg : {false, true}) {
      CbConfig cb;
      cb.aggregators = aggs;
      cb.node_aggregation = node_agg;
      sim::Engine engine;
      net::Cluster cluster(engine, tiny_cluster());
      pfs::ExtentMap file;

      Census before{fabric.value(), local.value()};
      mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
        std::vector<CbChunk> mine;
        for (const auto& [off, len] : strided_shape(comm.rank(), n)) {
          mine.push_back(CbChunk{off, DataView::pattern(3, off, len)});
        }
        const WriteFn write_at = [&file](std::uint64_t off, DataView data) -> sim::Task<Status> {
          file.write(off, std::move(data));
          co_return Status::Ok();
        };
        EXPECT_TRUE((co_await cb_write(comm, cb, std::move(mine), write_at)).ok());
      });
      const Census write{fabric.value() - before.fabric, local.value() - before.local};
      const Census want_write = expected_census(node_agg, aggs, /*read=*/false);
      // Phase 1 is exactly groups x aggregators messages; phase 0 adds one
      // hop per non-leader (the node grouping is cores_per_node-fold leaner).
      const std::uint64_t groups = node_agg ? 4 : n;
      EXPECT_EQ(write.fabric + write.local, groups * aggs + (n - groups));
      const auto tag = [&](const char* op) {
        return std::string(op) + " aggs=" + std::to_string(aggs) +
               " node_agg=" + std::to_string(node_agg);
      };
      EXPECT_EQ(write.fabric, want_write.fabric) << tag("write");
      EXPECT_EQ(write.local, want_write.local) << tag("write");

      before = Census{fabric.value(), local.value()};
      mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
        std::vector<CbRange> wants;
        for (const auto& [off, len] : strided_shape(comm.rank(), n)) {
          wants.push_back(CbRange{off, len});
        }
        const ReadFn read_at = [&file, total](std::uint64_t off, std::uint64_t len)
            -> sim::Task<Result<FragmentList>> {
          co_return file.read(off, std::min(len, total - off));
        };
        std::vector<FragmentList> got;
        EXPECT_TRUE((co_await cb_read(comm, cb, wants, read_at, &got)).ok());
      });
      const Census read{fabric.value() - before.fabric, local.value() - before.local};
      const Census want_read = expected_census(node_agg, aggs, /*read=*/true);
      EXPECT_EQ(read.fabric, want_read.fabric) << tag("read");
      EXPECT_EQ(read.local, want_read.local) << tag("read");
    }
  }
}

// --- sieve heuristic unit tests (threshold boundaries) ---

TEST(CbSieve, ZeroThresholdReturnsRunsUnchanged) {
  const std::vector<CbRange> runs = {{0, 100}, {500, 100}, {1000, 100}};
  CbSieveStats stats;
  EXPECT_EQ(cb_sieve_groups(runs, 0.0, &stats), runs);
  EXPECT_EQ(stats.joins, 0u);
  EXPECT_EQ(stats.hole_bytes, 0u);
  EXPECT_EQ(cb_sieve_groups(runs, -1.0), runs);
}

TEST(CbSieve, ExactRatioBoundaryStillJoins) {
  // hole = 100, useful = 200 after the join: ratio exactly 0.5.
  const std::vector<CbRange> runs = {{0, 100}, {200, 100}};
  CbSieveStats stats;
  const auto joined = cb_sieve_groups(runs, 0.5, &stats);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (CbRange{0, 300}));
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_EQ(stats.hole_bytes, 100u);
  // Just below the exact ratio: no join.
  EXPECT_EQ(cb_sieve_groups(runs, 0.4999).size(), 2u);
}

TEST(CbSieve, AllHolesBridgedUnderLargeThreshold) {
  const std::vector<CbRange> runs = {{0, 10}, {1000, 10}, {5000, 10}, {90000, 10}};
  CbSieveStats stats;
  const auto joined = cb_sieve_groups(runs, 1e9, &stats);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], (CbRange{0, 90010}));
  EXPECT_EQ(stats.joins, 3u);
  EXPECT_EQ(stats.hole_bytes, 90010u - 40u);
}

TEST(CbSieve, AccumulatedHolesStopTheGroup) {
  // The middle and last runs would join as a fresh pair (hole 100 <=
  // useful 120 at threshold 1.0), but joining onto the accumulated group
  // would make 290 hole bytes against 220 useful -> the group is cut.
  const std::vector<CbRange> runs = {{0, 100}, {290, 100}, {490, 20}};
  const auto grouped = cb_sieve_groups(runs, 1.0);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0], (CbRange{0, 390}));
  EXPECT_EQ(grouped[1], (CbRange{490, 20}));
  const auto fresh = cb_sieve_groups({{290, 100}, {490, 20}}, 1.0);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(CbSieve, DegenerateInputs) {
  EXPECT_TRUE(cb_sieve_groups({}, 5.0).empty());
  const std::vector<CbRange> one = {{42, 7}};
  EXPECT_EQ(cb_sieve_groups(one, 5.0), one);
}

// End to end: on the holey pattern a high sieve threshold collapses the
// aggregator's operation count, and a zero threshold reproduces list I/O.
TEST(CbSieve, ThresholdCollapsesPfsOperationCount) {
  sim::Engine engine;
  net::Cluster cluster(engine, tiny_cluster());
  const int n = 16;
  std::uint64_t total = 0;
  for (int r = 0; r < n; ++r) {
    for (const auto& [off, len] : noncontig_shape(r, n)) total = std::max(total, off + len);
  }
  pfs::ExtentMap file;
  file.write(0, DataView::pattern(9, 0, total));

  auto ops_with = [&](double threshold) {
    std::uint64_t ops = 0;
    CbConfig cb;
    cb.aggregators = 1;
    cb.sieve_threshold = threshold;
    mpi::run_spmd(cluster, n, [&](mpi::Comm comm) -> sim::Task<void> {
      std::vector<CbRange> wants;
      for (const auto& [off, len] : noncontig_shape(comm.rank(), n)) {
        wants.push_back(CbRange{off, len});
      }
      const ReadFn read_at = [&file, &ops, total](std::uint64_t off, std::uint64_t len)
          -> sim::Task<Result<FragmentList>> {
        ++ops;
        co_return file.read(off, std::min(len, total - off));
      };
      std::vector<FragmentList> got;
      EXPECT_TRUE((co_await cb_read(comm, cb, wants, read_at, &got)).ok());
    });
    return ops;
  };

  const std::uint64_t list_io = ops_with(0.0);
  const std::uint64_t sieved = ops_with(1e9);
  EXPECT_EQ(list_io, static_cast<std::uint64_t>(n) * 16);  // one op per merged run
  EXPECT_LT(sieved, list_io / 16);                         // covering reads
}

}  // namespace
}  // namespace tio::iolib
