#include "workloads/harness.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "plfs/container.h"
#include "sim/frame_pool.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

namespace tio::workloads {
namespace {

testbed::Rig::Options small_rig(std::size_t mds = 2) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.cluster.nodes = 8;
  // Two cores per node so even small test jobs span nodes (cross-node
  // writers are what the shared-file lock model penalizes).
  o.cluster.cores_per_node = 2;
  o.pfs = testbed::lanl_pfs(mds);
  o.num_subdirs = 8;
  return o;
}

TEST(OpGens, StridedCoversDisjointInterleavedOffsets) {
  const auto gen = strided_ops(4096, 1024);
  const auto r0 = gen(0, 4);
  const auto r3 = gen(3, 4);
  ASSERT_EQ(r0.size(), 4u);
  EXPECT_EQ(r0[0].offset, 0u);
  EXPECT_EQ(r0[1].offset, 4096u);
  EXPECT_EQ(r3[0].offset, 3 * 1024u);
  EXPECT_EQ(total_bytes(gen, 4), 4u * 4096);
}

TEST(OpGens, SegmentedIsContiguousPerRank) {
  const auto gen = segmented_ops(4096, 1024);
  const auto r2 = gen(2, 4);
  EXPECT_EQ(r2[0].offset, 2u * 4096);
  EXPECT_EQ(r2[3].offset, 2u * 4096 + 3 * 1024);
  EXPECT_EQ(total_bytes(gen, 4), 4u * 4096);
}

TEST(Harness, PlfsN1WriteReadJobCompletesAndTimes) {
  testbed::Rig rig(small_rig());
  JobSpec spec = mpiio_test(256_KiB, 32_KiB, TargetOptions{.access = Access::plfs_n1});
  const JobResult result = run_job(rig, 8, spec);
  EXPECT_GT(result.write.io_s, 0);
  EXPECT_GT(result.write.open_s, 0);
  EXPECT_GT(result.write.close_s, 0);
  EXPECT_EQ(result.write.bytes, 8u * 256_KiB);
  EXPECT_GT(result.read.total_s(), 0);
  EXPECT_GT(result.write.effective_bw(), 0);
}

// Coroutine frames per record op on the PLFS N-1 path, a deterministic
// work count. The marginal FramePool allocations between two jobs that
// differ only in records per rank price one record write (Target ->
// WriteHandle -> retry -> SimPfs -> data path) and one record read (Target
// -> ReadHandle -> retry -> SimPfs -> data path), open, close and index
// work cancelling out. A pass-through layer (a coroutine whose body only
// awaits the layer below) costs one more frame per op, so restoring any
// of the removed ones breaks the bounds.
TEST(FrameBudget, PlfsN1RecordWriteAndRead) {
  // Measured: 8 per write plus a lock grant every 32 records (a 1 MiB lock
  // range of 32 KiB records), and 6 per read; 11 and 10 before the
  // pass-through layers went.
  constexpr double kWriteFrames = 8.05;
  constexpr double kReadFrames = 6.0;
  constexpr int kProcs = 8;
  constexpr std::uint64_t kFew = 8;
  constexpr std::uint64_t kMany = 40;
  const auto frames = [] {
    const sim::FramePool::Stats s = sim::FramePool::stats();
    return s.hits + s.misses;
  };
  // Frames of a write-only job, then of a read-only job on its file.
  const auto job_frames = [&](std::uint64_t records) {
    testbed::Rig rig(small_rig());
    JobSpec spec = mpiio_test(records * 32_KiB, 32_KiB, TargetOptions{.access = Access::plfs_n1});
    spec.do_read = false;
    const std::uint64_t before = frames();
    run_job(rig, kProcs, spec);
    const std::uint64_t written = frames();
    spec.do_write = false;
    spec.do_read = true;
    spec.drop_caches_before_read = true;  // a cold restart: reads reach the data path
    run_job(rig, kProcs, spec);
    return std::pair{written - before, frames() - written};
  };
  const auto [write_few, read_few] = job_frames(kFew);
  const auto [write_many, read_many] = job_frames(kMany);
  const double ops = static_cast<double>((kMany - kFew) * kProcs);
  const double per_write = static_cast<double>(write_many - write_few) / ops;
  const double per_read = static_cast<double>(read_many - read_few) / ops;
  EXPECT_LE(per_write, kWriteFrames) << "frames per record write";
  EXPECT_LE(per_read, kReadFrames) << "frames per record read";
}

// Coroutine frames per PLFS N-N create plus close (Plfs::open_write and
// WriteHandle::close of a fresh container), measured like the record
// budget above: the marginal frames between two metadata storms that differ
// only in files per rank. Every backend op of the create sequence goes
// through the retry decorator, which returns the retry loop's task itself;
// a wrapper coroutine per op would add one frame to each of them.
TEST(FrameBudget, PlfsNnCreateAndClose) {
  // Measured: 137.9 (159.5 with a wrapper coroutine per retried op).
  constexpr double kCreateFrames = 138.0;
  constexpr int kProcs = 8;
  constexpr int kFew = 4;
  constexpr int kMany = 20;
  const auto storm_frames = [](int files) {
    testbed::Rig rig(small_rig());
    const sim::FramePool::Stats before = sim::FramePool::stats();
    run_metadata_storm(rig, kProcs, MetaSpec{.files_per_proc = files});
    const sim::FramePool::Stats after = sim::FramePool::stats();
    return (after.hits + after.misses) - (before.hits + before.misses);
  };
  const double per_create = static_cast<double>(storm_frames(kMany) - storm_frames(kFew)) /
                            ((kMany - kFew) * kProcs);
  EXPECT_LE(per_create, kCreateFrames) << "frames per create + close";
}

// The state a simulation keeps grows with what it touches. Fig. 8a's read
// rig (Cielo, direct N-N, 4 MiB per proc in 256 KiB records) runs at 256,
// 512 and 1,024 procs; held lock ranges, fd-table slots and interned paths
// may grow at most 2.1x per doubling. Direct N-N writes file k at rank k's
// N-1 offset, so a lock table indexed by absolute range grows ~4x here.
TEST(GrowthLaw, Fig8ReadRigStateIsLinearInProcs) {
  struct State {
    std::size_t lock_ranges;
    std::size_t fd_slots;
    std::size_t paths;
  };
  const auto run = [](int procs) {
    testbed::Rig::Options o;
    o.cluster = testbed::cielo();
    o.pfs = testbed::cielo_pfs(10);
    testbed::Rig rig(std::move(o));
    JobSpec spec;
    spec.file = "big";
    spec.ops = segmented_ops(4_MiB, 256_KiB);
    spec.target.access = Access::direct_nn;
    spec.drop_caches_before_read = true;
    run_job(rig, procs, spec);
    pfs::SimPfs& fs = rig.pfs();
    return State{fs.lock_ranges_held(), fs.open_file_slots(), fs.ns().interned()};
  };
  constexpr double kPerDoubling = 2.1;
  State prev = run(256);
  ASSERT_GT(prev.lock_ranges, 0u);
  for (const int procs : {512, 1024}) {
    const State cur = run(procs);
    EXPECT_LE(cur.lock_ranges, prev.lock_ranges * kPerDoubling) << procs << " procs";
    EXPECT_LE(cur.fd_slots, prev.fd_slots * kPerDoubling) << procs << " procs";
    EXPECT_LE(cur.paths, prev.paths * kPerDoubling) << procs << " procs";
    prev = cur;
  }
}

TEST(Harness, DirectN1JobCompletes) {
  testbed::Rig rig(small_rig());
  JobSpec spec = mpiio_test(128_KiB, 32_KiB, TargetOptions{.access = Access::direct_n1});
  const JobResult result = run_job(rig, 4, spec);
  EXPECT_GT(result.write.io_s, 0);
  EXPECT_GT(result.read.io_s, 0);
  // The shared-file ping-pong really happened.
  EXPECT_GT(rig.pfs().stats().lock_transfers, 0u);
}

// A step that fails on every rank aborts the job with an exception naming
// the step; no rank is left waiting in a collective.
TEST(Harness, FailedStepThrowsNamingIt) {
  testbed::Rig rig(small_rig());
  JobSpec spec = mpiio_test(64_KiB, 32_KiB, TargetOptions{.access = Access::plfs_n1});
  spec.file = "never_written";
  spec.do_write = false;
  try {
    run_job(rig, 4, spec);
    ADD_FAILURE() << "reading a file that was never written succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("workload open_read failed"), std::string::npos)
        << e.what();
  }
}

std::uint64_t family_total(std::string_view family) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counter_snapshot(family)) total += value;
  return total;
}

TEST(DirectFault, StridedN1WriteAndVerifiedReadSurviveTransientFaults) {
  testbed::Rig::Options o = small_rig();
  o.fault_plan = pfs::FaultPlan::parse("io=0.02,torn=0.05").value();
  testbed::Rig rig(o);
  const std::uint64_t plfs_before = family_total("plfs.retry");
  const std::uint64_t attempts_before = counter("direct.retry.attempts").value();
  const std::uint64_t resumed_before = counter("direct.retry.short_write_resumed").value();
  const std::uint64_t faults_before = counter("plfs.fault.io_error").value();
  JobSpec spec = mpiio_test(256_KiB, 16_KiB, TargetOptions{.access = Access::direct_n1});
  ASSERT_TRUE(spec.verify);
  // run_job throws on any failed op and on any read that does not match
  // the written pattern byte for byte.
  const JobResult result = run_job(rig, 8, spec);
  EXPECT_EQ(result.write.bytes, 8u * 256_KiB);
  EXPECT_EQ(result.read.bytes, 8u * 256_KiB);
  EXPECT_GT(counter("plfs.fault.io_error").value(), faults_before);
  EXPECT_GT(counter("direct.retry.attempts").value(), attempts_before);
  EXPECT_GT(counter("direct.retry.short_write_resumed").value(), resumed_before);
  // The direct legs never touch the PLFS retry family.
  EXPECT_EQ(family_total("plfs.retry"), plfs_before);
}

TEST(Harness, NnModesCompleteForBothTargets) {
  for (const Access access : {Access::plfs_nn, Access::direct_nn}) {
    testbed::Rig rig(small_rig());
    JobSpec spec;
    spec.file = "nn";
    spec.ops = segmented_ops(128_KiB, 32_KiB);
    spec.target.access = access;
    const JobResult result = run_job(rig, 4, spec);
    EXPECT_GT(result.write.io_s, 0) << access_name(access);
    EXPECT_GT(result.read.total_s(), 0) << access_name(access);
  }
}

TEST(Harness, PlfsBeatsDirectOnStridedN1Writes) {
  // The paper's core result at miniature scale.
  testbed::Rig rig_plfs(small_rig());
  testbed::Rig rig_direct(small_rig());
  const JobSpec plfs_spec = mpiio_test(512_KiB, 32_KiB, {.access = Access::plfs_n1});
  const JobSpec direct_spec = mpiio_test(512_KiB, 32_KiB, {.access = Access::direct_n1});
  const double plfs_io = run_job(rig_plfs, 16, plfs_spec).write.io_s;
  const double direct_io = run_job(rig_direct, 16, direct_spec).write.io_s;
  EXPECT_LT(plfs_io * 2, direct_io);
}

TEST(Harness, ReadCanUseDifferentProcessCount) {
  testbed::Rig rig(small_rig());
  JobSpec spec;
  spec.file = "restart";
  spec.ops = strided_ops(128_KiB, 32_KiB);
  spec.target.access = Access::plfs_n1;
  spec.read_nprocs = 8;
  // Read pattern must be defined for 8 readers over the 4-writer file: the
  // strided generator tiles by reader count, so give readers half as much.
  spec.read_ops = strided_ops(64_KiB, 32_KiB);
  const JobResult result = run_job(rig, 4, spec);
  EXPECT_EQ(result.read.bytes, 8u * 64_KiB);
  EXPECT_GT(result.read.io_s, 0);
}

TEST(Harness, DropCachesMakesReadsSlower) {
  auto run_with = [&](bool drop) {
    testbed::Rig rig(small_rig());
    JobSpec spec = mpiio_test(512_KiB, 64_KiB, {.access = Access::plfs_n1});
    spec.drop_caches_before_read = drop;
    return run_job(rig, 8, spec).read.io_s;
  };
  EXPECT_GT(run_with(true), run_with(false) * 1.5);
}

TEST(Kernels, PixieRoundTripsThroughTinyNc) {
  testbed::Rig rig(small_rig());
  const JobSpec spec = pixie3d(8, 512_KiB, 4, {.access = Access::plfs_n1});
  const JobResult result = run_job(rig, 8, spec);
  EXPECT_GT(result.write.io_s, 0);
  EXPECT_GT(result.read.io_s, 0);
  EXPECT_GT(result.write.bytes, 8u * 512_KiB);  // includes the header
}

TEST(Kernels, AramcoRoundTripsThroughTinyHdf) {
  testbed::Rig rig(small_rig());
  const JobSpec spec = aramco(4, 2_MiB, 256_KiB, {.access = Access::plfs_n1});
  const JobResult result = run_job(rig, 4, spec);
  EXPECT_GT(result.write.io_s, 0);
  EXPECT_GT(result.read.io_s, 0);
}

TEST(Kernels, AramcoIsStrongScaling) {
  // Same dataset at different process counts: total bytes identical.
  const JobSpec a = aramco(4, 4_MiB, 256_KiB, {.access = Access::plfs_n1});
  const JobSpec b = aramco(16, 4_MiB, 256_KiB, {.access = Access::plfs_n1});
  EXPECT_EQ(a.bytes_override, b.bytes_override);
}

TEST(Kernels, MadbenchAndLanl1Complete) {
  testbed::Rig rig(small_rig());
  const JobResult mad = run_job(rig, 4, madbench(256_KiB, 2, {.access = Access::plfs_n1}));
  EXPECT_GT(mad.read.io_s, 0);
  testbed::Rig rig2(small_rig());
  const JobResult l1 = run_job(rig2, 4, lanl1(1000000, {.access = Access::plfs_n1}));
  EXPECT_EQ(l1.write.bytes, 4u * 1000000);
  EXPECT_GT(l1.read.io_s, 0);
}

TEST(Kernels, Lanl3UsesCollectiveBufferingAndVerifies) {
  testbed::Rig rig(small_rig());
  const JobSpec spec = lanl3(8, 1_MiB, {.access = Access::plfs_n1});
  const JobResult result = run_job(rig, 8, spec);
  EXPECT_EQ(result.write.bytes, 1_MiB);
  EXPECT_GT(result.read.io_s, 0);
  // With cb, only aggregators wrote: every rank opened a data log in the
  // shared PLFS container, but only the aggregators' logs hold bytes. The
  // default is one aggregator per cores_per_node ranks: 8 / 2 = 4.
  const plfs::ContainerLayout layout(rig.mount(), "/lanl3");
  int written_logs = 0;
  for (int rank = 0; rank < 8; ++rank) {
    const auto entry = rig.pfs().ns().lookup(layout.data_log_path(rank));
    ASSERT_TRUE(entry.ok()) << "rank " << rank;
    const pfs::ExtentMap* data = rig.pfs().object_extents(entry->oid);
    if (data != nullptr && data->extent_count() > 0) ++written_logs;
  }
  EXPECT_EQ(written_logs, 8 / static_cast<int>(small_rig().cluster.cores_per_node));
}

TEST(Kernels, Lanl3OnDirectTargetAlsoVerifies) {
  testbed::Rig rig(small_rig());
  const JobSpec spec = lanl3(4, 512_KiB, {.access = Access::direct_n1});
  const JobResult result = run_job(rig, 4, spec);
  EXPECT_GT(result.read.io_s, 0);
}

TEST(MetadataStorm, NnPlfsAndDirectComplete) {
  testbed::Rig rig(small_rig(4));
  MetaSpec spec;
  spec.files_per_proc = 4;
  spec.use_plfs = true;
  const MetaResult plfs = run_metadata_storm(rig, 8, spec);
  EXPECT_GT(plfs.open_s, 0);
  EXPECT_GT(plfs.close_s, 0);
  testbed::Rig rig2(small_rig(4));
  spec.use_plfs = false;
  const MetaResult direct = run_metadata_storm(rig2, 8, spec);
  EXPECT_GT(direct.open_s, 0);
}

TEST(MetadataStorm, FailedCreateThrowsNamingIt) {
  testbed::Rig rig(small_rig(2));
  MetaSpec spec;
  spec.dir = "blocked";
  spec.use_plfs = false;
  // A file where the storm's directory should be: every create fails.
  ASSERT_TRUE(rig.pfs().ns().mkdir_all(rig.direct_dir()).ok());
  ASSERT_TRUE(rig.pfs().ns().create_file(rig.direct_dir() + "/blocked", true).ok());
  try {
    run_metadata_storm(rig, 4, spec);
    ADD_FAILURE() << "creates under a plain file succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("metadata storm direct create"), std::string::npos)
        << e.what();
  }
}

TEST(MetadataStorm, MoreMdsReducesPlfsOpenTime) {
  auto open_time = [](std::size_t mds) {
    testbed::Rig rig(small_rig(mds));
    MetaSpec spec;
    spec.files_per_proc = 8;
    spec.use_plfs = true;
    return run_metadata_storm(rig, 16, spec).open_s;
  };
  const double one = open_time(1);
  const double eight = open_time(8);
  EXPECT_GT(one, eight * 2);
}

TEST(MetadataStorm, N1SharedFileStormCompletes) {
  testbed::Rig rig(small_rig(2));
  MetaSpec spec;
  spec.shared_file = true;
  spec.use_plfs = true;
  const MetaResult plfs = run_metadata_storm(rig, 16, spec);
  EXPECT_GT(plfs.open_s, 0);
  testbed::Rig rig2(small_rig(2));
  spec.use_plfs = false;
  const MetaResult direct = run_metadata_storm(rig2, 16, spec);
  EXPECT_GT(direct.open_s, 0);
  // Direct N-1 open is one create + N-1 opens: far lighter than building
  // PLFS containers.
  EXPECT_GT(plfs.open_s, direct.open_s);
}

}  // namespace
}  // namespace tio::workloads
