#include "workloads/harness.h"

#include <gtest/gtest.h>

#include "plfs/container.h"
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

TEST(Harness, DirectN1JobCompletes) {
  testbed::Rig rig(small_rig());
  JobSpec spec = mpiio_test(128_KiB, 32_KiB, TargetOptions{.access = Access::direct_n1});
  const JobResult result = run_job(rig, 4, spec);
  EXPECT_GT(result.write.io_s, 0);
  EXPECT_GT(result.read.io_s, 0);
  // The shared-file ping-pong really happened.
  EXPECT_GT(rig.pfs().stats().lock_transfers, 0u);
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
