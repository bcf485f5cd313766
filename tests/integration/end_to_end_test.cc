// Cross-module integration tests: full checkpoint/restart cycles over the
// simulated stack, failure injection, determinism, and scale smoke tests.
#include <gtest/gtest.h>

#include "plfs/mpiio.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"

namespace tio {
namespace {

using workloads::Access;
using workloads::JobSpec;
using workloads::run_job;

testbed::Rig::Options small_rig(std::size_t mds = 4) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.cluster.nodes = 16;
  o.cluster.cores_per_node = 4;
  o.pfs = testbed::lanl_pfs(mds);
  o.num_subdirs = 8;
  return o;
}

TEST(EndToEnd, CheckpointRestartWithMoreReadersThanWriters) {
  // 16 writers checkpoint N-1; 32 readers restart and each verifies a
  // disjoint slice — the classic "restart on a bigger allocation" case.
  testbed::Rig rig(small_rig());
  JobSpec spec;
  spec.file = "grow";
  spec.ops = workloads::strided_ops(256_KiB, 32_KiB);
  spec.target.access = Access::plfs_n1;
  spec.read_nprocs = 32;
  spec.read_ops = workloads::strided_ops(128_KiB, 32_KiB);
  spec.drop_caches_before_read = true;
  const auto result = run_job(rig, 16, spec);
  EXPECT_GT(result.read.io_s, 0);
  EXPECT_EQ(result.read.bytes, 32u * 128_KiB);
}

TEST(EndToEnd, RestartWithFewerReaders) {
  testbed::Rig rig(small_rig());
  JobSpec spec;
  spec.file = "shrink";
  spec.ops = workloads::strided_ops(128_KiB, 32_KiB);
  spec.target.access = Access::plfs_n1;
  spec.read_nprocs = 8;
  spec.read_ops = workloads::strided_ops(512_KiB, 32_KiB);
  const auto result = run_job(rig, 32, spec);
  EXPECT_EQ(result.read.bytes, 8u * 512_KiB);
}

TEST(EndToEnd, MissingIndexLogSurfacesCleanly) {
  // Simulate a lost index dropping: the read-open must fail with an I/O
  // error, not crash or silently return wrong data.
  testbed::Rig rig(small_rig());
  mpi::run_spmd(rig.cluster(), 8, [&rig](mpi::Comm comm) -> sim::Task<void> {
    auto f = co_await plfs::MpiFile::open_write(rig.plfs(), comm, "/victim");
    EXPECT_TRUE(f.ok());
    EXPECT_TRUE((co_await (*f)->write(comm.rank() * 1000, DataView::zeros(1000))).ok());
    EXPECT_TRUE((co_await (*f)->close_write(false)).ok());
  });
  // Corrupt the container: truncate rank 3's index log to a partial record.
  const auto lay = rig.plfs().layout("/victim");
  mpi::run_spmd(rig.cluster(), 1, [&rig, &lay](mpi::Comm comm) -> sim::Task<void> {
    const pfs::IoCtx ctx{0, 0};
    auto fd = co_await rig.pfs().open(ctx, lay.index_log_path(3), pfs::OpenFlags::wr_trunc());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await rig.pfs().write(ctx, *fd, 0, DataView::zeros(13))).ok());
    EXPECT_TRUE((co_await rig.pfs().close(ctx, *fd)).ok());
    (void)comm;
  });
  // Every rank must come back from the collective open with the error: the
  // rank that read the truncated log and every rank that waited on it.
  int failed = 0;
  mpi::run_spmd(rig.cluster(), 8, [&rig, &failed](mpi::Comm comm) -> sim::Task<void> {
    auto f = co_await plfs::MpiFile::open_read(rig.plfs(), comm, "/victim",
                                               plfs::ReadStrategy::parallel_read);
    EXPECT_FALSE(f.ok()) << "rank " << comm.rank();
    if (!f.ok()) {
      EXPECT_EQ(f.status().code(), Errc::io_error) << "rank " << comm.rank();
      ++failed;
    }
  });
  EXPECT_EQ(failed, 8);
}

TEST(EndToEnd, TruncatedDataLogDetectedOnRead) {
  testbed::Rig rig(small_rig());
  mpi::run_spmd(rig.cluster(), 4, [&rig](mpi::Comm comm) -> sim::Task<void> {
    auto f = co_await plfs::MpiFile::open_write(rig.plfs(), comm, "/short");
    EXPECT_TRUE((co_await (*f)->write(comm.rank() * 4096, DataView::zeros(4096))).ok());
    EXPECT_TRUE((co_await (*f)->close_write(false)).ok());
  });
  const auto lay = rig.plfs().layout("/short");
  mpi::run_spmd(rig.cluster(), 1, [&rig, &lay](mpi::Comm comm) -> sim::Task<void> {
    const pfs::IoCtx ctx{0, 0};
    // Data log claims 4096 bytes in its index but now holds only 100.
    auto fd = co_await rig.pfs().open(ctx, lay.data_log_path(2), pfs::OpenFlags::wr_trunc());
    EXPECT_TRUE((co_await rig.pfs().write(ctx, *fd, 0, DataView::zeros(100))).ok());
    EXPECT_TRUE((co_await rig.pfs().close(ctx, *fd)).ok());
    (void)comm;
  });
  mpi::run_spmd(rig.cluster(), 1, [&rig](mpi::Comm comm) -> sim::Task<void> {
    const pfs::IoCtx ctx{0, 0};
    auto rh = co_await rig.plfs().open_read(ctx, "/short");
    EXPECT_TRUE(rh.ok());
    auto data = co_await (*rh)->read(2 * 4096, 4096);  // writer 2's region
    EXPECT_EQ(data.status().code(), Errc::io_error);
    (void)co_await (*rh)->close();
    (void)comm;
  });
}

TEST(EndToEnd, SimulationIsDeterministic) {
  auto run_once = [] {
    testbed::Rig rig(small_rig());
    JobSpec spec;
    spec.file = "det";
    spec.ops = workloads::strided_ops(256_KiB, 32_KiB);
    spec.target.access = Access::plfs_n1;
    const auto r = run_job(rig, 16, spec);
    return std::make_tuple(r.write.total_s(), r.read.total_s(),
                           rig.engine().events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EndToEnd, OversubscribedJobRuns) {
  // More ranks than cores (the paper ran 2048 streams on 1024 cores).
  testbed::Rig rig(small_rig());
  JobSpec spec;
  spec.file = "over";
  spec.ops = workloads::strided_ops(64_KiB, 32_KiB);
  spec.target.access = Access::plfs_n1;
  const auto r = run_job(rig, 256, spec);  // 256 ranks on 64 cores
  EXPECT_GT(r.write.io_s, 0);
  EXPECT_GT(r.read.io_s, 0);
}

TEST(EndToEnd, MixedWorkloadsShareTheRig) {
  // Two different logical files written by different jobs on one rig; both
  // read back intact (no cross-container bleed).
  testbed::Rig rig(small_rig());
  JobSpec a;
  a.file = "job_a";
  a.ops = workloads::strided_ops(128_KiB, 32_KiB);
  a.target.access = Access::plfs_n1;
  a.do_read = false;
  run_job(rig, 8, a);

  JobSpec b = workloads::lanl3(8, 256_KiB, {.access = Access::plfs_n1});
  b.file = "job_b";
  run_job(rig, 8, b);

  a.do_read = true;
  a.do_write = false;
  const auto result = run_job(rig, 8, a);  // verify=true checks content
  EXPECT_GT(result.read.io_s, 0);
}

TEST(EndToEnd, FlattenedFileStillReadableByParallelStrategy) {
  // The global index is an optimization, not a format change: a file closed
  // with Index Flatten must stay readable via the other strategies.
  testbed::Rig rig(small_rig());
  JobSpec spec;
  spec.file = "both";
  spec.ops = workloads::strided_ops(128_KiB, 32_KiB);
  spec.target.access = Access::plfs_n1;
  spec.target.flatten_on_close = true;
  spec.do_read = false;
  run_job(rig, 8, spec);
  for (const auto strategy : {plfs::ReadStrategy::original, plfs::ReadStrategy::index_flatten,
                              plfs::ReadStrategy::parallel_read}) {
    JobSpec read = spec;
    read.do_write = false;
    read.do_read = true;
    read.target.strategy = strategy;
    const auto r = run_job(rig, 8, read);
    EXPECT_GT(r.read.io_s, 0);
  }
}

}  // namespace
}  // namespace tio
