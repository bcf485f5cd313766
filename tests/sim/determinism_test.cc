// Determinism regression for the engine hot path: a fig. 4-shaped N-1
// strided PLFS job at 4096 ranks must produce bit-identical results across
// runs — same event count, same virtual end time, same phase times, same
// byte volumes. The event queue's (time, sequence) ordering contract is
// what makes this hold; any change that reorders same-time events (heap
// layout, the now_-FIFO fast path, waiter-list order) breaks this test.
//
// The cross-shard matrix below additionally pins the sharding contract:
// spreading independent simulations across a ShardPool must not change any
// simulated result at any shard count, and every shard count must be
// bit-reproducible run to run, and the exported trace must be
// byte-identical at every shard count. TIO_MATRIX_RANKS shrinks the rig for
// slow instrumented builds (TSan CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/trace.h"
#include "pfs/faulty_fs.h"
#include "sim/sharded.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

namespace tio::workloads {
namespace {

constexpr int kRanks = 4096;

struct Outcome {
  std::uint64_t events;
  std::int64_t end_ns;
  PhaseTimes write;
  PhaseTimes read;
};

Outcome run_once() {
  testbed::Rig::Options opts;
  opts.cluster = testbed::lanl_cluster();
  opts.pfs = testbed::lanl_pfs();
  testbed::Rig rig(opts);

  JobSpec spec;
  spec.file = "determinism";
  spec.ops = strided_ops(/*bytes_per_proc=*/64 << 10, /*record=*/16 << 10);
  spec.target.access = Access::plfs_n1;
  const JobResult result = run_job(rig, kRanks, spec);
  return Outcome{rig.engine().events_processed(), rig.engine().now().to_ns(),
                 result.write, result.read};
}

void expect_identical(const PhaseTimes& a, const PhaseTimes& b) {
  // Exact equality on purpose: virtual time is discrete, so reproducible
  // runs match to the bit, not to a tolerance.
  EXPECT_EQ(a.open_s, b.open_s);
  EXPECT_EQ(a.io_s, b.io_s);
  EXPECT_EQ(a.close_s, b.close_s);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Determinism, Fig4ShapedJobIsBitReproducible) {
  const Outcome a = run_once();
  const Outcome b = run_once();

  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_ns, b.end_ns);
  expect_identical(a.write, b.write);
  expect_identical(a.read, b.read);

  // Sanity: the job actually ran at scale and moved the expected volume.
  EXPECT_GT(a.events, static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(a.write.bytes, static_cast<std::uint64_t>(kRanks) * (64 << 10));
  EXPECT_GT(a.end_ns, 0);
}

// ---------------------------------------------------------------------------
// Cross-shard matrix: fig. 8-shaped cells (Cielo rig, N-1 I/O plus an N-N
// metadata storm) and a LANL 3-shaped collective-buffering cell run through
// a ShardPool at shards in {1, 2, 4, 8}. The collective cell keeps the
// communicator-wide caches (split partitions, request-group layouts) under
// the same contract.

int matrix_ranks() {
  if (const char* env = std::getenv("TIO_MATRIX_RANKS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return kRanks;
}

struct MatrixOutcome {
  std::uint64_t events = 0;
  std::int64_t end_ns = 0;
  PhaseTimes write = {};
  PhaseTimes read = {};
  double open_s = 0;
  double close_s = 0;
};

testbed::Rig::Options cielo_opts(const pfs::FaultPlan& plan) {
  testbed::Rig::Options opts;
  opts.cluster = testbed::cielo();
  opts.pfs = testbed::cielo_pfs(10);
  opts.fault_plan = plan;
  return opts;
}

MatrixOutcome io_cell(Access access, int ranks, const pfs::FaultPlan& plan) {
  testbed::Rig rig(cielo_opts(plan));
  JobSpec spec;
  spec.file = "matrix";
  spec.ops = strided_ops(/*bytes_per_proc=*/64 << 10, /*record=*/16 << 10);
  spec.target.access = access;
  const JobResult result = run_job(rig, ranks, spec);
  return MatrixOutcome{rig.engine().events_processed(), rig.engine().now().to_ns(),
                       result.write, result.read, 0, 0};
}

MatrixOutcome storm_cell(int ranks, const pfs::FaultPlan& plan) {
  testbed::Rig rig(cielo_opts(plan));
  MetaSpec spec;
  spec.files_per_proc = 4;
  spec.use_plfs = true;
  const MetaResult r = run_metadata_storm(rig, std::min(ranks, 256), spec);
  return MatrixOutcome{rig.engine().events_processed(), rig.engine().now().to_ns(),
                       PhaseTimes{}, PhaseTimes{}, r.open_s, r.close_s};
}

MatrixOutcome cb_cell(int ranks, const pfs::FaultPlan& plan) {
  testbed::Rig rig(cielo_opts(plan));
  TargetOptions target;
  target.access = Access::plfs_n1;
  iolib::CbConfig cb;
  cb.node_aggregation = true;
  const JobResult result =
      run_job(rig, ranks, lanl3(ranks, static_cast<std::uint64_t>(ranks) * (16 << 10), target, cb));
  return MatrixOutcome{rig.engine().events_processed(), rig.engine().now().to_ns(),
                       result.write, result.read, 0, 0};
}

// Runs every cell through a pool with the given shard count. Each cell is an
// independent rig, so the results must not depend on placement.
std::vector<MatrixOutcome> run_matrix(std::size_t shards, int ranks,
                                      const pfs::FaultPlan& plan) {
  std::vector<MatrixOutcome> out(4);
  sim::ShardPool pool(shards);
  pool.submit([&out, ranks, &plan] { out[0] = io_cell(Access::direct_n1, ranks, plan); });
  pool.submit([&out, ranks, &plan] { out[1] = io_cell(Access::plfs_n1, ranks, plan); });
  pool.submit([&out, ranks, &plan] { out[2] = storm_cell(ranks, plan); });
  pool.submit([&out, ranks, &plan] { out[3] = cb_cell(ranks, plan); });
  pool.run_all();
  return out;
}

void expect_matrix_identical(const std::vector<MatrixOutcome>& a,
                             const std::vector<MatrixOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a[i].events, b[i].events);
    EXPECT_EQ(a[i].end_ns, b[i].end_ns);
    expect_identical(a[i].write, b[i].write);
    expect_identical(a[i].read, b[i].read);
    EXPECT_EQ(a[i].open_s, b[i].open_s);
    EXPECT_EQ(a[i].close_s, b[i].close_s);
  }
}

TEST(Determinism, CrossShardMatrixMatchesSerialBaseline) {
  const pfs::FaultPlan no_faults = {};
  const int ranks = matrix_ranks();
  // shards=1: the same pool path on the calling thread, the baseline.
  const std::vector<MatrixOutcome> baseline = run_matrix(1, ranks, no_faults);
  EXPECT_GT(baseline[0].events, static_cast<std::uint64_t>(ranks));
  EXPECT_GT(baseline[2].open_s, 0.0);
  EXPECT_EQ(baseline[3].write.bytes, static_cast<std::uint64_t>(ranks) * (16 << 10));

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::vector<MatrixOutcome> sharded = run_matrix(shards, ranks, no_faults);
    expect_matrix_identical(baseline, sharded);
    // Bit-reproducible at this shard count, not just equal to serial.
    const std::vector<MatrixOutcome> again = run_matrix(shards, ranks, no_faults);
    expect_matrix_identical(sharded, again);
  }
}

TEST(Determinism, ChaosStressPlanReproducibleAtFourShards) {
  // The fault_test stress preset: transient errors, latency spikes, torn
  // writes, outage windows. Faults are drawn from seeded per-rig streams,
  // so sharding must not perturb them.
  auto plan = pfs::FaultPlan::parse("stress,seed=303");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const int ranks = std::min(matrix_ranks(), 512);

  const std::vector<MatrixOutcome> serial = run_matrix(1, ranks, plan.value());
  const std::vector<MatrixOutcome> a = run_matrix(4, ranks, plan.value());
  const std::vector<MatrixOutcome> b = run_matrix(4, ranks, plan.value());
  expect_matrix_identical(serial, a);
  expect_matrix_identical(a, b);
}

// Traced fig. 4-shaped rows (one LANL rig per stream count: N-1 strided
// PLFS write, then a Parallel Index Read) through a pool of `shards`;
// returns the exported trace document.
std::string traced_fig4_rows(std::size_t shards) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  sim::ShardPool pool(shards);
  for (const int ranks : {16, 32, 48, 64}) {
    pool.submit([ranks] {
      testbed::Rig::Options opts;
      opts.cluster = testbed::lanl_cluster();
      opts.pfs = testbed::lanl_pfs();
      testbed::Rig rig(opts);
      JobSpec spec;
      spec.file = "traced";
      spec.ops = strided_ops(/*bytes_per_proc=*/16 << 10, /*record=*/4 << 10);
      spec.target.access = Access::plfs_n1;
      run_job(rig, ranks, spec);
    });
  }
  pool.run_all();
  std::string json = tracer.to_chrome_json();
  tracer.set_enabled(false);
  tracer.clear();
  return json;
}

TEST(Determinism, TracedFig4RowsExportIdenticalTracesAcrossShards) {
  const std::string serial = traced_fig4_rows(1);
  EXPECT_NE(serial.find("\"harness.open_read\""), std::string::npos);
  EXPECT_NE(serial.find("\"plfs.open.index_read\""), std::string::npos);
  EXPECT_EQ(traced_fig4_rows(4), serial);
}

}  // namespace
}  // namespace tio::workloads
