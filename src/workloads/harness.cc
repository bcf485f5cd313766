#include "workloads/harness.h"

#include <stdexcept>

#include "common/trace.h"

namespace tio::workloads {

std::uint64_t total_bytes(const OpGen& gen, int nprocs) {
  std::uint64_t total = 0;
  for (int r = 0; r < nprocs; ++r) {
    for (const auto& op : gen(r, nprocs)) total += op.len;
  }
  return total;
}

namespace {

[[noreturn]] void fail(const std::string& what, const Status& status) {
  throw std::runtime_error("workload " + what + " failed: " + status.to_string());
}

// One bulk-synchronous phase: barrier, open, barrier, body, barrier, close
// (collective). Rank 0 records the three segment times.
sim::Task<void> run_phase(TargetFactory& factory, mpi::Comm comm, const JobSpec& spec,
                          bool writing, PhaseTimes* out) {
  sim::Engine& engine = comm.engine();
  co_await comm.barrier();
  const TimePoint t0 = engine.now();

  // Barrier-to-barrier phase spans on every rank: each matches the reported
  // segment times (which rank 0 records below) to within the final barrier's
  // skew, so a trace consumer can cross-check per-phase sums against them.
  // The open span is named by direction: a read-mode open runs the index
  // aggregation whose plfs.open.* phases tooling (tools/check_trace.py)
  // reconciles against this window, a write-mode open runs the create path.
  static const trace::SpanSite kOpenWriteSite("harness", "harness.open_write");
  static const trace::SpanSite kOpenReadSite("harness", "harness.open_read");
  static const trace::SpanSite kIoSite("harness", "harness.io");
  static const trace::SpanSite kCloseSite("harness", "harness.close");
  trace::Span open_span(engine, writing ? kOpenWriteSite : kOpenReadSite, comm.global_rank());

  // NOTE: deliberately not a conditional expression around co_await — GCC 12
  // destroys the awaited temporary too early in that construct.
  std::unique_ptr<Target> target;
  if (writing) {
    auto opened = co_await factory.open_write(comm, spec.file, spec.target);
    if (!opened.ok()) fail("open_write", opened.status());
    target = std::move(opened.value());
  } else {
    auto opened = co_await factory.open_read(comm, spec.file, spec.target);
    if (!opened.ok()) fail("open_read", opened.status());
    target = std::move(opened.value());
  }
  co_await comm.barrier();
  const TimePoint t1 = engine.now();
  open_span.end();
  trace::Span io_span(engine, kIoSite, comm.global_rank());

  const PhaseFn& custom = writing ? spec.write_fn : spec.read_fn;
  if (custom) {
    const Status st = co_await custom(comm, *target);
    if (!st.ok()) fail("custom phase", st);
  } else {
    const OpGen& gen = (!writing && spec.read_ops) ? spec.read_ops : spec.ops;
    for (const auto& op : gen(comm.rank(), comm.size())) {
      if (writing) {
        const Status st =
            co_await target->write(op.offset, DataView::pattern(spec.seed, op.offset, op.len));
        if (!st.ok()) fail("write", st);
      } else {
        auto data = co_await target->read(op.offset, op.len);
        if (!data.ok()) fail("read", data.status());
        if (data->size() != op.len) {
          fail("read", error(Errc::io_error, "short read"));
        }
        if (spec.verify &&
            !data->content_equals(DataView::pattern(spec.seed, op.offset, op.len))) {
          fail("verify", error(Errc::io_error, "content mismatch"));
        }
      }
    }
  }
  co_await comm.barrier();
  const TimePoint t2 = engine.now();
  io_span.end();
  trace::Span close_span(engine, kCloseSite, comm.global_rank());

  const Status st = co_await target->close();  // collective
  if (!st.ok()) fail("close", st);
  const TimePoint t3 = engine.now();
  close_span.end();

  if (comm.rank() == 0 && out != nullptr) {
    out->open_s = (t1 - t0).to_seconds();
    out->io_s = (t2 - t1).to_seconds();
    out->close_s = (t3 - t2).to_seconds();
  }
}

}  // namespace

JobResult run_job(testbed::Rig& rig, int nprocs, const JobSpec& spec) {
  TargetFactory factory(rig.plfs(), rig.direct_fs(), rig.direct_dir());
  JobResult result;
  const std::uint64_t bytes =
      spec.bytes_override > 0 ? spec.bytes_override : (spec.ops ? total_bytes(spec.ops, nprocs) : 0);

  if (spec.do_write) {
    mpi::run_spmd(rig.cluster(), nprocs, [&](mpi::Comm comm) -> sim::Task<void> {
      co_await run_phase(factory, std::move(comm), spec, /*writing=*/true, &result.write);
    });
    result.write.bytes = bytes;
  }
  if (spec.do_read) {
    if (spec.drop_caches_before_read) rig.pfs().drop_caches();
    const int readers = spec.read_nprocs > 0 ? spec.read_nprocs : nprocs;
    const std::uint64_t read_bytes =
        spec.bytes_override > 0
            ? spec.bytes_override
            : total_bytes(spec.read_ops ? spec.read_ops : spec.ops, readers);
    mpi::run_spmd(rig.cluster(), readers, [&](mpi::Comm comm) -> sim::Task<void> {
      co_await run_phase(factory, std::move(comm), spec, /*writing=*/false, &result.read);
    });
    result.read.bytes = read_bytes;
  }
  return result;
}

}  // namespace tio::workloads
