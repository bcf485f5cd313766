#include "workloads/metadata.h"

#include <stdexcept>

#include "common/strutil.h"
#include "mpisim/comm.h"
#include "plfs/plfs.h"

namespace tio::workloads {

namespace {

[[noreturn]] void storm_failed(const std::string& what, const Status& status) {
  throw std::runtime_error("metadata storm " + what + ": " + status.to_string());
}

}  // namespace

MetaResult run_metadata_storm(testbed::Rig& rig, int nprocs, const MetaSpec& spec) {
  MetaResult result;
  // Pre-create the logical directory out-of-band (not part of the storm).
  for (const auto& b : rig.mount().backends) {
    (void)rig.pfs().ns().mkdir_all(path_join(b, spec.dir));
  }
  (void)rig.pfs().ns().mkdir_all(path_join(rig.direct_dir(), spec.dir));

  mpi::run_spmd(rig.cluster(), nprocs, [&](mpi::Comm comm) -> sim::Task<void> {
    const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
    sim::Engine& engine = comm.engine();
    std::vector<std::unique_ptr<plfs::WriteHandle>> plfs_handles;
    std::vector<pfs::FileId> direct_fds;
    pfs::FsClient& direct = rig.direct_fs();

    co_await comm.barrier();
    const TimePoint t0 = engine.now();
    for (int i = 0; i < spec.files_per_proc; ++i) {
      if (spec.use_plfs) {
        // N-N: unique container per (rank, i). N-1: one shared container,
        // each process its own writer rank.
        // (The path is built in a lambda, so it is no temporary of this
        // frame, which is live on every rank through the whole storm.)
        auto wh = co_await [&] {
          return rig.plfs().open_write(
              ctx,
              spec.shared_file ? "/" + spec.dir + "/shared"
                               : str_printf("/%s/f%d_%d", spec.dir.c_str(), comm.rank(), i),
              spec.shared_file ? comm.rank() : 0);
        }();
        if (!wh.ok()) storm_failed("plfs open", wh.status());
        plfs_handles.push_back(std::move(wh.value()));
        continue;
      }
      // Direct N-1: rank 0 creates the shared file while the others wait
      // at a barrier, then every later open is a plain open. Direct N-N:
      // every create lands in the single shared directory.
      const bool first_shared = spec.shared_file && i == 0;
      const bool create = !spec.shared_file || (first_shared && comm.rank() == 0);
      if (first_shared && comm.rank() != 0) co_await comm.barrier();
      auto fd = co_await [&] {
        return direct.open(
            ctx,
            path_join(rig.direct_dir(),
                      spec.shared_file ? spec.dir + "/shared"
                                       : str_printf("%s/f%d_%d", spec.dir.c_str(), comm.rank(), i)),
            create ? pfs::OpenFlags::wr_trunc() : pfs::OpenFlags::wr());
      }();
      if (!fd.ok()) storm_failed(create ? "direct create" : "direct open", fd.status());
      direct_fds.push_back(*fd);
      if (first_shared && comm.rank() == 0) co_await comm.barrier();
    }
    co_await comm.barrier();
    const TimePoint t1 = engine.now();

    for (auto& wh : plfs_handles) {
      const Status st = co_await wh->close();
      if (!st.ok()) storm_failed("plfs close", st);
    }
    for (const auto fd : direct_fds) {
      const Status st = co_await direct.close(ctx, fd);
      if (!st.ok()) storm_failed("direct close", st);
    }
    co_await comm.barrier();
    const TimePoint t2 = engine.now();

    if (comm.rank() == 0) {
      result.open_s = (t1 - t0).to_seconds();
      result.close_s = (t2 - t1).to_seconds();
    }
  });
  return result;
}

}  // namespace tio::workloads
