#include "workloads/target.h"

#include "common/rng.h"
#include "common/strutil.h"

namespace tio::workloads {

using pfs::IoCtx;
using pfs::OpenFlags;

std::string_view access_name(Access access) {
  switch (access) {
    case Access::plfs_n1: return "plfs-n1";
    case Access::plfs_nn: return "plfs-nn";
    case Access::direct_n1: return "direct-n1";
    case Access::direct_nn: return "direct-nn";
  }
  return "?";
}

std::string TargetFactory::plfs_path(const std::string& name, Access access, int rank) const {
  return access == Access::plfs_n1 ? "/" + name : str_printf("/%s.%d", name.c_str(), rank);
}

std::string TargetFactory::direct_path(const std::string& name, Access access, int rank) const {
  const std::string base = path_join(direct_dir_, name);
  return access == Access::direct_n1 ? base : str_printf("%s.%d", base.c_str(), rank);
}

namespace {

// Per-op client think time: desynchronizes the lock-step op streams the
// synthetic generators would otherwise produce.
class JitterBase : public Target {
 protected:
  JitterBase(sim::Engine& engine, Duration jitter, std::uint64_t stream)
      : engine_(&engine), jitter_(jitter), rng_(engine.fork_rng(stream)) {}

  // An engine sleep that is ready at once when jitter is off. It draws the
  // think time when the op starts (think() runs inside the co_await).
  struct ThinkAwaiter : sim::Engine::SleepAwaiter {
    bool skip;
    bool await_ready() const noexcept { return skip; }
  };
  ThinkAwaiter think() {
    if (jitter_ <= Duration::zero()) return {{engine_, Duration::zero()}, true};
    return {{engine_, Duration::ns(static_cast<std::int64_t>(
                          rng_.below(static_cast<std::uint64_t>(jitter_.to_ns()) + 1)))},
            false};
  }

 private:
  sim::Engine* engine_;
  Duration jitter_;
  Rng rng_;
};

// --- PLFS shared logical file (collective MpiFile) ---
class PlfsN1Target final : public JitterBase {
 public:
  PlfsN1Target(sim::Engine& engine, Duration jitter, std::uint64_t stream,
               std::unique_ptr<plfs::MpiFile> file, bool writing, bool flatten)
      : JitterBase(engine, jitter, stream), file_(std::move(file)), writing_(writing),
        flatten_(flatten) {}
  sim::Task<Status> write(std::uint64_t offset, DataView data) override {
    co_await think();
    co_return co_await file_->write(offset, std::move(data));
  }
  sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len) override {
    co_await think();
    co_return co_await file_->read(offset, len);
  }
  sim::Task<Status> close() override {
    // Not a conditional expression: GCC 12 mis-sequences temporaries around
    // co_await inside ?: operands.
    if (writing_) co_return co_await file_->close_write(flatten_);
    co_return co_await file_->close_read();
  }

 private:
  std::unique_ptr<plfs::MpiFile> file_;
  bool writing_;
  bool flatten_;
};

// --- PLFS file-per-process (independent handles, collective barriers) ---
class PlfsNnTarget final : public JitterBase {
 public:
  PlfsNnTarget(sim::Engine& engine, Duration jitter, std::uint64_t stream, mpi::Comm& comm,
               std::unique_ptr<plfs::WriteHandle> wh, std::unique_ptr<plfs::ReadHandle> rh)
      : JitterBase(engine, jitter, stream), comm_(&comm), write_(std::move(wh)),
        read_(std::move(rh)) {}
  sim::Task<Status> write(std::uint64_t offset, DataView data) override {
    if (!write_) co_return error(Errc::bad_handle, "read-mode target");
    co_await think();
    co_return co_await write_->write(offset, std::move(data));
  }
  sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len) override {
    if (!read_) co_return error(Errc::bad_handle, "write-mode target");
    co_await think();
    co_return co_await read_->read(offset, len);
  }
  sim::Task<Status> close() override {
    if (write_) TIO_CO_RETURN_IF_ERROR(co_await write_->close());
    if (read_) TIO_CO_RETURN_IF_ERROR(co_await read_->close());
    write_.reset();
    read_.reset();
    co_await comm_->barrier();
    co_return Status::Ok();
  }

 private:
  mpi::Comm* comm_;
  std::unique_ptr<plfs::WriteHandle> write_;
  std::unique_ptr<plfs::ReadHandle> read_;
};

// --- direct PFS access ---
class DirectTarget final : public JitterBase {
 public:
  DirectTarget(sim::Engine& engine, Duration jitter, std::uint64_t stream, mpi::Comm& comm,
               pfs::FsClient& fs, pfs::FileId fd)
      : JitterBase(engine, jitter, stream), comm_(&comm), fs_(&fs), fd_(fd) {}
  sim::Task<Status> write(std::uint64_t offset, DataView data) override {
    co_await think();
    if (data.empty()) co_return Status::Ok();
    co_return (co_await fs_->write(ctx(), fd_, offset, std::move(data))).status();
  }
  sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len) override {
    co_await think();
    co_return co_await fs_->read(ctx(), fd_, offset, len);
  }
  sim::Task<Status> close() override {
    TIO_CO_RETURN_IF_ERROR(co_await fs_->close(ctx(), fd_));
    co_await comm_->barrier();
    co_return Status::Ok();
  }

 private:
  pfs::IoCtx ctx() const { return IoCtx{comm_->my_node(), comm_->global_rank()}; }
  mpi::Comm* comm_;
  pfs::FsClient* fs_;
  pfs::FileId fd_;
};

}  // namespace

sim::Task<Result<std::unique_ptr<Target>>> TargetFactory::open_write(mpi::Comm& comm,
                                                                     std::string name,
                                                                     TargetOptions options) {
  const IoCtx ctx{comm.my_node(), comm.global_rank()};
  switch (options.access) {
    case Access::plfs_n1: {
      auto file = co_await plfs::MpiFile::open_write(*plfs_, comm, plfs_path(name,
                                                     options.access, comm.rank()));
      if (!file.ok()) co_return file.status();
      co_return std::make_unique<PlfsN1Target>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()),
                                               std::move(file.value()), true,
                                               options.flatten_on_close);
    }
    case Access::plfs_nn: {
      auto wh = co_await plfs_->open_write(ctx, plfs_path(name, options.access, comm.rank()),
                                           /*rank=*/0);
      if (!wh.ok()) co_return wh.status();
      co_await comm.barrier();
      co_return std::make_unique<PlfsNnTarget>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()), comm,
                                               std::move(wh.value()), nullptr);
    }
    case Access::direct_n1: {
      const std::string path = direct_path(name, options.access, 0);
      // Rank 0 creates/truncates the shared file; everyone else opens after.
      if (comm.rank() == 0) {
        auto fd = co_await direct_fs_->open(ctx, path, OpenFlags::wr_trunc());
        if (!fd.ok()) co_return fd.status();
        co_await comm.barrier();
        co_return std::make_unique<DirectTarget>(comm.engine(), options.op_jitter, 0, comm,
                                                 *direct_fs_, *fd);
      }
      co_await comm.barrier();
      auto fd = co_await direct_fs_->open(ctx, path, OpenFlags::wr());
      if (!fd.ok()) co_return fd.status();
      co_return std::make_unique<DirectTarget>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()), comm,
                                               *direct_fs_, *fd);
    }
    case Access::direct_nn: {
      auto fd = co_await direct_fs_->open(ctx, direct_path(name, options.access, comm.rank()),
                                          OpenFlags::wr_trunc());
      if (!fd.ok()) co_return fd.status();
      co_await comm.barrier();
      co_return std::make_unique<DirectTarget>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()), comm,
                                               *direct_fs_, *fd);
    }
  }
  co_return error(Errc::invalid, "bad access mode");
}

sim::Task<Result<std::unique_ptr<Target>>> TargetFactory::open_read(mpi::Comm& comm,
                                                                    std::string name,
                                                                    TargetOptions options) {
  const IoCtx ctx{comm.my_node(), comm.global_rank()};
  switch (options.access) {
    case Access::plfs_n1: {
      auto file = co_await plfs::MpiFile::open_read(
          *plfs_, comm, plfs_path(name, options.access, comm.rank()), options.strategy);
      if (!file.ok()) co_return file.status();
      co_return std::make_unique<PlfsN1Target>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()),
                                               std::move(file.value()), false, false);
    }
    case Access::plfs_nn: {
      // Single-writer containers: the Original (uncoordinated) path is the
      // natural one; each rank aggregates its own file's one index log.
      auto rh = co_await plfs_->open_read(ctx, plfs_path(name, options.access, comm.rank()));
      if (!rh.ok()) co_return rh.status();
      co_await comm.barrier();
      co_return std::make_unique<PlfsNnTarget>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()), comm,
                                               nullptr, std::move(rh.value()));
    }
    case Access::direct_n1:
    case Access::direct_nn: {
      const std::string path = direct_path(name, options.access, comm.rank());
      auto st = co_await direct_fs_->stat(ctx, path);
      if (!st.ok()) co_return st.status();
      auto fd = co_await direct_fs_->open(ctx, path, OpenFlags::ro());
      if (!fd.ok()) co_return fd.status();
      co_await comm.barrier();
      co_return std::make_unique<DirectTarget>(comm.engine(), options.op_jitter,
                                               static_cast<std::uint64_t>(comm.rank()), comm,
                                               *direct_fs_, *fd);
    }
  }
  co_return error(Errc::invalid, "bad access mode");
}

}  // namespace tio::workloads
