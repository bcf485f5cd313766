// IoTarget: the comparator abstraction of the evaluation.
//
// Every benchmark runs the same access pattern against two targets: PLFS
// (the logical file is a container; N-1 becomes N-N) and direct access to
// the underlying parallel file system (paying its shared-file semantics).
// N-N variants map each rank to its own file. Factories are collective.
#pragma once

#include <memory>
#include <string>

#include "mpisim/comm.h"
#include "pfs/fs_client.h"
#include "plfs/mpiio.h"
#include "plfs/plfs.h"
#include "sim/retry.h"

namespace tio::workloads {

enum class Access {
  plfs_n1,    // one logical PLFS file shared by all ranks
  plfs_nn,    // one PLFS logical file (container) per rank
  direct_n1,  // one shared file on the underlying PFS
  direct_nn,  // one PFS file per rank
};

std::string_view access_name(Access access);

struct TargetOptions {
  Access access = Access::plfs_n1;
  plfs::ReadStrategy strategy = plfs::ReadStrategy::parallel_read;
  bool flatten_on_close = false;  // Index Flatten at write close
  // Max per-op client think time (uniform jitter). Real applications are
  // not lock-step synchronous (the paper's premise: real workloads are not
  // as consistent as synthetic benchmarks), and the desynchronization is
  // what exposes shared-file readahead confusion. 0 disables.
  Duration op_jitter = Duration::us(200);
};

// A rank's open slice of the target file for one phase (write xor read).
class Target {
 public:
  virtual ~Target() = default;
  virtual sim::Task<Status> write(std::uint64_t offset, DataView data) = 0;
  virtual sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len) = 0;
  // Collective close (all ranks call).
  virtual sim::Task<Status> close() = 0;
};

// The direct legs' caller data for the one retry loop (sim/retry.h). They
// model a plain POSIX client re-issuing a failed syscall: the mount's
// policy, but direct.retry.* counters, no span and a `budget` of the
// caller's own that never runs dry (RetryBudget::kUnlimited).
sim::Retrier direct_retrier(sim::Engine& engine, const RetryPolicy& policy, RetryBudget& budget);
// Jitter-stream key of a direct op on `path`.
std::uint64_t direct_op_key(std::string_view path);

class TargetFactory {
 public:
  // `direct_dir` must exist on the backend fs (Rig::direct_dir()).
  TargetFactory(plfs::Plfs& plfs, std::string direct_dir)
      : plfs_(&plfs), direct_dir_(std::move(direct_dir)) {}

  // Collective: every rank of `comm` calls and gets its own Target.
  sim::Task<Result<std::unique_ptr<Target>>> open_write(mpi::Comm& comm, std::string name,
                                                        TargetOptions options);
  sim::Task<Result<std::unique_ptr<Target>>> open_read(mpi::Comm& comm, std::string name,
                                                       TargetOptions options);

  plfs::Plfs& plfs() { return *plfs_; }
  pfs::FsClient& fs() { return plfs_->backend_fs(); }

 private:
  std::string plfs_path(const std::string& name, Access access, int rank) const;
  std::string direct_path(const std::string& name, Access access, int rank) const;

  plfs::Plfs* plfs_;
  std::string direct_dir_;
};

}  // namespace tio::workloads
