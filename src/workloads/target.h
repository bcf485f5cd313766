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

class TargetFactory {
 public:
  // Direct targets go through `direct_fs` (Rig::direct_fs(): the backend
  // behind the direct comparator's retry policy); `direct_dir` must exist
  // on it (Rig::direct_dir()).
  TargetFactory(plfs::Plfs& plfs, pfs::FsClient& direct_fs, std::string direct_dir)
      : plfs_(&plfs), direct_fs_(&direct_fs), direct_dir_(std::move(direct_dir)) {}

  // Collective: every rank of `comm` calls and gets its own Target.
  sim::Task<Result<std::unique_ptr<Target>>> open_write(mpi::Comm& comm, std::string name,
                                                        TargetOptions options);
  sim::Task<Result<std::unique_ptr<Target>>> open_read(mpi::Comm& comm, std::string name,
                                                       TargetOptions options);


 private:
  std::string plfs_path(const std::string& name, Access access, int rank) const;
  std::string direct_path(const std::string& name, Access access, int rank) const;

  plfs::Plfs* plfs_;
  pfs::FsClient* direct_fs_;
  std::string direct_dir_;
};

}  // namespace tio::workloads
