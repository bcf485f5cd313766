// The asynchronous file-system client interface every backend implements.
//
// PLFS is written entirely against this interface, so the identical
// middleware runs over the simulated parallel file system (costs charged in
// virtual time), over the in-memory test file system (zero cost), and over
// the host file system (real POSIX I/O). Paths are absolute '/'-separated
// logical paths within the backend.
#pragma once

#include <string>
#include <vector>

#include "common/dataview.h"
#include "common/status.h"
#include "pfs/types.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::pfs {

class FsClient {
 public:
  virtual ~FsClient() = default;

  virtual sim::Task<Result<FileId>> open(IoCtx ctx, std::string path, OpenFlags flags) = 0;
  virtual sim::Task<Status> close(IoCtx ctx, FileId file) = 0;
  // Returns bytes written (always all of `data` on success).
  virtual sim::Task<Result<std::uint64_t>> write(IoCtx ctx, FileId file, std::uint64_t offset,
                                                 DataView data) = 0;
  // Returns up to `len` bytes; short reads only at EOF (POSIX semantics).
  virtual sim::Task<Result<FragmentList>> read(IoCtx ctx, FileId file, std::uint64_t offset,
                                               std::uint64_t len) = 0;

  virtual sim::Task<Status> mkdir(IoCtx ctx, std::string path) = 0;
  virtual sim::Task<Status> unlink(IoCtx ctx, std::string path) = 0;
  virtual sim::Task<Result<StatInfo>> stat(IoCtx ctx, std::string path) = 0;
  virtual sim::Task<Result<std::vector<DirEntry>>> readdir(IoCtx ctx, std::string path) = 0;

  virtual sim::Engine& engine() = 0;
};

}  // namespace tio::pfs
