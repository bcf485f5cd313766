// Zero-cost in-memory file system.
//
// Implements the same FsClient interface and POSIX-ish semantics as SimPfs
// but charges no virtual time. Used for fast unit tests of the middleware
// and as the reference implementation that SimPfs semantics are
// property-tested against.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "pfs/extent_map.h"
#include "pfs/fs_client.h"
#include "pfs/namespace.h"

namespace tio::localfs {

class MemFs : public pfs::FsClient {
 public:
  explicit MemFs(sim::Engine& engine) : engine_(engine) {}

  sim::Task<Result<pfs::FileId>> open(pfs::IoCtx ctx, std::string path,
                                      pfs::OpenFlags flags) override;
  sim::Task<Status> close(pfs::IoCtx ctx, pfs::FileId file) override;
  sim::Task<Result<std::uint64_t>> write(pfs::IoCtx ctx, pfs::FileId file, std::uint64_t offset,
                                         DataView data) override;
  sim::Task<Result<FragmentList>> read(pfs::IoCtx ctx, pfs::FileId file, std::uint64_t offset,
                                       std::uint64_t len) override;
  sim::Task<Status> mkdir(pfs::IoCtx ctx, std::string path) override;
  sim::Task<Status> unlink(pfs::IoCtx ctx, std::string path) override;
  sim::Task<Result<pfs::StatInfo>> stat(pfs::IoCtx ctx, std::string path) override;
  sim::Task<Result<std::vector<pfs::DirEntry>>> readdir(pfs::IoCtx ctx,
                                                        std::string path) override;
  sim::Engine& engine() override { return engine_; }

  pfs::Namespace& ns() { return ns_; }

 private:
  struct Object {
    pfs::ExtentMap data;
    std::uint64_t size = 0;
    TimePoint mtime;
  };
  struct OpenFile {
    pfs::ObjectId oid;
    pfs::OpenFlags flags;
  };

  sim::Engine& engine_;
  pfs::Namespace ns_;
  std::unordered_map<pfs::ObjectId, Object> objects_;
  std::unordered_map<pfs::FileId, OpenFile> open_files_;
  pfs::FileId next_file_id_ = 1;
};

}  // namespace tio::localfs
