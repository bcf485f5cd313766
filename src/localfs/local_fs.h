// Host-POSIX backend: maps the logical namespace onto a directory of the
// real file system. Lets the identical PLFS middleware run against real
// disks (quickstart example, durability tests). Operations complete without
// consuming virtual time.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "pfs/fs_client.h"

namespace tio::localfs {

class LocalFs : public pfs::FsClient {
 public:
  // `root` must be an existing host directory; all logical paths live under
  // it ("/a/b" -> root + "/a/b").
  LocalFs(sim::Engine& engine, std::string root);

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

  const std::string& root() const { return root_; }

 private:
  std::string host_path(std::string_view logical) const;

  sim::Engine& engine_;
  std::string root_;
  std::unordered_map<pfs::FileId, int> fds_;  // FileId -> host fd
  pfs::FileId next_file_id_ = 1;
};

}  // namespace tio::localfs
