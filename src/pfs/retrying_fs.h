// RetryingFs: the FsClient decorator every retried backend op goes through.
//
// Each op is re-issued through the one retry loop (sim/retry.h) when it
// fails transiently, and each write goes through sim::write_fully, which
// also resumes a torn write after its landed prefix. One instance holds its
// client's whole retry policy (a sim::Retrier) and the seed of its per-op
// jitter keys:
//   open                          path_op_key(key_seed, path)
//   mkdir, unlink, stat, readdir  that key ^ 1, ^ 3, ^ 4, ^ 5
//   close, write                  splitmix64(fd)
//   read                          splitmix64(fd ^ offset)
// Each op returns the loop's task itself: the decorator adds no frame.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "pfs/fs_client.h"
#include "sim/retry.h"

namespace tio::pfs {

class RetryingFs final : public FsClient {
 public:
  // `budget` caps the retries of all ops together; the counters are
  // `<family>.*`; an empty `backoff_span` leaves backoff sleeps untraced.
  RetryingFs(FsClient& inner, std::uint64_t key_seed, RetryPolicy policy, std::uint64_t budget,
             std::string family, std::string backoff_span = {})
      : inner_(inner), key_seed_(key_seed),
        retrier_(inner.engine(), policy, budget, std::move(family), std::move(backoff_span)) {}

  sim::Task<Result<FileId>> open(IoCtx ctx, std::string path, OpenFlags flags) override;
  sim::Task<Status> close(IoCtx ctx, FileId file) override;
  sim::Task<Result<std::uint64_t>> write(IoCtx ctx, FileId file, std::uint64_t offset,
                                         DataView data) override;
  sim::Task<Result<FragmentList>> read(IoCtx ctx, FileId file, std::uint64_t offset,
                                       std::uint64_t len) override;
  sim::Task<Status> mkdir(IoCtx ctx, std::string path) override;
  sim::Task<Status> unlink(IoCtx ctx, std::string path) override;
  sim::Task<Result<StatInfo>> stat(IoCtx ctx, std::string path) override;
  sim::Task<Result<std::vector<DirEntry>>> readdir(IoCtx ctx, std::string path) override;
  sim::Engine& engine() override { return inner_.engine(); }

  // The undecorated client.
  FsClient& inner() { return inner_; }

 private:
  std::uint64_t path_key(const std::string& path) const { return path_op_key(key_seed_, path); }

  FsClient& inner_;
  std::uint64_t key_seed_;
  sim::Retrier retrier_;
};

}  // namespace tio::pfs
