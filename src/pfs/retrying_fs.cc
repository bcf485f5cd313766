#include "pfs/retrying_fs.h"

#include <utility>

#include "common/rng.h"

namespace tio::pfs {

sim::Task<Result<FileId>> RetryingFs::open(IoCtx ctx, std::string path, OpenFlags flags) {
  const std::uint64_t key = path_key(path);
  return sim::retry(retrier_, ctx.rank, key, [this, ctx, path = std::move(path), flags] {
    return inner_.open(ctx, path, flags);
  });
}

sim::Task<Status> RetryingFs::close(IoCtx ctx, FileId file) {
  return sim::retry(retrier_, ctx.rank, splitmix64(file),
                    [this, ctx, file] { return inner_.close(ctx, file); });
}

sim::Task<Result<std::uint64_t>> RetryingFs::write(IoCtx ctx, FileId file, std::uint64_t offset,
                                                   DataView data) {
  return sim::write_fully(retrier_, ctx.rank, splitmix64(file), std::move(data),
                          [this, ctx, file, offset](std::uint64_t done, DataView rest) {
                            return inner_.write(ctx, file, offset + done, std::move(rest));
                          });
}

sim::Task<Result<FragmentList>> RetryingFs::read(IoCtx ctx, FileId file, std::uint64_t offset,
                                                 std::uint64_t len) {
  return sim::retry(retrier_, ctx.rank, splitmix64(file ^ offset),
                    [this, ctx, file, offset, len] { return inner_.read(ctx, file, offset, len); });
}

sim::Task<Status> RetryingFs::mkdir(IoCtx ctx, std::string path) {
  const std::uint64_t key = path_key(path) ^ 1;
  return sim::retry(retrier_, ctx.rank, key,
                    [this, ctx, path = std::move(path)] { return inner_.mkdir(ctx, path); });
}

sim::Task<Status> RetryingFs::unlink(IoCtx ctx, std::string path) {
  const std::uint64_t key = path_key(path) ^ 3;
  return sim::retry(retrier_, ctx.rank, key,
                    [this, ctx, path = std::move(path)] { return inner_.unlink(ctx, path); });
}

sim::Task<Result<StatInfo>> RetryingFs::stat(IoCtx ctx, std::string path) {
  const std::uint64_t key = path_key(path) ^ 4;
  return sim::retry(retrier_, ctx.rank, key,
                    [this, ctx, path = std::move(path)] { return inner_.stat(ctx, path); });
}

sim::Task<Result<std::vector<DirEntry>>> RetryingFs::readdir(IoCtx ctx, std::string path) {
  const std::uint64_t key = path_key(path) ^ 5;
  return sim::retry(retrier_, ctx.rank, key,
                    [this, ctx, path = std::move(path)] { return inner_.readdir(ctx, path); });
}

}  // namespace tio::pfs
