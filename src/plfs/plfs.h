// The PLFS middleware core: transformative I/O over any FsClient backend.
//
// Write path: each process's writes to a shared logical file are redirected
// to a private, append-only data log plus an index log inside the file's
// container (N-1 becomes N-N; random becomes sequential). Read path: the
// per-writer indices are aggregated into a global Index that maps logical
// extents back to the data logs. The collective aggregation strategies
// (Index Flatten, Parallel Index Read) live in plfs/mpiio.h; this layer
// provides the uncoordinated operations they are built from — which is also
// exactly the "Original PLFS Design" the paper measures against.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfs/fs_client.h"
#include "plfs/container.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/index_cache.h"
#include "plfs/mount.h"
#include "pfs/retrying_fs.h"

namespace tio::plfs {

class WriteHandle;
class ReadHandle;

class Plfs {
 public:
  Plfs(pfs::FsClient& fs, PlfsMount mount);

  const PlfsMount& mount() const { return mount_; }
  // The backend itself, without this instance's retries.
  pfs::FsClient& backend_fs() { return fs_.inner(); }
  sim::Engine& engine() { return fs_.engine(); }
  ContainerLayout layout(const std::string& logical) const {
    return ContainerLayout(mount_, logical);
  }

  // Opens a per-process write stream into the container, creating the
  // container skeleton as needed (tolerant of concurrent creators).
  sim::Task<Result<std::unique_ptr<WriteHandle>>> open_write(pfs::IoCtx ctx,
                                                             std::string logical, int rank);

  // Opens the logical file for read with a prebuilt global index (from one
  // of the aggregation strategies); with `index == nullptr`, falls back to
  // the Original design: this process reads every index log itself.
  sim::Task<Result<std::unique_ptr<ReadHandle>>> open_read(pfs::IoCtx ctx, std::string logical,
                                                           IndexPtr index = nullptr);

  // --- index-log plumbing (used by the strategies) ---
  // All index logs of the container, as (path, writer) pairs, discovered by
  // listing each subdir.
  struct IndexLogRef {
    std::string path;
    std::uint32_t writer;
  };
  sim::Task<Result<std::vector<IndexLogRef>>> list_index_logs(pfs::IoCtx ctx,
                                                              const std::string& logical);
  // Reads and parses one index log of `logical`'s container. The returned
  // vector is shared through the index cache: many simulated readers of the
  // same log reuse one host copy (each still pays the full simulated
  // open/read/close and per-entry CPU cost).
  sim::Task<Result<std::shared_ptr<const std::vector<IndexEntry>>>> read_index_log(
      pfs::IoCtx ctx, std::string logical, std::string path);
  // The Original design, one process: enumerate + read every index log.
  sim::Task<Result<IndexPtr>> build_index_serial(pfs::IoCtx ctx, std::string logical);
  // Flattened global index file (written at close by Index Flatten).
  sim::Task<Result<IndexPtr>> read_global_index(pfs::IoCtx ctx, const std::string& logical);
  sim::Task<Status> write_global_index(pfs::IoCtx ctx, const std::string& logical,
                                       const FlatIndex& index);

  // --- logical namespace operations ---
  sim::Task<Result<bool>> is_container(pfs::IoCtx ctx, const std::string& logical);

  // Ensures `dir` (a backend-physical path) exists; stat-first, tolerant of
  // concurrent creation.
  sim::Task<Status> ensure_dir(pfs::IoCtx ctx, std::string dir);

  // The shared index cache (built indices and parsed index logs); exposed
  // for tests and bench instrumentation.
  IndexCache& index_cache() { return cache_; }

 private:
  friend class WriteHandle;
  friend class ReadHandle;

  // The directories to ensure, in order, for `lay`'s container on
  // `backend`: its parent chain below the backend root, then the container.
  std::vector<std::string> container_chain(const ContainerLayout& lay, std::size_t backend) const;
  // The canonical container with its access marker, meta/ and openhosts/.
  sim::Task<Status> ensure_container_skeleton(pfs::IoCtx ctx, const ContainerLayout& layout);
  // Legs of the create sequence. touch creates `path` and closes it at once
  // (markers, openhost records, size droppings); an exclusive create that
  // finds the file already there succeeds. open_log opens a log for
  // truncating writes into `fd`. unlink_record removes a per-rank record,
  // treating already-gone as success.
  sim::Task<Status> touch(pfs::IoCtx ctx, std::string path, pfs::OpenFlags flags);
  sim::Task<Status> open_log(pfs::IoCtx ctx, std::string path, pfs::FileId& fd);
  sim::Task<Status> unlink_record(pfs::IoCtx ctx, std::string path);
  // Creates the shadow container (off the canonical backend) and subdir.k
  // on an explicit backend (the federation-ring walk of open_write probes
  // these in order).
  sim::Task<Status> ensure_subdir_on(pfs::IoCtx ctx, const ContainerLayout& lay, std::size_t k,
                                     std::size_t backend);

  PlfsMount mount_;
  // Every backend op of this instance goes through it (plfs.retry.*).
  pfs::RetryingFs fs_;
  // Shares the structure of uncoordinated (Original-design) index builds:
  // real processes hold their copies in separate nodes' memory, but the
  // simulator holds all ranks in one address space, so N identical
  // million-mapping indices would exhaust host memory. Every rank still
  // pays the full simulated read + CPU cost. Unlike the old ad-hoc memo
  // maps (cleared wholesale on any write anywhere), the cache is
  // byte-budgeted and invalidated per container.
  IndexCache cache_;
};

// A single writer's open stream (one per process per logical file).
class WriteHandle {
 public:
  // Appends `data` destined for logical offset `logical_offset`.
  sim::Task<Status> write(std::uint64_t logical_offset, DataView data);
  // Forces buffered index records into the index log.
  sim::Task<Status> flush_index();
  // Flush + meta dropping + openhost-record removal + close. The handle is
  // unusable afterwards.
  sim::Task<Status> close();

  int rank() const { return rank_; }
  const ContainerLayout& layout() const { return layout_; }
  // Every entry this writer produced (basis of Index Flatten).
  const std::vector<IndexEntry>& entries() const { return entries_; }
  std::uint64_t logical_high_water() const { return high_water_; }
  std::uint64_t data_bytes() const { return data_offset_; }

 private:
  friend class Plfs;
  WriteHandle(Plfs& plfs, pfs::IoCtx ctx, ContainerLayout layout, int rank,
              pfs::FileId data_fd, pfs::FileId index_fd)
      : plfs_(&plfs), ctx_(ctx), layout_(std::move(layout)), rank_(rank), data_fd_(data_fd),
        index_fd_(index_fd) {}

  Plfs* plfs_;
  pfs::IoCtx ctx_;
  ContainerLayout layout_;
  int rank_;
  pfs::FileId data_fd_;
  pfs::FileId index_fd_;
  std::uint64_t data_offset_ = 0;
  std::uint64_t index_offset_ = 0;
  std::uint64_t high_water_ = 0;
  std::vector<IndexEntry> entries_;
  std::size_t flushed_ = 0;  // entries_[0..flushed_) already in the log
  bool closed_ = false;
};

// A reader's view of the logical file through a global index.
class ReadHandle {
 public:
  // Reads [offset, offset+len) of the logical file; short at EOF; unwritten
  // gaps inside the file read as zeros.
  sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len);
  sim::Task<Status> close();

  const FlatIndex& index() const { return *index_; }
  std::uint64_t logical_size() const { return index_->logical_size(); }

 private:
  friend class Plfs;
  ReadHandle(Plfs& plfs, pfs::IoCtx ctx, ContainerLayout layout, IndexPtr index)
      : plfs_(&plfs), ctx_(ctx), layout_(std::move(layout)), index_(std::move(index)) {}

  // Opens `writer`'s data log and caches its fd in data_fds_ (read()
  // looks the cache up itself and calls this only on a miss).
  sim::Task<Result<pfs::FileId>> data_fd(std::uint32_t writer);

  Plfs* plfs_;
  pfs::IoCtx ctx_;
  ContainerLayout layout_;
  IndexPtr index_;
  std::unordered_map<std::uint32_t, pfs::FileId> data_fds_;
  bool closed_ = false;
};

}  // namespace tio::plfs
