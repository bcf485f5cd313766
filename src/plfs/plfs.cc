#include "plfs/plfs.h"

#include <algorithm>
#include <array>
#include <concepts>
#include <limits>

#include "common/stats.h"
#include "common/strutil.h"
#include "common/trace.h"
#include "plfs/pattern.h"
#include "sim/sync.h"

namespace tio::plfs {

using pfs::OpenFlags;

namespace {

sim::Task<void> finish_leg(sim::Task<Status> leg, Status& out, sim::WaitGroup& wg) {
  out = co_await std::move(leg);
  wg.done();
}

// Runs the independent metadata legs of one create sequence and returns
// the first failed leg's status in leg order. Without `concurrent` the legs
// run one after another and stop at the first failure; with it every leg
// starts at once, so their mutations land in the same batch RPC.
template <std::same_as<sim::Task<Status>>... Legs>
sim::Task<Status> run_legs(sim::Engine& engine, bool concurrent, Legs... legs) {
  std::array<sim::Task<Status>, sizeof...(Legs)> tasks{std::move(legs)...};
  if (!concurrent) {
    for (sim::Task<Status>& leg : tasks) TIO_CO_RETURN_IF_ERROR(co_await std::move(leg));
    co_return Status::Ok();
  }
  std::array<Status, sizeof...(Legs)> out;
  sim::WaitGroup wg(engine);
  wg.add(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    engine.spawn(finish_leg(std::move(tasks[i]), out[i], wg));
  }
  co_await wg.wait();
  for (const Status& st : out) TIO_CO_RETURN_IF_ERROR(st);
  co_return Status::Ok();
}

}  // namespace

Plfs::Plfs(pfs::FsClient& fs, PlfsMount mount)
    : mount_(std::move(mount)),
      fs_(fs, /*key_seed=*/0x7e57a1101dull, mount_.retry, mount_.retry_budget, "plfs.retry",
          "plfs.retry.backoff"),
      cache_(mount_.index_cache_bytes) {
  if (mount_.backends.empty()) {
    throw std::invalid_argument("PlfsMount must have at least one backend");
  }
}

sim::Task<Status> Plfs::touch(pfs::IoCtx ctx, std::string path, OpenFlags flags) {
  auto fd = co_await fs_.open(ctx, std::move(path), flags);
  if (fd.ok()) co_return co_await fs_.close(ctx, *fd);
  if (flags.excl && fd.status().code() == Errc::exists) co_return Status::Ok();
  co_return fd.status();
}

sim::Task<Status> Plfs::open_log(pfs::IoCtx ctx, std::string path, pfs::FileId& fd) {
  TIO_CO_ASSIGN_OR_RETURN(fd, co_await fs_.open(ctx, std::move(path), OpenFlags::wr_trunc()));
  co_return Status::Ok();
}

sim::Task<Status> Plfs::unlink_record(pfs::IoCtx ctx, std::string path) {
  const Status st = co_await fs_.unlink(ctx, std::move(path));
  // Replicated submits are at-least-once: a lost ack makes the retry
  // re-apply the unlink and see not_found. The record is per-rank, so
  // already-gone is success.
  if (!st.ok() && st.code() != Errc::not_found) co_return st;
  co_return Status::Ok();
}

sim::Task<Status> Plfs::ensure_dir(pfs::IoCtx ctx, std::string dir) {
  auto st = co_await fs_.stat(ctx, dir);
  if (st.ok()) {
    if (!st->is_dir) co_return error(Errc::not_a_directory, dir);
    co_return Status::Ok();
  }
  Status made = co_await fs_.mkdir(ctx, dir);
  if (!made.ok() && made.code() != Errc::exists) co_return made;
  co_return Status::Ok();
}

sim::Task<Status> Plfs::ensure_container_skeleton(pfs::IoCtx ctx, const ContainerLayout& layout) {
  // Parent chain below the canonical backend root (the roots themselves are
  // "mounted", i.e. pre-existing).
  const std::string parent_logical(path_dirname(layout.logical()));
  const std::size_t canonical = layout.canonical_backend();
  if (parent_logical != "/") {
    std::string built = mount_.backends[canonical];
    for (const auto comp : path_components(parent_logical)) {
      built = path_join(built, comp);
      TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, built));
    }
  }
  TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, layout.canonical_container()));
  // The access marker (created once, tolerated when racing) and the meta/
  // and openhosts/ subdirectories are independent once the container
  // exists.
  co_return co_await run_legs(engine(), mount_.meta_batching,
                              touch(ctx, layout.access_path(), OpenFlags::wr_create_excl()),
                              ensure_dir(ctx, layout.meta_dir()),
                              ensure_dir(ctx, layout.openhosts_dir()));
}

sim::Task<Status> Plfs::ensure_subdir_on(pfs::IoCtx ctx, const ContainerLayout& lay,
                                         std::size_t k, std::size_t backend) {
  // The shadow chain below this backend's root (the canonical chain was
  // built by the skeleton).
  if (backend != lay.canonical_backend()) {
    const std::string parent_logical(path_dirname(lay.logical()));
    if (parent_logical != "/") {
      std::string built = mount_.backends[backend];
      for (const auto comp : path_components(parent_logical)) {
        built = path_join(built, comp);
        TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, built));
      }
    }
    TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, lay.container_on(backend)));
  }
  co_return co_await ensure_dir(ctx, lay.subdir_path_on(k, backend));
}

sim::Task<Result<std::unique_ptr<WriteHandle>>> Plfs::open_write(pfs::IoCtx ctx,
                                                                 std::string logical, int rank) {
  ContainerLayout lay = layout(logical);
  cache_.invalidate(path_normalize(logical));  // this container is about to change
  TIO_CO_RETURN_IF_ERROR(co_await ensure_container_skeleton(ctx, lay));

  // My subdir lives on its hashed home backend. If that MDS stays
  // unreachable through the whole retry schedule, walk the federation ring
  // (home+1, home+2, ...) and leave a stale.k marker in the canonical
  // container so readers resolve the same placement. A replicated
  // metadata service makes the ring walk unnecessary — the namespace
  // itself fails over consistently, so only the home backend is probed
  // and no placement can ever go stale.
  const std::size_t k = lay.subdir_of_rank(rank);
  const std::size_t home = lay.subdir_backend(k);
  const std::size_t ring = mount_.mds_replicated ? 1 : lay.num_backends();
  std::size_t placed = home;
  Status subdir_st = Status::Ok();
  // Per-probe spans separate the cheap common case (home MDS answers) from
  // ring-walk failover probes in the Fig. 7 create-path traces.
  static const trace::SpanSite kHomeSite("plfs.create", "plfs.create.subdir_home");
  static const trace::SpanSite kFailoverSite("plfs.create", "plfs.create.subdir_failover");
  for (std::size_t j = 0; j < ring; ++j) {
    const std::size_t b = (home + j) % lay.num_backends();
    {
      trace::Span probe(engine(), j == 0 ? kHomeSite : kFailoverSite, rank);
      subdir_st = co_await ensure_subdir_on(ctx, lay, k, b);
    }
    if (subdir_st.ok()) {
      placed = b;
      break;
    }
    if (!subdir_st.is_transient()) co_return subdir_st;
  }
  TIO_CO_RETURN_IF_ERROR(subdir_st);
  if (placed != home) {
    static Counter& mds_failover = counter("plfs.degrade.mds_failover");
    mds_failover.add(1);
    TIO_CO_RETURN_IF_ERROR(co_await touch(ctx, lay.stale_marker_path(k), OpenFlags::wr_create()));
  }

  // Data log, index log, and this writer's openhosts/ record are
  // independent creates.
  pfs::FileId data_fd{};
  pfs::FileId index_fd{};
  TIO_CO_RETURN_IF_ERROR(co_await run_legs(
      engine(), mount_.meta_batching, open_log(ctx, lay.data_log_path_on(rank, placed), data_fd),
      open_log(ctx, lay.index_log_path_on(rank, placed), index_fd),
      touch(ctx, lay.openhost_record_path(rank), OpenFlags::wr_create())));

  co_return std::unique_ptr<WriteHandle>(
      new WriteHandle(*this, ctx, std::move(lay), rank, data_fd, index_fd));
}

sim::Task<Status> WriteHandle::write(std::uint64_t logical_offset, DataView data) {
  if (closed_) co_return error(Errc::bad_handle, "write on closed handle");
  if (data.empty()) co_return Status::Ok();
  const std::uint64_t len = data.size();
  // Log-structured: always append, regardless of the logical offset.
  TIO_CO_RETURN_IF_ERROR(
      (co_await plfs_->fs_.write(ctx_, data_fd_, data_offset_, std::move(data))).status());
  entries_.push_back(IndexEntry{logical_offset, len, data_offset_,
                                plfs_->engine().now().to_ns(),
                                static_cast<std::uint32_t>(rank_)});
  data_offset_ += len;
  high_water_ = std::max(high_water_, logical_offset + len);
  if (entries_.size() - flushed_ >= plfs_->mount_.index_flush_every) {
    TIO_CO_RETURN_IF_ERROR(co_await flush_index());
  }
  co_return Status::Ok();
}

sim::Task<Status> WriteHandle::flush_index() {
  if (flushed_ == entries_.size()) co_return Status::Ok();
  static const trace::SpanSite kFlushSite("plfs.write", "plfs.write.index_flush");
  trace::Span flush_span(plfs_->engine(), kFlushSite, rank_);
  // Each flush batch becomes one self-contained v2 segment, so the log
  // stays append-only and readable after any prefix of flushes.
  const std::vector<IndexEntry> batch(entries_.begin() + static_cast<std::ptrdiff_t>(flushed_),
                                      entries_.end());
  std::vector<std::byte> buf = encode_entries(batch);
  const std::uint64_t n = buf.size();
  static Counter& log_bytes_written = counter("plfs.index.log_bytes_written");
  log_bytes_written.add(n);
  TIO_CO_RETURN_IF_ERROR((co_await plfs_->fs_.write(ctx_, index_fd_, index_offset_,
                                                    DataView::literal(std::move(buf))))
                             .status());
  index_offset_ += n;
  flushed_ = entries_.size();
  co_return Status::Ok();
}

sim::Task<Status> WriteHandle::close() {
  if (closed_) co_return error(Errc::bad_handle, "double close");
  TIO_CO_RETURN_IF_ERROR(co_await flush_index());
  TIO_CO_RETURN_IF_ERROR(co_await plfs_->fs_.close(ctx_, data_fd_));
  TIO_CO_RETURN_IF_ERROR(co_await plfs_->fs_.close(ctx_, index_fd_));
  // The size dropping (the logical high water is encoded in its name, as
  // PLFS does so that stat needs no index aggregation) and the openhost
  // unlink are independent mutations; the simulator prices both.
  TIO_CO_RETURN_IF_ERROR(co_await run_legs(
      plfs_->engine(), plfs_->mount_.meta_batching,
      plfs_->touch(ctx_, layout_.meta_dropping_path(rank_, high_water_), OpenFlags::wr_create()),
      plfs_->unlink_record(ctx_, layout_.openhost_record_path(rank_))));
  closed_ = true;
  co_return Status::Ok();
}

sim::Task<Result<std::vector<Plfs::IndexLogRef>>> Plfs::list_index_logs(
    pfs::IoCtx ctx, const std::string& logical) {
  ContainerLayout lay = layout(logical);
  // A logical file must be a container (the access marker proves it);
  // otherwise reads of unlinked/never-written paths would "succeed" empty.
  TIO_CO_ASSIGN_OR_RETURN(bool container, co_await is_container(ctx, logical));
  if (!container) co_return error(Errc::not_found, logical);
  // Failover markers: stale.k in the canonical container means subdir.k was
  // (at least partly) placed off its hashed home by an MDS failover; union
  // the whole federation ring for those k. Only federated mounts pay the
  // extra canonical readdir; a replicated metadata service never strands a
  // placement, so the scan is skipped entirely.
  std::vector<char> stale(lay.num_subdirs(), 0);
  if (lay.num_backends() > 1 && !mount_.mds_replicated) {
    TIO_CO_ASSIGN_OR_RETURN(std::vector<pfs::DirEntry> canon,
                            co_await fs_.readdir(ctx, lay.canonical_container()));
    for (const auto& e : canon) {
      std::size_t k = 0;
      if (!e.is_dir && parse_stale_marker_name(e.name, &k) && k < stale.size()) stale[k] = 1;
    }
  }
  std::vector<IndexLogRef> out;
  for (std::size_t k = 0; k < lay.num_subdirs(); ++k) {
    const std::size_t home = lay.subdir_backend(k);
    const std::size_t probes = stale[k] ? lay.num_backends() : 1;
    for (std::size_t j = 0; j < probes; ++j) {
      const std::string subdir = lay.subdir_path_on(k, (home + j) % lay.num_backends());
      auto entries = co_await fs_.readdir(ctx, subdir);
      if (!entries.ok()) {
        if (entries.status().code() == Errc::not_found) continue;  // unused subdir
        co_return entries.status();
      }
      for (const auto& e : *entries) {
        std::uint32_t writer = 0;
        if (!e.is_dir && parse_index_log_name(e.name, &writer)) {
          out.push_back(IndexLogRef{path_join(subdir, e.name), writer});
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const IndexLogRef& a, const IndexLogRef& b) { return a.writer < b.writer; });
  co_return out;
}

sim::Task<Result<std::shared_ptr<const std::vector<IndexEntry>>>> Plfs::read_index_log(
    pfs::IoCtx ctx, std::string logical, std::string path) {
  // Simulated costs are always paid in full; only the parsed host structure
  // is shared across readers, through the container-scoped cache.
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await fs_.open(ctx, path, OpenFlags::ro()));
  auto data = co_await fs_.read(ctx, fd, 0, std::numeric_limits<std::int64_t>::max());
  TIO_CO_RETURN_IF_ERROR(co_await fs_.close(ctx, fd));
  if (!data.ok()) co_return data.status();
  const std::string container = path_normalize(logical);
  const std::uint64_t gen = cache_.generation(container);
  static Counter& log_bytes_read = counter("plfs.index.log_bytes_read");
  log_bytes_read.add(data->size());
  auto cached = cache_.get_log(container, path);
  if (cached == nullptr) {
    auto entries = decode_entries(*data);
    if (!entries.ok()) co_return entries.status();
    cached = std::make_shared<const std::vector<IndexEntry>>(std::move(entries.value()));
    // Don't install if a writer invalidated the container mid-parse: this
    // copy reflects pre-invalidation bytes.
    if (cache_.generation(container) == gen) cache_.put_log(container, path, cached);
  }
  // Per-entry handling cost: charged on the decoded entry count (identical
  // across wire formats — compression shrinks bytes moved, not the entries
  // every reader still processes), and by every reader, cached or not.
  co_await engine().sleep(mount_.index_cpu_per_entry *
                          static_cast<std::int64_t>(cached->size()));
  co_return cached;
}

sim::Task<Result<IndexPtr>> Plfs::build_index_serial(pfs::IoCtx ctx, std::string logical) {
  const std::string container = path_normalize(logical);
  const std::uint64_t gen = cache_.generation(container);
  // Phase spans mirror Fig. 4's open-time breakdown: "index_read" covers
  // discovery plus every per-log read, "merge" the CPU merge of the runs.
  static const trace::SpanSite kReadSite("plfs.open", "plfs.open.index_read");
  static const trace::SpanSite kMergeSite("plfs.open", "plfs.open.merge");
  trace::Span read_span(engine(), kReadSite, ctx.rank);
  TIO_CO_ASSIGN_OR_RETURN(std::vector<IndexLogRef> logs, co_await list_index_logs(ctx, logical));
  IndexBuilder builder;
  for (const auto& log : logs) {
    TIO_CO_ASSIGN_OR_RETURN(std::shared_ptr<const std::vector<IndexEntry>> entries,
                            co_await read_index_log(ctx, logical, log.path));
    builder.add_run(std::move(entries));
  }
  read_span.end();
  trace::Span merge_span(engine(), kMergeSite, ctx.rank);
  co_await engine().sleep(mount_.index_cpu_per_entry *
                          static_cast<std::int64_t>(builder.total_entries()));
  IndexPtr index = cache_.get_index(container);
  if (index == nullptr) {
    // Per-writer logs are timestamp-sorted runs; merge instead of re-sorting.
    index = builder.build();
    // Only cacheable if no writer touched the container while we aggregated.
    if (cache_.generation(container) == gen) cache_.put_index(container, index);
  }
  co_return index;
}

sim::Task<Result<IndexPtr>> Plfs::read_global_index(pfs::IoCtx ctx, const std::string& logical) {
  // The flattened file carries an integrity trailer (see index_builder.h),
  // so it gets its own read+verify path instead of read_index_log's
  // raw-records parse. Any integrity failure surfaces as io_error and the
  // aggregation strategy degrades to Parallel Index Read.
  ContainerLayout lay = layout(logical);
  const std::string container = path_normalize(logical);
  const std::string path = lay.global_index_path();
  const std::uint64_t gen = cache_.generation(container);
  static const trace::SpanSite kReadSite("plfs.open", "plfs.open.index_read");
  trace::Span read_span(engine(), kReadSite, ctx.rank);
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await fs_.open(ctx, path, OpenFlags::ro()));
  auto data = co_await fs_.read(ctx, fd, 0, std::numeric_limits<std::int64_t>::max());
  TIO_CO_RETURN_IF_ERROR(co_await fs_.close(ctx, fd));
  if (!data.ok()) co_return data.status();
  static Counter& global_bytes_read = counter("plfs.index.global_bytes_read");
  global_bytes_read.add(data->size());
  auto cached = cache_.get_log(container, path);
  if (cached == nullptr) {
    auto entries = deserialize_trailed_entries(*data);
    if (!entries.ok()) co_return entries.status();
    cached = std::make_shared<const std::vector<IndexEntry>>(std::move(entries.value()));
    if (cache_.generation(container) == gen) cache_.put_log(container, path, cached);
  }
  co_await engine().sleep(mount_.index_cpu_per_entry *
                          static_cast<std::int64_t>(cached->size()));
  // The flattened file's records are already non-overlapping; one run.
  IndexBuilder builder;
  builder.add_run(std::move(cached));
  co_return builder.build();
}

sim::Task<Status> Plfs::write_global_index(pfs::IoCtx ctx, const std::string& logical,
                                           const FlatIndex& index) {
  ContainerLayout lay = layout(logical);
  cache_.invalidate(path_normalize(logical));  // cached global-index log is stale
  const std::string path = lay.global_index_path();
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await fs_.open(ctx, path, OpenFlags::wr_trunc()));
  auto bytes = serialize_entries_with_trailer(index.to_entries());
  static Counter& global_bytes_written = counter("plfs.index.global_bytes_written");
  global_bytes_written.add(bytes.size());
  auto written = co_await fs_.write(ctx, fd, 0, DataView::literal(std::move(bytes)));
  const Status closed = co_await fs_.close(ctx, fd);
  if (!written.ok()) co_return written.status();
  co_return closed;
}

sim::Task<Result<std::unique_ptr<ReadHandle>>> Plfs::open_read(pfs::IoCtx ctx,
                                                               std::string logical,
                                                               IndexPtr index) {
  ContainerLayout lay = layout(logical);
  if (index == nullptr) {
    // Original design: this reader aggregates every index log itself.
    TIO_CO_ASSIGN_OR_RETURN(index, co_await build_index_serial(ctx, logical));
  }
  co_return std::unique_ptr<ReadHandle>(
      new ReadHandle(*this, ctx, std::move(lay), std::move(index)));
}

sim::Task<Result<pfs::FileId>> ReadHandle::data_fd(std::uint32_t writer) {
  // The log normally lives on its hashed home backend; after an MDS
  // failover it may sit anywhere on the federation ring, so probe
  // (home + j) % B on not_found.
  const int rank = static_cast<int>(writer);
  const std::size_t home = layout_.subdir_backend(layout_.subdir_of_rank(rank));
  Result<pfs::FileId> fd = error(Errc::not_found, "no backend holds the data log");
  for (std::size_t j = 0; j < layout_.num_backends(); ++j) {
    fd = co_await plfs_->fs_.open(
        ctx_, layout_.data_log_path_on(rank, (home + j) % layout_.num_backends()),
        OpenFlags::ro());
    if (fd.ok()) break;
    if (fd.status().code() != Errc::not_found) co_return fd.status();
  }
  if (!fd.ok()) co_return fd.status();
  data_fds_[writer] = *fd;
  co_return *fd;
}

sim::Task<Result<FragmentList>> ReadHandle::read(std::uint64_t offset, std::uint64_t len) {
  if (closed_) co_return error(Errc::bad_handle, "read on closed handle");
  FragmentList out;
  const std::uint64_t size = index_->logical_size();
  if (offset >= size) co_return out;  // EOF
  len = std::min(len, size - offset);

  std::uint64_t pos = offset;
  for (const auto& m : index_->lookup(offset, len)) {
    if (m.logical_offset > pos) {
      out.append(DataView::zeros(m.logical_offset - pos));  // unwritten gap
      pos = m.logical_offset;
    }
    pfs::FileId fd;
    if (const auto it = data_fds_.find(m.writer); it != data_fds_.end()) {
      fd = it->second;
    } else {
      TIO_CO_ASSIGN_OR_RETURN(fd, co_await data_fd(m.writer));
    }
    auto piece = co_await plfs_->fs_.read(ctx_, fd, m.physical_offset, m.length);
    if (!piece.ok()) co_return piece.status();
    if (piece->size() != m.length) {
      co_return error(Errc::io_error, "data log shorter than its index claims");
    }
    for (const auto& frag : piece->fragments()) out.append(frag);
    pos += m.length;
  }
  if (pos < offset + len) out.append(DataView::zeros(offset + len - pos));
  co_return out;
}

sim::Task<Status> ReadHandle::close() {
  if (closed_) co_return error(Errc::bad_handle, "double close");
  for (const auto& [writer, fd] : data_fds_) {
    TIO_CO_RETURN_IF_ERROR(co_await plfs_->fs_.close(ctx_, fd));
  }
  data_fds_.clear();
  closed_ = true;
  co_return Status::Ok();
}

sim::Task<Result<bool>> Plfs::is_container(pfs::IoCtx ctx, const std::string& logical) {
  ContainerLayout lay = layout(logical);
  auto st = co_await fs_.stat(ctx, lay.access_path());
  if (st.ok()) co_return true;
  if (st.status().code() == Errc::not_found) co_return false;
  co_return st.status();
}

}  // namespace tio::plfs
