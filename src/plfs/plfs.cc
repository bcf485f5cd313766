#include "plfs/plfs.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/trace.h"
#include "plfs/pattern.h"
#include "sim/sync.h"
#include "sim/timeout.h"

namespace tio::plfs {

using pfs::OpenFlags;

namespace {

// Hot-path counters, resolved once: counter() takes the registry mutex and
// a map lookup, which the stats.h contract lets us hoist (counters are
// process-lifetime). These run once per backend op / retry / index batch.
struct RetryCounters {
  Counter& timeouts = counter("plfs.retry.timeouts");
  Counter& success_after_retry = counter("plfs.retry.success_after_retry");
  Counter& exhausted = counter("plfs.retry.exhausted");
  Counter& budget_exhausted = counter("plfs.retry.budget_exhausted");
  Counter& attempts = counter("plfs.retry.attempts");
  Counter& backoff_ns = counter("plfs.retry.backoff_ns");
  Counter& short_write_resumed = counter("plfs.retry.short_write_resumed");
};
RetryCounters& retry_counters() {
  static RetryCounters c;
  return c;
}

// Span sites for the retry layer: every backoff sleep and every timed-out
// attempt becomes a span (and a histogram sample).
const trace::SpanSite& backoff_site() {
  static const trace::SpanSite site("plfs.retry", "plfs.retry.backoff");
  return site;
}
const trace::SpanSite& timeout_site() {
  static const trace::SpanSite site("plfs.retry", "plfs.retry.timeout");
  return site;
}

// Jitter stream key for an op on a path: every path retries on its own
// deterministic schedule, spreading thundering herds.
std::uint64_t path_op_key(std::string_view s) {
  std::uint64_t h = 0x7e57a1101dull;
  for (const char c : s) h = splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

Status status_of(const Status& s) { return s; }
template <typename T>
Status status_of(const Result<T>& r) {
  return r.status();
}

template <typename T>
struct task_value;
template <typename T>
struct task_value<sim::Task<T>> {
  using type = T;
};

}  // namespace

Plfs::Plfs(pfs::FsClient& fs, PlfsMount mount)
    : fs_(fs), mount_(std::move(mount)), cache_(mount_.index_cache_bytes),
      budget_(mount_.retry_budget) {
  if (mount_.backends.empty()) {
    throw std::invalid_argument("PlfsMount must have at least one backend");
  }
}

template <typename MakeOp>
auto Plfs::with_retry(pfs::IoCtx ctx, std::uint64_t op_key, MakeOp make_op)
    -> decltype(make_op()) {
  using R = typename task_value<decltype(make_op())>::type;
  const RetryPolicy& policy = mount_.retry;
  RetryCounters& rc = retry_counters();
  for (int attempt = 0;; ++attempt) {
    std::optional<R> result;
    if (policy.op_timeout > Duration::zero()) {
      const std::int64_t t0 = engine().now().to_ns();
      result = co_await sim::with_timeout(engine(), policy.op_timeout, make_op());
      if (!result.has_value()) {
        rc.timeouts.add(1);
        // The attempt's cost is only interesting once we know it timed out,
        // so the span is recorded retroactively from the captured start.
        trace::record_span(engine(), timeout_site(), ctx.rank, t0);
        result.emplace(error(Errc::busy, "op timed out (attempt abandoned)"));
      }
    } else {
      result.emplace(co_await make_op());
    }
    const Status st = status_of(*result);
    if (st.ok()) {
      if (attempt > 0) rc.success_after_retry.add(1);
      co_return std::move(*result);
    }
    if (!st.is_transient()) co_return std::move(*result);
    if (attempt + 1 >= policy.max_attempts) {
      rc.exhausted.add(1);
      co_return std::move(*result);
    }
    if (!budget_.try_consume()) {
      rc.budget_exhausted.add(1);
      co_return std::move(*result);
    }
    const Duration wait = policy.backoff(attempt, op_key);
    rc.attempts.add(1);
    rc.backoff_ns.add(static_cast<std::uint64_t>(wait.to_ns()));
    {
      trace::Span backoff(engine(), backoff_site(), ctx.rank);
      co_await engine().sleep(wait);
    }
  }
}

sim::Task<Result<std::uint64_t>> Plfs::write_fully(pfs::IoCtx ctx, pfs::FileId fd,
                                                   std::uint64_t offset, DataView data,
                                                   std::uint64_t op_key) {
  const RetryPolicy& policy = mount_.retry;
  RetryCounters& rc = retry_counters();
  const std::uint64_t n = data.size();
  if (n == 0) co_return std::uint64_t{0};
  std::uint64_t done = 0;
  bool retried = false;
  for (int attempt = 0;;) {
    auto wrote = co_await fs_.write(ctx, fd, offset + done, data.slice(done, n - done));
    if (wrote.ok()) {
      done += *wrote;
      if (done >= n) {
        if (retried) rc.success_after_retry.add(1);
        co_return n;
      }
      // A torn write is progress, not failure: resume after the prefix that
      // landed, and reset the attempt clock so completion is guaranteed for
      // any finite tear sequence.
      rc.short_write_resumed.add(1);
      attempt = 0;
      continue;
    }
    const Status st = wrote.status();
    if (!st.is_transient()) co_return st;
    if (attempt + 1 >= policy.max_attempts) {
      rc.exhausted.add(1);
      co_return st;
    }
    if (!budget_.try_consume()) {
      rc.budget_exhausted.add(1);
      co_return st;
    }
    const Duration wait = policy.backoff(attempt, op_key);
    rc.attempts.add(1);
    rc.backoff_ns.add(static_cast<std::uint64_t>(wait.to_ns()));
    {
      trace::Span backoff(engine(), backoff_site(), ctx.rank);
      co_await engine().sleep(wait);
    }
    retried = true;
    ++attempt;
  }
}

sim::Task<Result<pfs::FileId>> Plfs::open_retried(pfs::IoCtx ctx, std::string path,
                                                  OpenFlags flags) {
  co_return co_await with_retry(ctx, path_op_key(path),
                                [&] { return fs_.open(ctx, path, flags); });
}

sim::Task<Status> Plfs::close_retried(pfs::IoCtx ctx, pfs::FileId fd) {
  co_return co_await with_retry(ctx, splitmix64(fd), [&] { return fs_.close(ctx, fd); });
}

sim::Task<Result<FragmentList>> Plfs::read_retried(pfs::IoCtx ctx, pfs::FileId fd,
                                                   std::uint64_t offset, std::uint64_t len) {
  co_return co_await with_retry(ctx, splitmix64(fd ^ offset),
                                [&] { return fs_.read(ctx, fd, offset, len); });
}

sim::Task<Status> Plfs::mkdir_retried(pfs::IoCtx ctx, std::string path) {
  co_return co_await with_retry(ctx, path_op_key(path) ^ 1,
                                [&] { return fs_.mkdir(ctx, path); });
}

sim::Task<Status> Plfs::rmdir_retried(pfs::IoCtx ctx, std::string path) {
  co_return co_await with_retry(ctx, path_op_key(path) ^ 2,
                                [&] { return fs_.rmdir(ctx, path); });
}

sim::Task<Status> Plfs::unlink_retried(pfs::IoCtx ctx, std::string path) {
  co_return co_await with_retry(ctx, path_op_key(path) ^ 3,
                                [&] { return fs_.unlink(ctx, path); });
}

sim::Task<Result<pfs::StatInfo>> Plfs::stat_retried(pfs::IoCtx ctx, std::string path) {
  co_return co_await with_retry(ctx, path_op_key(path) ^ 4,
                                [&] { return fs_.stat(ctx, path); });
}

sim::Task<Result<std::vector<pfs::DirEntry>>> Plfs::readdir_retried(pfs::IoCtx ctx,
                                                                    std::string path) {
  co_return co_await with_retry(ctx, path_op_key(path) ^ 5,
                                [&] { return fs_.readdir(ctx, path); });
}

sim::Task<Status> Plfs::ensure_dir(pfs::IoCtx ctx, std::string dir) {
  auto st = co_await stat_retried(ctx, dir);
  if (st.ok()) {
    if (!st->is_dir) co_return error(Errc::not_a_directory, dir);
    co_return Status::Ok();
  }
  Status made = co_await mkdir_retried(ctx, dir);
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
  if (mount_.meta_batching) {
    // The access marker and the meta/ and openhosts/ subdirectories are
    // independent once the container exists: issue all three concurrently so
    // the client-side batcher coalesces their mutations into one RPC.
    Status access_st, meta_st, hosts_st;
    sim::WaitGroup wg(engine());
    auto marker = [](Plfs& p, pfs::IoCtx c, const ContainerLayout& lay, Status& out,
                     sim::WaitGroup& group) -> sim::Task<void> {
      auto fd = co_await p.open_retried(c, lay.access_path(), OpenFlags::wr_create_excl());
      if (fd.ok()) {
        out = co_await p.close_retried(c, *fd);
      } else if (fd.status().code() != Errc::exists) {
        out = fd.status();
      }
      group.done();
    };
    auto subdir = [](Plfs& p, pfs::IoCtx c, std::string dir, Status& out,
                     sim::WaitGroup& group) -> sim::Task<void> {
      out = co_await p.ensure_dir(c, std::move(dir));
      group.done();
    };
    wg.add(3);
    engine().spawn(marker(*this, ctx, layout, access_st, wg));
    engine().spawn(subdir(*this, ctx, layout.meta_dir(), meta_st, wg));
    engine().spawn(subdir(*this, ctx, layout.openhosts_dir(), hosts_st, wg));
    co_await wg.wait();
    TIO_CO_RETURN_IF_ERROR(access_st);
    TIO_CO_RETURN_IF_ERROR(meta_st);
    co_return hosts_st;
  }
  // The access marker: created once, tolerated when racing.
  auto access = co_await open_retried(ctx, layout.access_path(), OpenFlags::wr_create_excl());
  if (access.ok()) {
    TIO_CO_RETURN_IF_ERROR(co_await close_retried(ctx, *access));
  } else if (access.status().code() != Errc::exists) {
    co_return access.status();
  }
  TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, layout.meta_dir()));
  TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, layout.openhosts_dir()));
  co_return Status::Ok();
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
    auto marker = co_await open_retried(ctx, lay.stale_marker_path(k), OpenFlags::wr_create());
    if (!marker.ok()) co_return marker.status();
    TIO_CO_RETURN_IF_ERROR(co_await close_retried(ctx, *marker));
  }

  pfs::FileId data_fd{};
  pfs::FileId index_fd{};
  if (mount_.meta_batching) {
    // Data log, index log, and the openhosts/ record are independent
    // creates: issue them concurrently so they land in one batch RPC.
    Status data_st, index_st, host_st;
    sim::WaitGroup wg(engine());
    auto create_log = [](Plfs& p, pfs::IoCtx c, std::string path, pfs::FileId& fd, Status& out,
                         sim::WaitGroup& group) -> sim::Task<void> {
      auto r = co_await p.open_retried(c, std::move(path), OpenFlags::wr_trunc());
      if (r.ok()) {
        fd = *r;
      } else {
        out = r.status();
      }
      group.done();
    };
    auto host_record = [](Plfs& p, pfs::IoCtx c, std::string path, Status& out,
                          sim::WaitGroup& group) -> sim::Task<void> {
      auto r = co_await p.open_retried(c, std::move(path), OpenFlags::wr_create());
      if (r.ok()) {
        out = co_await p.close_retried(c, *r);
      } else {
        out = r.status();
      }
      group.done();
    };
    wg.add(3);
    engine().spawn(
        create_log(*this, ctx, lay.data_log_path_on(rank, placed), data_fd, data_st, wg));
    engine().spawn(
        create_log(*this, ctx, lay.index_log_path_on(rank, placed), index_fd, index_st, wg));
    engine().spawn(host_record(*this, ctx, lay.openhost_record_path(rank), host_st, wg));
    co_await wg.wait();
    TIO_CO_RETURN_IF_ERROR(data_st);
    TIO_CO_RETURN_IF_ERROR(index_st);
    TIO_CO_RETURN_IF_ERROR(host_st);
  } else {
    TIO_CO_ASSIGN_OR_RETURN(
        data_fd,
        co_await open_retried(ctx, lay.data_log_path_on(rank, placed), OpenFlags::wr_trunc()));
    TIO_CO_ASSIGN_OR_RETURN(
        index_fd,
        co_await open_retried(ctx, lay.index_log_path_on(rank, placed), OpenFlags::wr_trunc()));

    // Record this writer in openhosts/.
    auto host = co_await open_retried(ctx, lay.openhost_record_path(rank), OpenFlags::wr_create());
    if (!host.ok()) co_return host.status();
    TIO_CO_RETURN_IF_ERROR(co_await close_retried(ctx, *host));
  }

  co_return std::unique_ptr<WriteHandle>(
      new WriteHandle(*this, ctx, std::move(lay), rank, data_fd, index_fd));
}

sim::Task<Status> WriteHandle::write(std::uint64_t logical_offset, DataView data) {
  if (closed_) co_return error(Errc::bad_handle, "write on closed handle");
  if (data.empty()) co_return Status::Ok();
  const std::uint64_t len = data.size();
  // Log-structured: always append, regardless of the logical offset.
  TIO_CO_ASSIGN_OR_RETURN(std::uint64_t written,
                          co_await plfs_->write_fully(ctx_, data_fd_, data_offset_,
                                                      std::move(data), splitmix64(data_fd_)));
  (void)written;
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
  TIO_CO_ASSIGN_OR_RETURN(std::uint64_t written,
                          co_await plfs_->write_fully(ctx_, index_fd_, index_offset_,
                                                      DataView::literal(std::move(buf)),
                                                      splitmix64(index_fd_)));
  (void)written;
  index_offset_ += n;
  flushed_ = entries_.size();
  co_return Status::Ok();
}

sim::Task<Status> WriteHandle::close() {
  if (closed_) co_return error(Errc::bad_handle, "double close");
  TIO_CO_RETURN_IF_ERROR(co_await flush_index());
  TIO_CO_RETURN_IF_ERROR(co_await plfs_->close_retried(ctx_, data_fd_));
  TIO_CO_RETURN_IF_ERROR(co_await plfs_->close_retried(ctx_, index_fd_));
  // Size dropping: the logical high water is encoded in the name, so stat
  // never needs index aggregation.
  if (plfs_->mount_.meta_batching) {
    // The dropping create and the openhost unlink are independent
    // mutations: issue them concurrently so they share one batch RPC.
    Status drop_st, host_st;
    sim::WaitGroup wg(plfs_->engine());
    auto dropping = [](Plfs& p, pfs::IoCtx c, std::string path, Status& out,
                       sim::WaitGroup& group) -> sim::Task<void> {
      auto r = co_await p.open_retried(c, std::move(path), OpenFlags::wr_create());
      if (r.ok()) {
        out = co_await p.close_retried(c, *r);
      } else {
        out = r.status();
      }
      group.done();
    };
    auto unlink_host = [](Plfs& p, pfs::IoCtx c, std::string path, Status& out,
                          sim::WaitGroup& group) -> sim::Task<void> {
      const Status st = co_await p.unlink_retried(c, std::move(path));
      // Replicated submits are at-least-once: a lost ack makes the retry
      // re-apply the unlink and see not_found. The record is per-rank, so
      // already-gone is success.
      if (!st.ok() && st.code() != Errc::not_found) out = st;
      group.done();
    };
    wg.add(2);
    plfs_->engine().spawn(
        dropping(*plfs_, ctx_, layout_.meta_dropping_path(rank_, high_water_), drop_st, wg));
    plfs_->engine().spawn(
        unlink_host(*plfs_, ctx_, layout_.openhost_record_path(rank_), host_st, wg));
    co_await wg.wait();
    TIO_CO_RETURN_IF_ERROR(drop_st);
    TIO_CO_RETURN_IF_ERROR(host_st);
  } else {
    auto drop = co_await plfs_->open_retried(ctx_, layout_.meta_dropping_path(rank_, high_water_),
                                             OpenFlags::wr_create());
    if (!drop.ok()) co_return drop.status();
    TIO_CO_RETURN_IF_ERROR(co_await plfs_->close_retried(ctx_, *drop));
    const Status host_gone =
        co_await plfs_->unlink_retried(ctx_, layout_.openhost_record_path(rank_));
    // See the batched branch: tolerate a lost-ack retry's not_found.
    if (!host_gone.ok() && host_gone.code() != Errc::not_found) co_return host_gone;
  }
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
                            co_await readdir_retried(ctx, lay.canonical_container()));
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
      auto entries = co_await readdir_retried(ctx, subdir);
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
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await open_retried(ctx, path, OpenFlags::ro()));
  auto data = co_await read_retried(ctx, fd, 0, std::numeric_limits<std::int64_t>::max());
  TIO_CO_RETURN_IF_ERROR(co_await close_retried(ctx, fd));
  if (!data.ok()) co_return data.status();
  const std::string container = path_normalize(logical);
  const std::uint64_t gen = cache_.generation(container);
  static Counter& log_bytes_read = counter("plfs.index.log_bytes_read");
  log_bytes_read.add(data->size());
  auto cached = cache_.get_log(container, path);
  if (cached == nullptr) {
    auto entries = decode_entries(*data);  // auto-detects wire v1 / v2
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
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await open_retried(ctx, path, OpenFlags::ro()));
  auto data = co_await read_retried(ctx, fd, 0, std::numeric_limits<std::int64_t>::max());
  TIO_CO_RETURN_IF_ERROR(co_await close_retried(ctx, fd));
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
  TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await open_retried(ctx, path, OpenFlags::wr_trunc()));
  auto bytes = serialize_entries_with_trailer(index.to_entries());
  static Counter& global_bytes_written = counter("plfs.index.global_bytes_written");
  global_bytes_written.add(bytes.size());
  auto written = co_await write_fully(ctx, fd, 0, DataView::literal(std::move(bytes)),
                                      path_op_key(path));
  const Status closed = co_await close_retried(ctx, fd);
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
  const auto it = data_fds_.find(writer);
  if (it != data_fds_.end()) co_return it->second;
  // The log normally lives on its hashed home backend; after an MDS
  // failover it may sit anywhere on the federation ring, so probe
  // (home + j) % B on not_found.
  const int rank = static_cast<int>(writer);
  const std::size_t home = layout_.subdir_backend(layout_.subdir_of_rank(rank));
  Result<pfs::FileId> fd = error(Errc::not_found, "no backend holds the data log");
  for (std::size_t j = 0; j < layout_.num_backends(); ++j) {
    fd = co_await plfs_->open_retried(
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
    TIO_CO_ASSIGN_OR_RETURN(pfs::FileId fd, co_await data_fd(m.writer));
    auto piece = co_await plfs_->read_retried(ctx_, fd, m.physical_offset, m.length);
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
    TIO_CO_RETURN_IF_ERROR(co_await plfs_->close_retried(ctx_, fd));
  }
  data_fds_.clear();
  closed_ = true;
  co_return Status::Ok();
}

sim::Task<Result<bool>> Plfs::is_container(pfs::IoCtx ctx, const std::string& logical) {
  ContainerLayout lay = layout(logical);
  auto st = co_await stat_retried(ctx, lay.access_path());
  if (st.ok()) co_return true;
  if (st.status().code() == Errc::not_found) co_return false;
  co_return st.status();
}

sim::Task<Result<std::uint64_t>> Plfs::logical_size(pfs::IoCtx ctx, const std::string& logical) {
  ContainerLayout lay = layout(logical);
  auto entries = co_await readdir_retried(ctx, lay.meta_dir());
  if (!entries.ok()) co_return entries.status();
  std::uint64_t size = 0;
  for (const auto& e : *entries) {
    std::uint32_t writer = 0;
    std::uint64_t s = 0;
    if (parse_meta_dropping_name(e.name, &writer, &s)) size = std::max(size, s);
  }
  co_return size;
}

sim::Task<Result<std::vector<pfs::DirEntry>>> Plfs::readdir(pfs::IoCtx ctx,
                                                            std::string logical_dir) {
  std::vector<pfs::DirEntry> out;
  for (const auto& backend : mount_.backends) {
    auto entries = co_await readdir_retried(ctx, path_join(backend, logical_dir));
    if (!entries.ok()) {
      if (entries.status().code() == Errc::not_found) continue;
      co_return entries.status();
    }
    for (const auto& e : *entries) {
      if (std::any_of(out.begin(), out.end(),
                      [&](const pfs::DirEntry& seen) { return seen.name == e.name; })) {
        continue;
      }
      pfs::DirEntry entry = e;
      if (e.is_dir) {
        TIO_CO_ASSIGN_OR_RETURN(bool container,
                                co_await is_container(ctx, path_join(logical_dir, e.name)));
        if (container) entry.is_dir = false;  // containers are logical files
      }
      out.push_back(std::move(entry));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const pfs::DirEntry& a, const pfs::DirEntry& b) { return a.name < b.name; });
  co_return out;
}

sim::Task<Status> Plfs::mkdir(pfs::IoCtx ctx, std::string logical_dir) {
  for (const auto& backend : mount_.backends) {
    TIO_CO_RETURN_IF_ERROR(co_await ensure_dir(ctx, path_join(backend, logical_dir)));
  }
  co_return Status::Ok();
}

sim::Task<Status> Plfs::unlink(pfs::IoCtx ctx, const std::string& logical) {
  ContainerLayout lay = layout(logical);
  cache_.invalidate(path_normalize(logical));
  TIO_CO_ASSIGN_OR_RETURN(bool container, co_await is_container(ctx, logical));
  if (!container) co_return error(Errc::not_found, logical);
  for (std::size_t b = 0; b < mount_.backends.size(); ++b) {
    const std::string root = lay.container_on(b);
    auto entries = co_await readdir_retried(ctx, root);
    if (!entries.ok()) {
      if (entries.status().code() == Errc::not_found) continue;
      co_return entries.status();
    }
    for (const auto& e : *entries) {
      const std::string child = path_join(root, e.name);
      if (e.is_dir) {
        auto inner = co_await readdir_retried(ctx, child);
        if (inner.ok()) {
          for (const auto& f : *inner) {
            TIO_CO_RETURN_IF_ERROR(co_await unlink_retried(ctx, path_join(child, f.name)));
          }
        }
        TIO_CO_RETURN_IF_ERROR(co_await rmdir_retried(ctx, child));
      } else {
        TIO_CO_RETURN_IF_ERROR(co_await unlink_retried(ctx, child));
      }
    }
    TIO_CO_RETURN_IF_ERROR(co_await rmdir_retried(ctx, root));
  }
  co_return Status::Ok();
}

}  // namespace tio::plfs
