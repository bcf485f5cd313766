#include "pfs/sim_pfs.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "common/strutil.h"
#include "common/trace.h"
#include "net/topology.h"
#include "pfs/faulty_fs.h"

namespace tio::pfs {

namespace {

struct BatchCounters {
  Counter& rpcs = counter("pfs.batch.rpcs");
  Counter& ops = counter("pfs.batch.ops");
  Counter& flush_full = counter("pfs.batch.flush_full");
  Counter& flush_linger = counter("pfs.batch.flush_linger");
  Counter& failures = counter("pfs.batch.failures");
  // Client->MDS round trips that carry mutations: the denominator of the
  // batching win (one per unbatched directory insert, create RPC and raft
  // submit, one per flushed batch regardless of its size).
  Counter& mutation_round_trips = counter("pfs.meta.mutation_round_trips");
};

BatchCounters& bc() {
  static BatchCounters counters;
  return counters;
}

// Flush latency (first enqueue -> every waiter woken), feeding the
// pfs.batch.flush histogram alongside the raft/plfs span families.
const trace::SpanSite& batch_flush_site() {
  static trace::SpanSite site("pfs.batch", "pfs.batch.flush");
  return site;
}

}  // namespace

std::string_view mds_replication_name(MdsReplication m) {
  switch (m) {
    case MdsReplication::none: return "none";
    case MdsReplication::raft: return "raft";
  }
  return "?";
}

// The replicated state machine: MetaCommands applied to ns_ at commit.
// apply() runs exactly once per committed index group-wide (the Raft layer
// guarantees it), so the creates counter and object table mutations happen
// once no matter how many replicas or client retries were involved.
struct SimPfs::MetaSm : raft::StateMachine {
  explicit MetaSm(SimPfs& fs) : fs(fs) {}

  // Every log entry is a MetaBatch (an unbatched mutation is a batch of
  // one): one committed entry, N mutations. Entries apply in submission
  // order; each one is individually idempotent, so re-applying a
  // duplicated batch is harmless.
  MetaBatchApply apply(raft::Index, const MetaBatch& batch) override {
    applied_ops += batch.cmds.size();
    MetaBatchApply out;
    out.results.reserve(batch.cmds.size());
    for (const MetaCommand& mc : batch.cmds) out.results.push_back(fs.apply_meta(mc));
    return out;
  }

  // The replication round is amortized; the per-entry MDS service time is
  // not — every insert still pays the directory-degraded cost.
  Duration apply_service(const MetaBatch& batch) const override {
    Duration d = Duration::zero();
    for (const MetaCommand& mc : batch.cmds) d += fs.meta_service(mc);
    return d;
  }

  std::uint64_t snapshot_bytes() const override { return 4096 + 128 * applied_ops; }

  SimPfs& fs;
  std::uint64_t applied_ops = 0;
};

MetaApply SimPfs::apply_meta(const MetaCommand& mc) {
  MetaApply out;
  switch (mc.kind) {
    case MetaCommand::Kind::create: {
      auto created = ns_.create_file(mc.path, mc.excl);
      if (!created.ok()) {
        out.status = created.status();
        break;
      }
      out.oid = created->oid;
      out.created = created->created;
      if (created->created) {
        ++stats_.creates;
        object(out.oid).mtime = engine().now();
      }
      break;
    }
    case MetaCommand::Kind::mkdir:
      out.status = ns_.mkdir(mc.path);
      break;
    case MetaCommand::Kind::unlink: {
      auto removed = ns_.unlink(mc.path);
      if (!removed.ok()) {
        out.status = removed.status();
        break;
      }
      if (removed.value() < objects_.size()) objects_[removed.value()] = Object{};
      break;
    }
  }
  // Invalidation-on-mutation: cached leases for the touched path drop on
  // every node before the mutator is acked.
  if (meta_cache_) meta_cache_->invalidate(mc.path);
  return out;
}

Duration SimPfs::dir_insert_service(PathId dir) const {
  const std::uint64_t entries = ns_.dir_entry_count(dir);
  const double degrade =
      1.0 + static_cast<double>(entries) / static_cast<double>(config_.dir_degrade_entries);
  return Duration::seconds(config_.dir_insert_time.to_seconds() * degrade);
}

Duration SimPfs::meta_service(const MetaCommand& mc) const {
  // Same serialized-insert degradation as an unbatched, unreplicated
  // mutation's directory insert: the log (or the batch) already serializes
  // mutations, but each one still costs directory-size-dependent MDS
  // service time.
  const Duration insert = dir_insert_service(ns_.parent(mc.path));
  return mc.kind == MetaCommand::Kind::create ? insert + config_.mds_create_time : insert;
}

SimPfs::SimPfs(net::Cluster& cluster, PfsConfig config)
    : cluster_(cluster), config_(std::move(config)), ns_(config_.num_mds) {
  group_epochs_.assign(config_.num_mds, 0);
  forming_.assign(config_.num_mds, nullptr);
  if (config_.meta_lease > Duration::zero()) {
    meta_cache_ = std::make_unique<MetaCache>(engine(), config_.meta_lease);
  }
  for (std::size_t i = 0; i < config_.num_mds; ++i) {
    mds_.push_back(std::make_unique<sim::FcfsServer>(engine(), config_.mds_concurrency,
                                                     str_printf("mds-%zu", i)));
  }
  for (std::size_t i = 0; i < config_.num_osts; ++i) {
    osts_.push_back(std::make_unique<Ost>(engine(), config_, str_printf("ost-%zu", i)));
  }
  if (config_.mds_replication == MdsReplication::raft) {
    meta_sm_ = std::make_unique<MetaSm>(*this);
    raft::RaftConfig rc;
    rc.replicas = std::max<std::size_t>(1, config_.mds_replicas);
    rc.server_concurrency = config_.mds_concurrency;
    rc.rpc_overhead = config_.rpc_overhead;
    rc.heartbeat = config_.raft_heartbeat;
    rc.election_min = config_.raft_election_min;
    rc.election_jitter = config_.raft_election_jitter;
    rc.request_timeout = config_.raft_request_timeout;
    rc.commit_timeout = config_.raft_commit_timeout;
    rc.redirect_backoff = config_.raft_redirect_backoff;
    rc.compact_threshold = config_.raft_compact_threshold;
    rc.compact_keep = config_.raft_compact_keep;
    for (std::size_t g = 0; g < config_.num_mds; ++g) {
      // Replica r of group g lands on node (g + r*groups) % nodes: distinct
      // nodes per group when the cluster is big enough, offset by group so
      // leaders scatter.
      std::vector<std::size_t> placement;
      for (std::size_t r = 0; r < rc.replicas; ++r) {
        placement.push_back((g + r * config_.num_mds) % cluster_.nodes());
      }
      raft_groups_.push_back(std::make_unique<raft::Group>(engine(), cluster_, *meta_sm_, rc,
                                                           g, std::move(placement)));
    }
  }
}

SimPfs::~SimPfs() = default;

void SimPfs::schedule_server_faults(const FaultPlan& plan) {
  if (!replicated()) return;
  if (const Status st = plan.check_targets(raft_groups_.size(), raft_group(0).replicas());
      !st.ok()) {
    throw std::invalid_argument(st.message());
  }
  // Every fault event conservatively revokes the group's client leases:
  // epoch bumps are cheap, and a cache that re-validates after a failover
  // can never serve a stale entry across it.
  for (const ServerOutage& so : plan.server_outages) {
    const auto gi = static_cast<std::size_t>(so.mds);
    raft::Group& g = raft_group(gi);
    // The victim is resolved when the window opens (replica == -1 means
    // "whoever leads then"); the shared slot carries it to the restart.
    auto victim = std::make_shared<std::size_t>(0);
    engine().at(so.begin, [this, gi, &g, victim, want = so.replica] {
      const int leader = g.leader_or_negative();
      *victim = want >= 0 ? static_cast<std::size_t>(want)
                          : static_cast<std::size_t>(leader >= 0 ? leader : 0);
      g.crash(*victim);
      revoke_leases(gi);
    });
    engine().at(so.end, [this, gi, &g, victim] {
      g.restart(*victim);
      revoke_leases(gi);
    });
  }
  for (const PartitionWindow& pw : plan.partitions) {
    const auto gi = static_cast<std::size_t>(pw.mds);
    raft::Group& g = raft_group(gi);
    auto victim = std::make_shared<std::size_t>(0);
    engine().at(pw.begin, [this, gi, &g, victim] {
      const int leader = g.leader_or_negative();
      *victim = static_cast<std::size_t>(leader >= 0 ? leader : 0);
      g.set_partitioned(*victim, true);
      revoke_leases(gi);
    });
    engine().at(pw.end, [this, gi, &g, victim] {
      g.set_partitioned(*victim, false);
      revoke_leases(gi);
    });
  }
}

std::size_t SimPfs::mds_of_path(std::string_view path) const { return ns_.group_of(path); }

std::size_t SimPfs::parent_group(PathId parent, std::string_view path) const {
  // An uninterned parent means the path has two or more components, so its
  // parent shares the path's top-level component.
  return parent != kNoPath ? ns_.group(parent) : ns_.group_of(path);
}

SimPfs::Object& SimPfs::object(ObjectId oid) {
  if (oid >= objects_.size()) objects_.resize(oid + 1);
  Object& o = objects_[oid];
  o.live = true;
  return o;
}

const ExtentMap* SimPfs::object_extents(ObjectId oid) const {
  if (oid >= objects_.size() || !objects_[oid].live) return nullptr;
  return &objects_[oid].data;
}

Result<const SimPfs::OpenFile*> SimPfs::handle(FileId file) const {
  if (file == 0 || file > open_files_.size() || open_files_[file - 1].oid == kNoObject) {
    return error(Errc::bad_handle, str_printf("fd %llu", static_cast<unsigned long long>(file)));
  }
  return &open_files_[file - 1];
}

sim::Mutex& SimPfs::dir_mutex(PathId dir) {
  auto& slot = dir_mutexes_[dir];
  if (!slot) slot = std::make_unique<sim::Mutex>(engine());
  return *slot;
}

sim::Task<Status> SimPfs::mds_op(IoCtx ctx, std::size_t g, Duration service) {
  ++stats_.metadata_ops;
  if (replicated()) return raft_groups_[g]->serve_read(ctx.node, ctx.rank, service);
  return mds_visit(g, service);
}

sim::Task<Status> SimPfs::mds_visit(std::size_t g, Duration service) {
  co_await engine().sleep(config_.rpc_overhead + cluster_.storage_latency());
  co_await mds_[g]->serve(service);
  co_return Status::Ok();
}

std::uint64_t SimPfs::wire_bytes(const MetaBatch& batch) const {
  std::uint64_t bytes = 32;
  for (const MetaCommand& mc : batch.cmds) bytes += 48 + ns_.path_length(mc.path);
  return bytes;
}

sim::Task<Result<MetaBatchApply>> SimPfs::raft_apply(IoCtx ctx, std::size_t g, MetaBatch batch) {
  const std::uint64_t bytes = wire_bytes(batch);
  return raft_groups_[g]->submit(ctx.node, ctx.rank, std::move(batch), bytes);
}

sim::Task<Result<MetaApply>> SimPfs::mutate(IoCtx ctx, MetaCommand cmd) {
  const PathId parent = ns_.parent(cmd.path);
  const std::size_t g = ns_.group(parent);
  if (config_.mds_batch > 0) return batch_submit(ctx, g, std::move(cmd));
  return mutate_unbatched(ctx, parent, g, std::move(cmd));
}

sim::Task<Result<MetaApply>> SimPfs::mutate_unbatched(IoCtx ctx, PathId parent, std::size_t g,
                                                      MetaCommand cmd) {
  if (replicated()) {
    // The mutation is acked only after the group leader committed and
    // applied it: the caller's existence checks are advisory, the apply
    // inside the log is authoritative.
    ++stats_.metadata_ops;
    bc().mutation_round_trips.add();
    MetaBatch one;
    one.cmds.push_back(std::move(cmd));
    TIO_CO_ASSIGN_OR_RETURN(MetaBatchApply applied,
                            co_await raft_apply(ctx, g, std::move(one)));
    if (applied.results.size() != 1) {
      co_return error(Errc::io_error, "raft: malformed apply result");
    }
    co_return applied.results.front();
  }
  // Unreplicated: the directory-degraded insert at the parent's MDS,
  // serialized under the directory's insert lock; a create then pays its
  // own object-creation round trip. Unreplicated MDS visits cannot fail.
  bc().mutation_round_trips.add();
  sim::Mutex& mu = dir_mutex(parent);
  co_await mu.lock();
  co_await mds_op(ctx, g, dir_insert_service(parent));
  mu.unlock();
  if (cmd.kind == MetaCommand::Kind::create) {
    bc().mutation_round_trips.add();
    co_await mds_op(ctx, g, config_.mds_create_time);
  }
  co_return apply_meta(cmd);
}

sim::Task<Status> SimPfs::mutate_status(IoCtx ctx, MetaCommand cmd) {
  const Result<MetaApply> applied = co_await mutate(ctx, cmd);
  if (!applied.ok()) co_return applied.status();
  co_return applied->status;
}

sim::Task<Status> SimPfs::failed_op(IoCtx ctx, std::size_t g, Status failure) {
  TIO_CO_RETURN_IF_ERROR(co_await mds_op(ctx, g, config_.mds_open_time));
  co_return failure;
}

// ------------------------------------------------- batched mutation client

sim::Task<Result<MetaApply>> SimPfs::batch_submit(IoCtx ctx, std::size_t g, MetaCommand cmd) {
  std::shared_ptr<PendingBatch>& slot = forming_[g];
  if (!slot) {
    slot = std::make_shared<PendingBatch>(engine());
    slot->ctx = ctx;
    // Linger flush: a partial batch never waits longer than the linger
    // bound for stragglers. The captured pointer distinguishes this batch
    // from successors, so a size-triggered flush makes the timer a no-op.
    engine().after(config_.mds_batch_linger, [this, g, armed = slot] {
      if (forming_[g] == armed) {
        bc().flush_linger.add();
        flush_batch(g);
      }
    });
  }
  auto pending = slot;
  const std::size_t idx = pending->batch.cmds.size();
  pending->batch.cmds.push_back(std::move(cmd));
  bc().ops.add();
  if (pending->batch.cmds.size() >= config_.mds_batch) {
    bc().flush_full.add();
    flush_batch(g);
  }
  co_await pending->gate.wait();
  if (!pending->fail.ok()) co_return pending->fail;
  if (!pending->done || idx >= pending->results.size()) {
    co_return error(Errc::io_error, "meta batch: malformed batch result");
  }
  co_return pending->results[idx];
}

void SimPfs::flush_batch(std::size_t g) {
  std::shared_ptr<PendingBatch> pending = std::move(forming_[g]);
  forming_[g] = nullptr;
  if (!pending || pending->batch.cmds.empty()) return;
  engine().spawn(run_batch(g, std::move(pending)));
}

sim::Task<void> SimPfs::run_batch(std::size_t g, std::shared_ptr<PendingBatch> pending) {
  const std::int64_t start_ns = engine().now().to_ns();
  const std::size_t n = pending->batch.cmds.size();
  bc().rpcs.add();
  bc().mutation_round_trips.add();
  static Histogram& occupancy = histogram("pfs.batch.occupancy");
  occupancy.record(static_cast<std::int64_t>(n));
  ++stats_.metadata_ops;
  if (replicated()) {
    // One Raft command carries the whole batch: one replication round, one
    // commit-wait, N applied mutations with per-entry outcomes.
    auto applied = co_await raft_apply(pending->ctx, g, std::move(pending->batch));
    if (!applied.ok()) {
      bc().failures.add();
      pending->fail = applied.status();
    } else {
      pending->results = std::move(applied->results);
      pending->done = true;
    }
  } else {
    // Unreplicated: one client round trip for the whole batch; the MDS
    // still serves every entry's directory-degraded insert cost through
    // its FCFS queue before applying it.
    co_await engine().sleep(config_.rpc_overhead + cluster_.storage_latency());
    pending->results.reserve(n);
    for (const MetaCommand& mc : pending->batch.cmds) {
      co_await mds_[g]->serve(meta_service(mc));
      pending->results.push_back(apply_meta(mc));
    }
    pending->done = true;
  }
  trace::record_span(engine(), batch_flush_site(), pending->ctx.rank, start_ns);
  pending->gate.open();
}

// ------------------------------------------------ leased client-side cache

bool SimPfs::cache_lookup(const IoCtx& ctx, PathId path, MetaCache::Entry* out) {
  if (!meta_cache_) return false;
  // An uninterned path was never leased: any epoch misses the same way.
  const std::uint64_t epoch = path == kNoPath ? 0 : group_epochs_[ns_.group(path)];
  const MetaCache::Entry* e = meta_cache_->lookup(ctx.node, path, epoch);
  if (e == nullptr) return false;
  if (out != nullptr) *out = *e;
  return true;
}

void SimPfs::cache_insert(const IoCtx& ctx, PathId path, ObjectId oid, bool is_dir) {
  if (!meta_cache_) return;
  meta_cache_->insert(ctx.node, path, oid, is_dir, group_epochs_[ns_.group(path)]);
}

sim::Task<Result<FileId>> SimPfs::open(IoCtx ctx, std::string path, OpenFlags flags) {
  if (!flags.read && !flags.write) {
    co_return error(Errc::invalid, "open needs read or write: " + path);
  }
  const Namespace::Resolved r = ns_.resolve(path);
  ++stats_.opens;

  // Every open but a create or a lease hit pays the parent's MDS open round
  // trip, failed opens included, at one await site: each await site holds
  // its own temporaries in every open's frame.
  ObjectId oid = kNoObject;
  PathId id = r.id;
  Status failure;
  Duration service = config_.mds_open_time;
  bool rpc = true;
  Object* existing = nullptr;
  if (ns_.present(id)) {
    const Namespace::Entry entry = ns_.lookup(id).value();
    if (entry.is_dir) {
      failure = error(Errc::is_a_directory, path);
    } else if (flags.create && flags.excl) {
      failure = error(Errc::exists, path);
    } else {
      oid = entry.oid;
      existing = &object(oid);
      // A miss (or cache off) pays the MDS round trip, then leases the
      // dentry so this node's repeat opens within the TTL stay local.
      rpc = !cache_lookup(ctx, id);
      if (existing->dentry_hot) service = config_.mds_cached_open_time;
    }
  } else if (!flags.create) {
    failure = error(Errc::not_found, path);
  } else if (!ns_.present(r.parent)) {
    failure = error(Errc::not_found, "parent of " + path);
  } else {
    // Creation: serialized insert into the parent directory.
    if (id == kNoPath) id = ns_.intern(r.parent, r.leaf);
    const Result<MetaApply> applied =
        co_await mutate(ctx, MetaCommand{MetaCommand::Kind::create, id, flags.excl});
    if (!applied.ok()) co_return applied.status();
    if (!applied->status.ok()) co_return applied->status;
    oid = applied->oid;
    rpc = false;
  }
  if (rpc) {
    const Status visited = co_await mds_op(ctx, parent_group(r.parent, path), service);
    if (!visited.ok()) co_return visited;
    if (!failure.ok()) co_return failure;
    cache_insert(ctx, id, oid, /*is_dir=*/false);
  }
  if (existing != nullptr) {
    existing->dentry_hot = true;
    if (flags.trunc && flags.write) {
      existing->data.clear();
      existing->size = 0;
      existing->mtime = engine().now();
    }
  }

  open_files_.push_back(OpenFile{oid, r.parent, flags.read, flags.write});
  co_return FileId{open_files_.size()};
}

sim::Task<Status> SimPfs::close(IoCtx ctx, FileId file) {
  TIO_CO_ASSIGN_OR_RETURN(const OpenFile* of, handle(file));
  const std::size_t g = ns_.group(of->parent_dir);
  // Keep the handle until the MDS round trip succeeds: in replicated mode
  // the round trip can fail transiently (request timeout, leader change),
  // and RetryingFs::close reissues the same fd — the retry must find it.
  TIO_CO_RETURN_IF_ERROR(co_await mds_op(ctx, g, config_.mds_close_time));
  open_files_[file - 1].oid = kNoObject;
  co_return Status::Ok();
}

bool SimPfs::locks_cached(ObjectId oid, int rank, std::uint64_t offset,
                          std::uint64_t len) const {
  const auto owner = static_cast<std::uint32_t>(rank) + 1;
  const std::uint64_t last = (offset + len - 1) / config_.lock_range;
  for (std::uint64_t r = offset / config_.lock_range; r <= last; ++r) {
    const std::uint32_t* held = lock_owner_.find(ObjectBlock{oid, r});
    if (held == nullptr || *held != owner) return false;
  }
  return true;
}

sim::Task<void> SimPfs::acquire_write_locks(IoCtx ctx, ObjectId oid, Object& obj,
                                            std::uint64_t offset, std::uint64_t len) {
  const std::uint64_t first = offset / config_.lock_range;
  const std::uint64_t last = (offset + len - 1) / config_.lock_range;
  const auto owner = static_cast<std::uint32_t>(ctx.rank) + 1;
  for (std::uint64_t r = first; r <= last; ++r) {
    // Looked up afresh per range: the map may rehash while this suspends.
    const ObjectBlock key{oid, r};
    const std::uint32_t* found = lock_owner_.find(key);
    const std::uint32_t held = found != nullptr ? *found : 0;
    if (held == owner) continue;  // cached lock
    if (held == 0) {
      ++stats_.lock_grants;
      co_await engine().sleep(config_.lock_grant_time);
    } else {
      // Ownership transfer: revoke from the current holder, serialized at
      // the object's lock manager. Revocation synchronously flushes the
      // previous owner's dirty data for the range (approximated by the
      // incoming write's scale) before the new owner may proceed.
      ++stats_.lock_transfers;
      if (!obj.lock_mgr) obj.lock_mgr = std::make_unique<sim::FcfsServer>(engine(), 1, "lockmgr");
      const std::uint64_t flush_bytes =
          std::min(config_.lock_range, std::max(len, config_.rmw_page));
      co_await obj.lock_mgr->serve(config_.lock_transfer_time +
                                   transfer_time(flush_bytes, config_.ost_bandwidth));
    }
    lock_owner_[key] = owner;
  }
}

sim::Task<void> SimPfs::data_path(IoCtx ctx, ObjectId oid, std::uint64_t offset,
                                  std::uint64_t len, bool is_write) {
  (void)ctx;
  // Write-behind: the client pipelines dirty data to the server, so writes
  // pay bandwidth but not a per-op round trip; reads are synchronous.
  if (!is_write) {
    co_await engine().sleep(cluster_.storage_latency());
  }
  // The network transfer and the disk work pipeline (servers stream while
  // platters seek), so they run concurrently: the request takes the longer
  // of the two, not their sum.
  sim::WaitGroup net_wg(engine());
  net_wg.add();
  engine().spawn([](net::Cluster& cluster, std::uint64_t bytes,
                    sim::WaitGroup& wg) -> sim::Task<void> {
    co_await cluster.storage_net().transfer(bytes);
    wg.done();
  }(cluster_, len, net_wg));

  // Striped OST I/O. Pieces beyond stripe_parallelism are merged into
  // contiguous segments so a huge request costs O(parallelism) events.
  const std::uint64_t unit = config_.stripe_unit;
  const std::uint64_t first_piece = offset / unit;
  const std::uint64_t last_piece = (offset + len - 1) / unit;
  const std::uint64_t pieces = last_piece - first_piece + 1;
  const std::uint64_t segments =
      std::min<std::uint64_t>(pieces, std::max<std::size_t>(1, config_.stripe_parallelism));

  const std::size_t width = std::max<std::size_t>(1, std::min(config_.stripe_width,
                                                               osts_.size()));
  const std::size_t shelf = static_cast<std::size_t>(oid) % osts_.size();
  auto ost_of = [&](std::uint64_t piece) -> Ost& {
    return *osts_[(shelf + static_cast<std::size_t>(piece) % width) % osts_.size()];
  };
  if (segments == 1) {  // fast path: no extra fan-out for small ops
    co_await ost_of(first_piece).io(oid, offset, len, is_write);
    co_await net_wg.wait();
    co_return;
  }

  sim::WaitGroup wg(engine());
  auto issue = [](Ost& ost, ObjectId o, std::uint64_t off, std::uint64_t n, bool w,
                  sim::WaitGroup& group) -> sim::Task<void> {
    co_await ost.io(o, off, n, w);
    group.done();
  };
  const std::uint64_t span = offset + len;
  for (std::uint64_t s = 0; s < segments; ++s) {
    const std::uint64_t seg_start = std::max(offset, (first_piece + s * pieces / segments) * unit);
    const std::uint64_t seg_end =
        s + 1 == segments ? span
                          : std::min(span, (first_piece + (s + 1) * pieces / segments) * unit);
    if (seg_end <= seg_start) continue;
    Ost& ost = ost_of(first_piece + s);  // round-robin arms per segment
    wg.add();
    engine().spawn(issue(ost, oid, seg_start, seg_end - seg_start, is_write, wg));
  }
  co_await wg.wait();
  co_await net_wg.wait();
}

sim::Task<Result<std::uint64_t>> SimPfs::write(IoCtx ctx, FileId file, std::uint64_t offset,
                                               DataView data) {
  TIO_CO_ASSIGN_OR_RETURN(const OpenFile* of, handle(file));
  if (!of->writable) co_return error(Errc::permission, "fd not writable");
  if (data.empty()) co_return std::uint64_t{0};
  const ObjectId oid = of->oid;  // `of` dangles once an open grows the table
  Object& o = object(oid);
  const std::uint64_t len = data.size();

  if (!locks_cached(oid, ctx.rank, offset, len)) {
    co_await acquire_write_locks(ctx, oid, o, offset, len);
  }
  // Read-modify-write penalty: unaligned data arriving anywhere but the
  // current end of file forces partial-page (parity-stripe) RMW at the
  // server. In-order appends coalesce in the write-behind cache and are
  // exempt — which is exactly what PLFS's log-structuring guarantees.
  const bool in_order_append = offset == o.size;
  const bool aligned =
      offset % config_.rmw_page == 0 && (offset + len) % config_.rmw_page == 0;
  if (!in_order_append && !aligned) {
    ++stats_.rmw_reads;
    const std::uint64_t page_start = offset - offset % config_.rmw_page;
    co_await data_path(ctx, oid, page_start, config_.rmw_page, /*is_write=*/false);
  }

  co_await data_path(ctx, oid, offset, len, /*is_write=*/true);

  o.data.write(offset, std::move(data));
  o.size = std::max(o.size, offset + len);
  o.mtime = engine().now();
  cluster_.page_cache(ctx.node).fill(oid, offset, len);
  stats_.bytes_written += len;
  co_return len;
}

sim::Task<Result<FragmentList>> SimPfs::read(IoCtx ctx, FileId file, std::uint64_t offset,
                                             std::uint64_t len) {
  TIO_CO_ASSIGN_OR_RETURN(const OpenFile* of, handle(file));
  if (!of->readable) co_return error(Errc::permission, "fd not readable");
  const ObjectId oid = of->oid;  // `of` dangles once an open grows the table
  Object& o = object(oid);
  if (offset >= o.size) co_return FragmentList{};  // EOF
  len = std::min(len, o.size - offset);
  if (len == 0) co_return FragmentList{};

  net::PageCache& cache = cluster_.page_cache(ctx.node);
  std::vector<net::ByteRange> misses;
  const std::uint64_t hit = cache.lookup(oid, offset, len, &misses);
  stats_.cache_hit_bytes += hit;
  if (hit > 0) {
    co_await engine().sleep(transfer_time(hit, cluster_.cached_read_rate()));
  }
  const std::uint64_t block = cluster_.config().page_cache_block;
  for (const auto& m : misses) {
    // Page-cache I/O is block granular: expand the miss to block boundaries
    // (clipped at EOF), charge the full transfer, and cache what was paid
    // for. This is what makes sequential log reads prefetch-friendly.
    const std::uint64_t lo = m.offset / block * block;
    const std::uint64_t hi = std::min(o.size, (m.offset + m.len + block - 1) / block * block);
    co_await data_path(ctx, oid, lo, hi - lo, /*is_write=*/false);
    cache.fill(oid, lo, hi - lo);
  }
  stats_.bytes_read += len;
  co_return o.data.read(offset, len);
}

// create (in open), mkdir and unlink each build one MetaCommand and
// route it through mutate(); apply_meta is what changes the namespace.
sim::Task<Status> SimPfs::mkdir(IoCtx ctx, std::string path) {
  const Namespace::Resolved r = ns_.resolve(path);
  if (!ns_.present(r.parent)) {
    return failed_op(ctx, parent_group(r.parent, path), error(Errc::not_found, "parent of " + path));
  }
  const PathId id = r.id != kNoPath ? r.id : ns_.intern(r.parent, r.leaf);
  return mutate_status(ctx, MetaCommand{MetaCommand::Kind::mkdir, id});
}

sim::Task<Status> SimPfs::unlink(IoCtx ctx, std::string path) {
  return mutate_status(ctx, MetaCommand{MetaCommand::Kind::unlink, ns_.intern(path)});
}

StatInfo SimPfs::stat_info(bool is_dir, ObjectId oid) const {
  StatInfo info;
  info.is_dir = is_dir;
  if (!is_dir && oid < objects_.size()) {
    info.size = objects_[oid].size;
    info.mtime = objects_[oid].mtime;
  }
  return info;
}

sim::Task<Result<StatInfo>> SimPfs::stat(IoCtx ctx, std::string path) {
  const Namespace::Resolved r = ns_.resolve(path);
  MetaCache::Entry lease;
  if (cache_lookup(ctx, r.id, &lease)) {
    // Lease hit: attributes served from the client cache, no MDS round
    // trip. Sizes/mtimes come from the shared truth — the lease only
    // vouches for existence and identity, which invalidation-on-mutation
    // and epoch revocation keep safe.
    co_return stat_info(lease.is_dir, lease.oid);
  }
  TIO_CO_RETURN_IF_ERROR(co_await mds_op(ctx, parent_group(r.parent, path),
                                         config_.mds_stat_time));
  // The path may have been created while the MDS round trip was in flight.
  const PathId id = r.id != kNoPath ? r.id : ns_.find(path);
  if (!ns_.present(id)) co_return error(Errc::not_found, path);
  const Namespace::Entry entry = ns_.lookup(id).value();
  cache_insert(ctx, id, entry.is_dir ? kNoObject : entry.oid, entry.is_dir);
  co_return stat_info(entry.is_dir, entry.oid);
}

sim::Task<Result<std::vector<DirEntry>>> SimPfs::readdir(IoCtx ctx, std::string path) {
  const PathId id = ns_.find(path);
  Result<std::vector<DirEntry>> entries = error(Errc::not_found, path);
  if (ns_.present(id)) entries = ns_.readdir(id);
  const std::size_t n = entries.ok() ? entries->size() : 0;
  const std::size_t g = id != kNoPath ? ns_.group(id) : ns_.group_of(path);
  TIO_CO_RETURN_IF_ERROR(co_await mds_op(ctx, g, config_.mds_open_time +
                                                     config_.mds_readdir_per_entry *
                                                         static_cast<std::int64_t>(n)));
  co_return entries;
}

void SimPfs::drop_caches() {
  // A restart happens long after the checkpoint: client caches and server
  // DRAM are both cold.
  for (std::size_t n = 0; n < cluster_.nodes(); ++n) cluster_.page_cache(n).clear();
  for (auto& ost : osts_) ost->drop_cache();
}

}  // namespace tio::pfs
