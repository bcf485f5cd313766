// SimPfs: the simulated underlying parallel file system ("PanFS-like").
//
// Combines:
//   * a real in-memory namespace + per-file extent maps (data is verifiable),
//   * metadata servers modeled as FCFS queues with per-directory serialized
//     inserts that degrade as directories grow,
//   * OSTs with seek/stream/prefetch behaviour behind the cluster's shared
//     storage network,
//   * a range-lock manager charging ownership transfers when multiple nodes
//     write the same regions of one file — the N-1 serialization the paper's
//     middleware removes,
//   * the cluster's per-node page caches.
//
// Metadata placement: the top-level path component ("/vol3/...") selects the
// metadata server, modeling rigidly divided, glued-together namespaces
// (PanFS realms). A single directory never spreads across servers.
//
// Every op resolves its path once, at entry, to the namespace's dense
// PathId (a mutation interns it); below the entry the MDS routing (the
// path table's cached group), the directory locks, the lease cache and the
// Raft log all work on ids. Per-file state lives in a table indexed by the
// namespace's dense ObjectIds.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "net/cluster.h"
#include "pfs/config.h"
#include "pfs/extent_map.h"
#include "pfs/fs_client.h"
#include "pfs/meta_cache.h"
#include "pfs/namespace.h"
#include "pfs/ost.h"
#include "raft/raft.h"
#include "sim/server.h"
#include "sim/sync.h"

namespace tio::pfs {

struct FaultPlan;

class SimPfs : public FsClient {
 public:
  SimPfs(net::Cluster& cluster, PfsConfig config);
  ~SimPfs() override;

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
  sim::Engine& engine() override { return cluster_.engine(); }

  // --- introspection (tests, benches) ---
  const PfsConfig& config() const { return config_; }
  net::Cluster& cluster() { return cluster_; }
  Namespace& ns() { return ns_; }
  // Extent map of a file's object; null when unknown.
  const ExtentMap* object_extents(ObjectId oid) const;
  // Lock ranges with an owner, over every object: only ranges a write
  // touched, however far into its file.
  std::size_t lock_ranges_held() const { return lock_owner_.size(); }
  // Fd-table slots: one per open ever made (ids are never reused).
  std::size_t open_file_slots() const { return open_files_.size(); }
  const sim::FcfsServer& mds(std::size_t i) const { return *mds_[i]; }
  const Ost& ost(std::size_t i) const { return *osts_[i]; }
  // Metadata group of a raw path (the placement rule on its top component).
  std::size_t mds_of_path(std::string_view path) const;
  // Simulated wire size of a batch in a Raft log entry: 32 bytes plus, per
  // command, 48 bytes and its normalized path's length.
  std::uint64_t wire_bytes(const MetaBatch& batch) const;
  void drop_caches();

  // --- metadata replication (mds_replication = raft) ---
  bool replicated() const { return config_.mds_replication == MdsReplication::raft; }
  std::size_t raft_group_count() const { return raft_groups_.size(); }
  raft::Group& raft_group(std::size_t g) { return *raft_groups_[g]; }
  // Schedules the plan's server outages / partitions onto the replica
  // groups (crash at window start — resolving replica "leader" then —
  // restart at window end). Every fault event also revokes the group's
  // client leases (epoch bump). Throws std::invalid_argument for a target
  // outside the groups (FaultPlan::check_targets). No-op when
  // unreplicated; the testbed lowers such plans to path-prefix outages
  // instead.
  void schedule_server_faults(const FaultPlan& plan);

  // --- leased client metadata cache (meta_lease > 0) ---
  MetaCache* meta_cache() { return meta_cache_.get(); }
  std::uint64_t group_epoch(std::size_t g) const { return group_epochs_[g]; }
  // Wholesale lease revocation for one metadata group: cached entries
  // issued under earlier epochs are discarded on their next lookup.
  void revoke_leases(std::size_t g) { ++group_epochs_[g]; }

  struct Stats {
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t cache_hit_bytes = 0;
    std::uint64_t lock_grants = 0;
    std::uint64_t lock_transfers = 0;
    std::uint64_t rmw_reads = 0;
    std::uint64_t metadata_ops = 0;
    std::uint64_t opens = 0;
    std::uint64_t creates = 0;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  struct Object {
    ExtentMap data;
    std::uint64_t size = 0;
    TimePoint mtime;
    bool live = false;        // created and not unlinked since
    bool dentry_hot = false;  // opened before: MDS serves from cache
    // Serializes lock-ownership transfers; created on the first one.
    std::unique_ptr<sim::FcfsServer> lock_mgr;
  };
  // parent_dir is the id open resolved: close routes to its cached group,
  // and since ids are never reused it names the same directory even if that
  // directory was removed while the file was open. A closed fd keeps its
  // slot as a tombstone with oid == kNoObject. 16 bytes: the table keeps
  // one per open ever made.
  struct OpenFile {
    ObjectId oid = kNoObject;
    PathId parent_dir = kNoPath;
    bool readable = false;
    bool writable = false;
  };

  struct MetaSm;  // raft::StateMachine over ns_ (defined in sim_pfs.cc)

  // One forming batch per metadata group: mutations append until the batch
  // fills (mds_batch entries) or the linger timer fires, then the whole
  // batch travels as one RPC and every waiter wakes with its own result.
  struct PendingBatch {
    explicit PendingBatch(sim::Engine& e) : gate(e) {}
    MetaBatch batch;
    IoCtx ctx;  // first enqueuer; its node/rank carry the batch RPC
    bool done = false;
    Status fail;  // batch-wide transport failure (e.g. no reachable leader)
    std::vector<MetaApply> results;
    sim::Gate gate;
  };

  // The object's slot, growing the table to it; marks it live.
  Object& object(ObjectId oid);
  // The open file behind `file`. The pointer is good until the caller
  // suspends: an open meanwhile may grow (and move) the table.
  Result<const OpenFile*> handle(FileId file) const;
  sim::Mutex& dir_mutex(PathId dir);
  // The one transport decision for a namespace mutation: mds_batch > 0
  // enqueues it into its group's forming batch; otherwise a replicated
  // deployment submits it as one Raft entry (a batch of one); otherwise it
  // pays the unreplicated cost sequence (dir_mutation on the parent, plus
  // an mds_create_time round trip for a create) and applies in place.
  sim::Task<Result<MetaApply>> mutate(IoCtx ctx, MetaCommand cmd);
  // Applies one mutation to the namespace: the only code that creates,
  // makes, removes or unlinks entries in ns_, whichever transport carried
  // the command. Invalidate-on-mutation for the client metadata cache
  // happens here.
  MetaApply apply_meta(const MetaCommand& cmd);
  // Directory-degraded insert service time at the MDS serving `dir`.
  Duration dir_insert_service(PathId dir) const;
  // MDS service time of one mutation (degraded insert, plus the object
  // creation time for a create).
  Duration meta_service(const MetaCommand& cmd) const;
  // Enqueues `cmd` into the forming batch of its metadata group and waits
  // for the flushed batch's per-entry outcome (mutate, when
  // config_.mds_batch > 0).
  sim::Task<Result<MetaApply>> batch_submit(IoCtx ctx, std::size_t g, MetaCommand cmd);
  void flush_batch(std::size_t g);
  sim::Task<void> run_batch(std::size_t g, std::shared_ptr<PendingBatch> pending);
  // True when a valid lease for (node, path) exists; misses are counted.
  bool cache_lookup(const IoCtx& ctx, PathId path, MetaCache::Entry* out = nullptr);
  void cache_insert(const IoCtx& ctx, PathId path, ObjectId oid, bool is_dir);
  // Metadata group serving the directory `parent` of an op on `path`: the
  // path table's cached group, or the placement rule on the raw path when
  // the parent was never interned (an error path).
  std::size_t parent_group(PathId parent, std::string_view path) const;
  // RPC + queue + service at metadata group g's MDS. Unreplicated this
  // never fails; replicated it is a leader read and can surface
  // Errc::busy when the group has no reachable leader.
  sim::Task<Status> mds_op(IoCtx ctx, std::size_t g, Duration service);
  // Namespace mutation cost under the directory's serialized insert lock,
  // with size-dependent degradation (unreplicated, unbatched only —
  // replicated mutations serialize through the group's log instead).
  sim::Task<void> dir_mutation(IoCtx ctx, PathId dir);
  // Submits `batch` to group g's Raft log as one entry and returns the
  // per-entry outcomes once the leader has committed and applied it.
  sim::Task<Result<MetaBatchApply>> raft_apply(IoCtx ctx, std::size_t g, MetaBatch batch);
  // True when `rank` already owns every lock range [offset, offset+len)
  // touches, so a write needs no grant or transfer.
  bool locks_cached(ObjectId oid, int rank, std::uint64_t offset, std::uint64_t len) const;
  sim::Task<void> acquire_write_locks(IoCtx ctx, ObjectId oid, Object& obj, std::uint64_t offset,
                                      std::uint64_t len);
  // Physical transfer of [offset, offset+len) of `oid`: storage network +
  // striped OST I/Os (issued concurrently up to stripe_parallelism).
  sim::Task<void> data_path(IoCtx ctx, ObjectId oid, std::uint64_t offset, std::uint64_t len,
                            bool is_write);

  net::Cluster& cluster_;
  PfsConfig config_;
  Namespace ns_;
  std::unique_ptr<MetaSm> meta_sm_;
  std::unique_ptr<MetaCache> meta_cache_;
  std::vector<std::uint64_t> group_epochs_;
  std::vector<std::shared_ptr<PendingBatch>> forming_;
  std::vector<std::unique_ptr<raft::Group>> raft_groups_;
  std::vector<std::unique_ptr<sim::FcfsServer>> mds_;
  std::vector<std::unique_ptr<Ost>> osts_;
  std::unordered_map<PathId, std::unique_ptr<sim::Mutex>> dir_mutexes_;
  // Indexed by ObjectId (dense from 1). A deque, so growth never moves an
  // Object: write() holds an Object& across co_await.
  std::deque<Object> objects_;
  // Indexed by FileId - 1: ids are sequential from 1 and never reused.
  std::vector<OpenFile> open_files_;
  // (object, lock range) -> owner rank + 1 (0 = unowned), for the ranges
  // writes touched. Entries of an unlinked object stay (ids are never
  // reused, so no later file sees them).
  FlatMap<ObjectBlock, std::uint32_t, ObjectBlockHash> lock_owner_;
  Stats stats_;
};

}  // namespace tio::pfs
