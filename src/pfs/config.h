// Tunable model parameters of the simulated parallel file system.
//
// Defaults approximate the paper's 551 TB PanFS behind a 10GigE storage
// network; the calibrated presets live in src/testbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/units.h"

namespace tio::pfs {

// How the metadata service survives server loss. `none` is the paper's
// federation: one server per namespace, ring failover + stale markers
// above it. `raft` runs each namespace as a Raft replica group
// (src/raft/): consistent failover, no stale markers.
enum class MdsReplication { none, raft };
std::string_view mds_replication_name(MdsReplication m);

struct PfsConfig {
  // --- Metadata service ---
  // Number of metadata servers ("glued" namespaces). A directory tree under
  // top-level directory /volK is served by MDS hash(volK) % num_mds, which
  // models PanFS-style rigid realm division: no single directory ever
  // spreads across servers.
  std::size_t num_mds = 1;
  // Internal request parallelism of one MDS.
  std::size_t mds_concurrency = 4;
  Duration mds_create_time = Duration::us(250);
  Duration mds_open_time = Duration::us(120);
  // Opening a file whose dentry is already hot in the MDS cache is cheap.
  Duration mds_cached_open_time = Duration::us(20);
  Duration mds_stat_time = Duration::us(80);
  Duration mds_close_time = Duration::us(50);
  Duration mds_readdir_per_entry = Duration::us(2);
  // Serialized per-directory insert/remove (namespace mutation) cost...
  Duration dir_insert_time = Duration::us(400);
  // ...which degrades as the directory grows (GIGA+'s observation):
  // effective insert = dir_insert_time * (1 + entries / dir_degrade_entries).
  std::uint64_t dir_degrade_entries = 8192;

  // --- Data service ---
  std::size_t num_osts = 20;
  double ost_bandwidth = 350e6;          // platter streaming rate, bytes/s
  Duration ost_seek_time = Duration::ms(4);
  Duration ost_switch_time = Duration::ms(1);  // object switch on an OST
  double ost_write_seek_factor = 0.1;    // server write-back absorbs most positioning
  std::uint64_t near_gap = 8_MiB;        // forward gaps below this prefetch fine
  std::uint64_t stripe_unit = 64_KiB;
  // One file's data is striped over this many OSTs (a PanFS RAID group).
  // A single shared file engages only stripe_width spindles; PLFS's many
  // per-process logs spread over the whole OST farm.
  std::size_t stripe_width = 8;
  // Max pieces of one request issued in parallel across OSTs.
  std::size_t stripe_parallelism = 8;

  // Server-side (per-OST) DRAM cache: re-reads of hot blocks skip the
  // platter entirely.
  std::uint64_t ost_cache_bytes = 512_MiB;
  double ost_cache_bandwidth = 2.0e9;

  // --- Shared-file write locking (the N-1 penalty) ---
  // Clients cache writes behind (writes charge bandwidth, net + OST, but not
  // a per-op round trip), so a lock revocation synchronously flushes (the
  // lock_transfer_time below). Ownership is tracked per *process* (PanFS
  // DirectFlow-style client locks): interleaved writers thrash regardless
  // of node placement.
  std::uint64_t lock_range = 1_MiB;      // range-lock granularity
  Duration lock_transfer_time = Duration::ms(1);   // revoke + grant
  Duration lock_grant_time = Duration::us(50);     // uncontended grant
  // Unaligned writes read-modify-write one page.
  std::uint64_t rmw_page = 16_KiB;

  // --- Client-visible fixed overhead per rpc ---
  Duration rpc_overhead = Duration::us(15);

  // --- Batched metadata mutations (client-library aggregation) ---
  // Clients coalesce create/mkdir/unlink mutations bound for the
  // same metadata group into one batch RPC: at most mds_batch entries per
  // batch (0 = every mutation travels alone), flushed early after
  // mds_batch_linger once the first entry is waiting. Replicated groups
  // apply a batch as ONE Raft command (one replication round amortized
  // over the entries); unreplicated servers amortize the client round trip
  // the same way.
  std::size_t mds_batch = 0;
  Duration mds_batch_linger = Duration::us(50);

  // --- Leased client metadata cache ---
  // Lease TTL for client-cached lookups (dentry/attr hits served without an
  // MDS round trip). 0 disables the cache. Leases are revoked wholesale
  // (epoch bump) whenever the serving metadata group crashes, restarts, or
  // partitions, and per-path on every mutation, so a cached entry can never
  // outlive a failover inconsistently.
  Duration meta_lease = Duration::zero();

  // --- Metadata replication (Raft replica groups, src/raft/) ---
  MdsReplication mds_replication = MdsReplication::none;
  std::size_t mds_replicas = 3;
  Duration raft_heartbeat = Duration::ms(10);
  Duration raft_election_min = Duration::ms(50);
  Duration raft_election_jitter = Duration::ms(50);
  Duration raft_request_timeout = Duration::ms(40);
  Duration raft_commit_timeout = Duration::ms(400);
  Duration raft_redirect_backoff = Duration::ms(5);
  std::size_t raft_compact_threshold = 1024;
  std::size_t raft_compact_keep = 128;
};

}  // namespace tio::pfs
