// FaultyFs: a deterministic fault-injecting decorator over any FsClient.
//
// Wraps a backend and injects faults according to a declarative, seeded
// FaultPlan: per-op-class transient errors (EIO/EBUSY/ESTALE), fixed
// virtual-time latency spikes, per-namespace outage windows (a stalled MDS:
// every op under a path prefix fails with EBUSY inside the window), torn
// writes (a prefix of the data reaches the backend and the short count is
// reported), and crash-on-close of flattened global index files (the tail
// of the file is destroyed and the close reports EIO — the torn-index case
// the CRC trailer exists to catch).
//
// Determinism: all stochastic draws flow through one Rng seeded from the
// plan, consumed in engine event order, and every latency is virtual time —
// so a (seed, workload) pair produces a bit-identical fault schedule,
// retry/degrade counter values, and file contents on every run.
//
// Injection happens *before* the backend sees the request (the RPC "failed
// in flight"), so a failed op has no backend effect and is always safe to
// retry. The two deliberate exceptions are torn writes (partial effect,
// reported honestly as a short write) and crash-on-close (full effect
// destroyed after the fact, caught by the integrity trailer).
//
// Everything observable is surfaced through plfs.fault.* counters.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "pfs/fs_client.h"

namespace tio::pfs {

// Operation classes a FaultSpec can target. `meta` covers the pure
// metadata ops (mkdir/unlink/stat/readdir).
enum class OpClass : std::size_t { open = 0, close, read, write, meta };
inline constexpr std::size_t kNumOpClasses = 5;
std::string_view op_class_name(OpClass c);

// Per-op-class fault probabilities. All default to zero (no faults).
struct FaultSpec {
  double p_io_error = 0.0;
  double p_busy = 0.0;
  double p_stale = 0.0;
  double p_spike = 0.0;             // latency spike, op still succeeds
  Duration spike = Duration::ms(50);
  bool any() const { return p_io_error > 0 || p_busy > 0 || p_stale > 0 || p_spike > 0; }
};

// A window of virtual time during which every op under `path_prefix` fails
// with EBUSY (a stalled metadata server / unreachable realm). The prefix
// covers whole path components: "/vol1" matches "/vol1" and "/vol1/..." but
// not "/vol10". An empty prefix, or one ending in '/', matches every path
// that starts with it.
struct OutageWindow {
  std::string path_prefix;
  TimePoint begin;
  TimePoint end;
};

// A server-targeted outage: crash replica `replica` of metadata group
// `mds` at `begin` and restart it at `end`. replica == -1 resolves to
// whichever replica leads the group when the window opens, so chaos plans
// can kill exactly the leader. In an unreplicated deployment
// (mds_replication=none) the testbed lowers each server outage to a
// path-prefix outage of the group's namespace ("/vol<mds>"), so one plan
// drives the Raft-vs-stale-marker comparison.
struct ServerOutage {
  int mds = 0;
  int replica = -1;  // -1 = the leader at window start
  TimePoint begin;
  TimePoint end;
};

// A network partition window: the leader of group `mds` at `begin` is
// isolated from its peers and from clients until `end`. Lowered to a
// path-prefix outage in unreplicated mode, like ServerOutage.
struct PartitionWindow {
  int mds = 0;
  TimePoint begin;
  TimePoint end;
};

struct FaultPlan {
  std::uint64_t seed = 0x5eedfa17;
  FaultSpec ops[kNumOpClasses];
  std::vector<OutageWindow> outages;
  std::vector<ServerOutage> server_outages;
  std::vector<PartitionWindow> partitions;
  // Probability that a write is torn: only k < n bytes reach the backend
  // and k is returned (the caller must detect and resume).
  double p_torn_write = 0.0;
  // The first close of each global index file destroys the trailing bytes
  // of the file and reports EIO — a crash during the close-time flush.
  bool crash_close_index = false;

  bool enabled() const;
  FaultSpec& spec(OpClass c) { return ops[static_cast<std::size_t>(c)]; }
  const FaultSpec& spec(OpClass c) const { return ops[static_cast<std::size_t>(c)]; }

  // Parses a plan spec: either a preset name ("none", "transient1",
  // "stress", "failover", "partition") or a comma-separated key=value
  // list. Keys:
  //   seed=N                     jitter/draw seed
  //   io=P busy=P stale=P        transient probability, all op classes
  //   spike=P spike_ms=N         latency spike probability and length
  //   <class>.io=P (etc.)        per-class override; class in
  //                              {open,close,read,write,meta}
  //   torn=P                     torn-write probability
  //   crash_close_index=0|1      tear global.index at first close
  //   outage=PREFIX@START-END    outage window, virtual ms (repeatable)
  //   server_outage=G:R@START-END
  //                              crash replica R (an index, or "leader")
  //                              of metadata group G for the window,
  //                              virtual ms (repeatable)
  //   partition=G@START-END      isolate group G's leader for the window,
  //                              virtual ms (repeatable)
  // Presets may be extended: "stress,seed=9" starts from the preset.
  static Result<FaultPlan> parse(std::string_view spec);
  std::string to_string() const;

  // Rewrites server-targeted faults for an unreplicated deployment: each
  // server outage / partition of group G becomes a path-prefix outage of
  // "/volG" (the single server *is* the namespace), so the same plan spec
  // drives both --mds_replication modes.
  FaultPlan lowered_for_unreplicated() const;

  // invalid_argument unless every server outage / partition names a group
  // below `groups` and every explicit replica index is below `replicas`.
  // testbed::Rig checks this in both replication modes, so one plan can
  // never wrap onto another group in one mode and miss every volume in the
  // other.
  Status check_targets(std::size_t groups, std::size_t replicas) const;
};

class FaultyFs : public FsClient {
 public:
  FaultyFs(FsClient& base, FaultPlan plan)
      : base_(base), plan_(std::move(plan)), rng_(plan_.seed) {}

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
  sim::Engine& engine() override { return base_.engine(); }

  FsClient& base() { return base_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct Tracked {
    std::string path;
    std::uint64_t write_high = 0;  // one past the highest byte written
  };

  // Draws this op's fate. Returns ok, or the injected error; sleeps the
  // spike first so even failing ops cost time.
  sim::Task<Status> inject(OpClass c, const std::string& path);
  bool in_outage(const std::string& path) const;

  FsClient& base_;
  FaultPlan plan_;
  Rng rng_;
  // Open files whose writes we must observe (torn-write bookkeeping and
  // crash-on-close targeting). Only maintained when the plan needs it.
  std::unordered_map<FileId, Tracked> tracked_;
  // global.index paths already crash-closed once (the fault is one-shot
  // per path, so a rewritten index closes cleanly).
  std::vector<std::string> crashed_;
};

}  // namespace tio::pfs
