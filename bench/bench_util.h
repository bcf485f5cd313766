// Shared plumbing for the figure-reproduction harnesses.
#pragma once

#include <algorithm>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/jsonfmt.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/trace.h"
#include "net/topology.h"
#include "sim/sharded.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

namespace tio::bench {

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("   paper reference: %s\n\n", paper_ref.c_str());
}

// MB/s (decimal), the unit the paper plots.
inline double mbps(double bytes_per_sec) { return bytes_per_sec / 1e6; }

// Builds a fresh LANL-cluster rig (Sections III-V testbed).
inline testbed::Rig::Options lanl_rig(std::size_t num_mds = 1, std::size_t backends = 0) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.pfs = testbed::lanl_pfs(num_mds);
  o.plfs_backends = backends;
  return o;
}

// Builds a fresh Cielo rig (Section VI testbed).
inline testbed::Rig::Options cielo_rig(std::size_t num_mds = 10, std::size_t backends = 0) {
  testbed::Rig::Options o;
  o.cluster = testbed::cielo();
  o.pfs = testbed::cielo_pfs(num_mds);
  o.plfs_backends = backends;
  return o;
}

// Doubling sweep capped at `max`, always including `max` itself.
inline std::vector<int> sweep(int from, int max) {
  std::vector<int> out;
  for (int v = from; v < max; v *= 2) out.push_back(v);
  if (out.empty() || out.back() != max) out.push_back(max);
  return out;
}

// Shared --fault_plan flag (see pfs/faulty_fs.h for the grammar; a preset
// name or key=value pairs).
inline std::string* add_fault_plan_flag(FlagSet& flags) {
  return flags.add_string("fault_plan", "none",
                          "fault plan: none|transient1|stress|failover|partition|key=value,...");
}

// Flag-value -> FaultPlan; exits with a usage message on bad input. Server
// outages and partitions must name a group the bench's largest rig has
// (`max_groups`) and a replica below the default replica count, since
// testbed::Rig rejects any other target.
inline pfs::FaultPlan fault_plan_or_die(const std::string& spec, std::size_t max_groups) {
  auto plan = pfs::FaultPlan::parse(spec);
  const Status st = plan.ok() ? plan->check_targets(max_groups, pfs::PfsConfig{}.mds_replicas)
                              : plan.status();
  if (!st.ok()) {
    std::fprintf(stderr, "bad --fault_plan: %s\n", st.message().c_str());
    std::exit(1);
  }
  return std::move(plan.value());
}

// The plan as one row of a federation-size sweep sees it: server outages
// and partitions aimed at groups the row's rig lacks are dropped (that
// namespace does not exist in the row, in either replication mode).
inline pfs::FaultPlan fault_plan_for(const pfs::FaultPlan& plan, std::size_t groups) {
  pfs::FaultPlan row = plan;
  const auto missing = [groups](const auto& f) {
    return static_cast<std::size_t>(f.mds) >= groups;
  };
  std::erase_if(row.server_outages, missing);
  std::erase_if(row.partitions, missing);
  return row;
}

// Shared --mds_replication flag: how the simulated metadata service
// survives server loss (see pfs::MdsReplication).
inline std::string* add_mds_replication_flag(FlagSet& flags) {
  return flags.add_string("mds_replication", "none",
                          "metadata service replication: none|raft");
}

// Flag-value -> MdsReplication; exits with a usage message on bad input.
inline pfs::MdsReplication mds_replication_or_die(const std::string& name) {
  if (name == "none") return pfs::MdsReplication::none;
  if (name == "raft") return pfs::MdsReplication::raft;
  std::fprintf(stderr, "unknown --mds_replication (want none|raft): %s\n", name.c_str());
  std::exit(1);
}

// Shared metadata-path tuning flags: client-side mutation batching, the
// leased client metadata cache, and the Raft client timeouts. Defaults:
// batching and the cache off, Raft request/commit timeouts 40/400 ms.
struct MdsTuningFlags {
  std::int64_t* mds_batch;
  std::int64_t* mds_batch_linger_us;
  std::int64_t* meta_lease_ms;
  std::int64_t* raft_request_timeout_ms;
  std::int64_t* raft_commit_timeout_ms;
};

inline MdsTuningFlags add_mds_tuning_flags(FlagSet& flags) {
  MdsTuningFlags t;
  t.mds_batch = flags.add_i64(
      "mds_batch", 0, "coalesce up to N metadata mutations per MDS round trip (0 = off)");
  t.mds_batch_linger_us =
      flags.add_i64("mds_batch_linger_us", 50, "max virtual us a forming batch waits to fill");
  t.meta_lease_ms = flags.add_i64(
      "meta_lease_ms", 0, "client metadata cache lease in virtual ms (0 = cache off)");
  t.raft_request_timeout_ms =
      flags.add_i64("raft_request_timeout_ms", 40, "per-attempt Raft client request timeout, ms");
  t.raft_commit_timeout_ms = flags.add_i64(
      "raft_commit_timeout_ms", 400, "Raft commit+apply wait for an accepted entry, ms");
  return t;
}

// Validates the tuning flags and applies them onto a PfsConfig.
inline void apply_mds_tuning(const MdsTuningFlags& t, pfs::PfsConfig& pfs) {
  const std::pair<const char*, std::int64_t> checks[] = {
      {"mds_batch", *t.mds_batch},
      {"mds_batch_linger_us", *t.mds_batch_linger_us},
      {"meta_lease_ms", *t.meta_lease_ms},
      {"raft_request_timeout_ms", *t.raft_request_timeout_ms},
      {"raft_commit_timeout_ms", *t.raft_commit_timeout_ms}};
  for (const auto& [name, v] : checks) {
    if (v < 0) {
      std::fprintf(stderr, "--%s must be >= 0 (got %lld)\n", name, static_cast<long long>(v));
      std::exit(1);
    }
  }
  if (*t.raft_request_timeout_ms == 0 || *t.raft_commit_timeout_ms == 0) {
    std::fprintf(stderr, "raft timeouts must be > 0\n");
    std::exit(1);
  }
  pfs.mds_batch = static_cast<std::size_t>(*t.mds_batch);
  pfs.mds_batch_linger = Duration::us(*t.mds_batch_linger_us);
  pfs.meta_lease = Duration::ms(*t.meta_lease_ms);
  pfs.raft_request_timeout = Duration::ms(*t.raft_request_timeout_ms);
  pfs.raft_commit_timeout = Duration::ms(*t.raft_commit_timeout_ms);
}

// Shared CbConfig flags for the benches that drive the collective layer.
struct CbFlags {
  std::int64_t* aggregators;
  std::int64_t* buffer_mib;
  bool* node_agg;
  double* sieve_threshold;
};

inline CbFlags add_cb_flags(FlagSet& flags) {
  CbFlags cb;
  cb.aggregators = flags.add_i64("cb-aggregators", 0,
                                 "collective-buffering aggregator count (0 = one per node)");
  cb.buffer_mib = flags.add_i64("cb-buffer-mib", 4, "collective buffer size per access, MiB");
  cb.node_agg = flags.add_bool(
      "cb-node-agg", false,
      "exchange grouping: coalesce requests at per-node leaders (off = every rank sends)");
  cb.sieve_threshold = flags.add_f64(
      "cb-sieve-threshold", 0.0,
      "read-side data sieving: bridge holes while hole/useful <= threshold (0 = off)");
  return cb;
}

// Validates --cb-buffer-mib (1 MiB up to 1 TiB) and converts it to bytes;
// exits with a usage message otherwise.
inline std::uint64_t cb_buffer_bytes_or_die(std::int64_t mib) {
  if (mib < 1 || mib > (std::int64_t{1} << 20)) {
    std::fprintf(stderr, "--cb-buffer-mib must be in [1, 1048576] (got %lld)\n",
                 static_cast<long long>(mib));
    std::exit(1);
  }
  return static_cast<std::uint64_t>(mib) << 20;
}

// Builds the CbConfig the --cb-* flags describe; exits with a usage
// message for values the collective layer rejects (iolib::cb_validate).
inline iolib::CbConfig cb_config_of(const CbFlags& cb) {
  if (*cb.aggregators < 0 || *cb.aggregators > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--cb-aggregators must be in [0, 2147483647] (got %lld)\n",
                 static_cast<long long>(*cb.aggregators));
    std::exit(1);
  }
  iolib::CbConfig config;
  config.aggregators = static_cast<int>(*cb.aggregators);
  config.buffer_bytes = cb_buffer_bytes_or_die(*cb.buffer_mib);
  config.node_aggregation = *cb.node_agg;
  config.sieve_threshold = *cb.sieve_threshold;
  if (const Status st = iolib::cb_validate(config); !st.ok()) {
    std::fprintf(stderr, "invalid --cb-* flags: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  return config;
}

// Shared fabric-topology flags: preset, rack geometry, and ToR uplink
// taper. The default is the flat preset, one non-blocking switch whose
// routes ignore --racks and --oversubscription.
struct TopologyFlags {
  std::string* topology;
  std::int64_t* racks;
  double* oversubscription;
};

inline TopologyFlags add_topology_flags(FlagSet& flags) {
  TopologyFlags t;
  t.topology = flags.add_string("topology", "flat", "fabric preset: flat|tor|fat-tree");
  t.racks = flags.add_i64("racks", 0,
                          "rack count for tor/fat-tree (0 = nodes/8, at least 1)");
  t.oversubscription =
      flags.add_f64("oversubscription", 1.0, "ToR uplink taper (4 = 4:1 oversubscribed)");
  return t;
}

// Validates the topology flags and applies them onto a ClusterConfig.
inline void apply_topology(const TopologyFlags& t, net::ClusterConfig& cluster) {
  net::TopologyKind kind = net::TopologyKind::flat;
  if (!net::parse_topology_kind(*t.topology, kind)) {
    std::fprintf(stderr, "unknown --topology (want flat|tor|fat-tree): %s\n",
                 t.topology->c_str());
    std::exit(1);
  }
  cluster.topology = kind;
  if (*t.racks < 0) {
    std::fprintf(stderr, "--racks must be >= 0 (got %lld)\n", static_cast<long long>(*t.racks));
    std::exit(1);
  }
  if (!(std::isfinite(*t.oversubscription) && *t.oversubscription > 0)) {
    std::fprintf(stderr, "--oversubscription must be finite and > 0\n");
    std::exit(1);
  }
  cluster.oversubscription = *t.oversubscription;
  std::size_t racks = static_cast<std::size_t>(*t.racks);
  if (racks == 0) racks = std::max<std::size_t>(1, cluster.nodes / 8);
  cluster.racks = racks;
  if (cluster.nodes % cluster.racks != 0) {
    std::fprintf(stderr, "--racks=%zu does not divide nodes=%zu\n", cluster.racks,
                 cluster.nodes);
    std::exit(1);
  }
}

// Shared --shards flag: how many OS threads to spread independent
// simulations (one Rig per data point) across. Every count runs the same
// ShardPool path, so stdout and traces are identical at any count.
inline std::int64_t* add_shards_flag(FlagSet& flags) {
  return flags.add_i64(
      "shards", 1,
      "shard independent simulations across N OS threads (1 = serial)");
}

// Validates --shards against ShardPool's range [1, kMaxShards] (usage
// message and exit 1 otherwise) and notes the count in the
// sim.engine.shards counter so the counter dump and the --json counters
// carry it. More shards than host threads is allowed: same results,
// only slower.
inline std::size_t shards_or_die(std::int64_t value) {
  if (value < 1 || static_cast<std::uint64_t>(value) > kMaxShards) {
    std::fprintf(stderr, "--shards must be in [1, %zu] (got %lld)\n", kMaxShards,
                 static_cast<long long>(value));
    std::exit(1);
  }
  counter("sim.engine.shards").add(static_cast<std::uint64_t>(value));
  return static_cast<std::size_t>(value);
}

// Shared --trace flag: when non-empty, span tracing is enabled for the whole
// run and the buffered spans are written to the path as Chrome trace-event
// JSON (chrome://tracing, Perfetto) by finish_trace().
inline std::string* add_trace_flag(FlagSet& flags) {
  std::string* path = flags.add_string("trace", "", "write Chrome trace-event JSON to this file");
  return path;
}

// Call once after flag parsing: turns the tracer on if --trace was given.
inline void start_trace(const std::string& path) {
  if (!path.empty()) trace::Tracer::instance().set_enabled(true);
}

// Call once at exit: writes the trace file if --trace was given.
inline void finish_trace(const std::string& path) {
  if (path.empty()) return;
  if (!trace::Tracer::instance().write_chrome_json(path)) {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "\ntrace: %zu spans -> %s\n", trace::Tracer::instance().span_count(),
               path.c_str());
}

// What named counters gained on this shard since construction:
// local_value() deltas, so a row's before/after census never sees rows
// running concurrently on other shard threads.
class LocalDelta {
 public:
  explicit LocalDelta(std::initializer_list<std::string_view> names) {
    for (const std::string_view name : names) {
      const Counter& c = counter(name);
      start_.emplace_back(&c, c.local_value());
    }
  }
  // The gain of the i-th named counter.
  std::uint64_t operator[](std::size_t i) const {
    return start_[i].first->local_value() - start_[i].second;
  }

 private:
  std::vector<std::pair<const Counter*, std::uint64_t>> start_;
};

// The iolib.cb census of one job (fig5 cells, ablation_cb_aggregation
// rows): exchange messages across the fabric and inside nodes, bytes
// shipped between nodes, aggregator pfs ops and sieve joins.
struct CbCensus {
  std::uint64_t fabric_msgs = 0, local_msgs = 0, bytes_shipped = 0, pfs_ops = 0,
                sieve_joins = 0;

  // Runs `job` and returns the census it added on this shard.
  template <class Job>
  static CbCensus of(Job&& job) {
    const LocalDelta d({"iolib.cb.fabric_msgs", "iolib.cb.local_msgs", "iolib.cb.bytes_shipped",
                        "iolib.cb.pfs_ops", "iolib.cb.sieve_joins"});
    job();
    return {d[0], d[1], d[2], d[3], d[4]};
  }

  // The five counts as members of the enclosing JSON object.
  void write(JsonWriter& w) const {
    w.field("fabric_msgs", fabric_msgs).field("local_msgs", local_msgs)
        .field("bytes_shipped", bytes_shipped).field("pfs_ops", pfs_ops)
        .field("sieve_joins", sieve_joins);
  }
};

// A counter_snapshot(): (name, value) pairs sorted by name. The stderr dump
// and the --json "counters" block both report the whole snapshot, every
// registered counter, zero or not.
using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

inline std::uint64_t value_of(const CounterList& counters, std::string_view name) {
  const auto it = std::ranges::find(counters, name, &CounterList::value_type::first);
  return it == counters.end() ? 0 : it->second;
}

// Raw over wire bytes of the index pattern codec; nullopt when it never ran.
inline std::optional<double> pattern_compression(const CounterList& counters) {
  const std::uint64_t raw = value_of(counters, "plfs.index.pattern.raw_bytes");
  const std::uint64_t wire = value_of(counters, "plfs.index.pattern.wire_bytes");
  if (raw == 0 || wire == 0) return std::nullopt;
  return static_cast<double>(raw) / static_cast<double>(wire);
}

// The one counter dump every bench ends with, on stderr so stdout stays
// byte-comparable across runs (the determinism checks diff it): every
// registered counter, the two derived lines (pattern compression, host
// events/s), then the latency-histogram table (virtual ns).
inline void print_counters() {
  const CounterList counters = counter_snapshot();
  if (!counters.empty()) std::fprintf(stderr, "\n-- counters --\n");
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "%-36s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  if (const auto ratio = pattern_compression(counters)) {
    std::fprintf(stderr, "%-36s %.1fx\n", "plfs.index.pattern.compression", *ratio);
  }
  const std::uint64_t events = value_of(counters, "sim.engine.events");
  const std::uint64_t wall_ns = value_of(counters, "sim.engine.run_wall_ns");
  if (events > 0 && wall_ns > 0) {
    std::fprintf(stderr, "%-36s %.3f\n", "sim.engine.events_per_sec_millions",
                 static_cast<double>(events) / (static_cast<double>(wall_ns) * 1e-9) / 1e6);
  }
  bool header = false;
  for (const auto& [name, h] : histogram_snapshot()) {
    if (h->count() == 0) continue;
    if (!header) {
      std::fprintf(stderr, "\n-- latency histograms (virtual ns) --\n");
      std::fprintf(stderr, "%-28s %10s %12s %12s %12s %12s\n", "span", "count", "p50", "p90",
                   "p99", "max");
      header = true;
    }
    std::fprintf(stderr, "%-28s %10llu %12lld %12lld %12lld %12lld\n", name.c_str(),
                 static_cast<unsigned long long>(h->count()),
                 static_cast<long long>(h->percentile(50)),
                 static_cast<long long>(h->percentile(90)),
                 static_cast<long long>(h->percentile(99)), static_cast<long long>(h->max()));
  }
}

// Writes the --json report to `path` (nothing when it is empty): an object
// holding "bench", the members `fill(JsonWriter&)` adds (config and rows),
// then the shared trailer: every registered counter, index_compression_ratio,
// the non-empty latency histograms (integer virtual ns) and "schema": 2.
// Exits 1 when the file cannot be opened or written.
template <class Fill>
void write_json(const std::string& path, std::string_view bench_name, Fill&& fill) {
  if (path.empty()) return;
  JsonWriter w;
  w.begin_object().field("bench", bench_name);
  fill(w);
  const CounterList counters = counter_snapshot();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.field(name, value);
  w.end_object();
  // null when the codec never ran (a NaN ratio writes as null).
  w.field("index_compression_ratio", pattern_compression(counters).value_or(std::nan("")), 2);
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histogram_snapshot()) {
    if (h->count() == 0) continue;
    w.key(name).begin_object().field("count", h->count()).field("p50_ns", h->percentile(50))
        .field("p90_ns", h->percentile(90)).field("p99_ns", h->percentile(99))
        .field("max_ns", h->max()).field("sum_ns", h->sum()).end_object();
  }
  w.end_object();
  w.field("schema", 2).end_object();

  std::ofstream f(path);
  if (!(f << w.str() << '\n') || !f.flush()) {
    std::fprintf(stderr, "cannot write --json file: %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace tio::bench
