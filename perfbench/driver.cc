// perfbench driver: one rep of one benchmark workload on one testbed::Rig.
//
// perfbench/run.py starts this program once per measured rep, so the
// process-global stats registry and the peak RSS belong to exactly one run
// (the registry cannot be scoped to a rig yet). The program prints a single
// JSON object on stdout:
//   * "host":    host-time end-to-end metrics, timed around the public
//                harness calls (workloads::run_job, run_metadata_storm);
//   * "layers":  per-layer counters read from each layer's public stats
//                accessors and the counter registry after the run;
//   * "phases":  per-phase virtual-time split folded from the span
//                histograms (sim.fairshare.wait needs --trace, it has no
//                histogram);
//   * "digest":  FNV-1a over every simulated (model) output. Simulator
//                internals and host-side counters stay out of it, so a
//                speed-up that leaves the model alone leaves the digest
//                alone, and a model change moves it.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/trace.h"
#include "mpisim/comm.h"
#include "net/topology.h"
#include "sim/frame_pool.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

using namespace tio;
using namespace tio::workloads;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- workload sizes -------------------------------------------------------
// Sized so one rep takes one to five host seconds on a shared 4-thread x86
// VM; run.py repeats reps for the whole run and reports medians.

// n1_ckpt_restart: MPI-IO Test N-1 strided (fig 4), LANL rig, flat fabric.
constexpr int kN1Procs = 2048;
constexpr std::uint64_t kN1PerProc = 1_MiB;
constexpr std::uint64_t kN1Record = 16_KiB;

// nn_create_storm: fig8b-style N-N storm on Cielo, raft-replicated and
// batched federated metadata.
constexpr int kStormProcs = 4096;
constexpr int kStormFilesPerProc = 4;
constexpr std::size_t kStormMds = 10;

// cb_kernel_tor: LANL 3 (1 KiB records) through node-aggregated collective
// buffering on an oversubscribed ToR fabric.
constexpr int kCbProcs = 2048;
constexpr std::uint64_t kCbTotal = 512_MiB;
constexpr std::uint64_t kCbRecord = 1024;  // lanl3()'s record size
constexpr std::size_t kCbRacks = 8;
constexpr double kCbOversubscription = 4.0;

// Rig builds per rep; the fastest is the rep's setup_s.
constexpr int kSetupBuilds = 5;

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

using Values = std::vector<std::pair<std::string, double>>;

std::string json_object(const Values& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + quoted(values[i].first) + ": " + num(values[i].second);
  }
  return out + "}";
}

// --- one rep ----------------------------------------------------------------

struct Outcome {
  double setup_s = 0;
  double write_wall_s = 0;
  double read_wall_s = 0;
  double teardown_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  Values vs;      // workloads.*_vs: simulated phase results, virtual seconds
  Values layers;  // per-layer metrics read from the rig and the registry
  Values model;   // simulated outputs that feed the digest
};

// Builds the rig and the workload's inputs kSetupBuilds times and keeps the
// last build; the fastest build is the rep's setup_s (run.py reports the
// median over reps). Set-up takes a few milliseconds at most, so a single
// sample is mostly scheduler and cache noise.
template <typename MakeInputs>
std::unique_ptr<testbed::Rig> set_up(const testbed::Rig::Options& options,
                                     MakeInputs make_inputs, Outcome& out) {
  std::vector<double> samples;
  std::unique_ptr<testbed::Rig> rig;
  for (int i = 0; i < kSetupBuilds; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<testbed::Rig>(options);
    make_inputs();
    samples.push_back(seconds_since(t0));
  }
  out.setup_s = *std::min_element(samples.begin(), samples.end());
  return rig;
}

std::uint64_t counter_value(std::string_view name) { return counter(name).value(); }

void add_counter_group(Values& out, std::string_view prefix) {
  for (const auto& [name, value] : counter_snapshot(prefix)) {
    out.emplace_back(name, static_cast<double>(value));
  }
}

// Per-layer metrics and the digest inputs, read after the run while the rig
// is still alive.
void read_layers(testbed::Rig& rig, Outcome& out) {
  Values& l = out.layers;
  Values& m = out.model;

  // sim: the engine. Host rates come from the engine's own run timer.
  const double events = static_cast<double>(counter_value("sim.engine.events"));
  const double run_wall_s = static_cast<double>(counter_value("sim.engine.run_wall_ns")) / 1e9;
  l.emplace_back("sim.events", events);
  l.emplace_back("sim.host_ns_per_event", ratio(run_wall_s * 1e9, events));
  l.emplace_back("sim.events_per_s", ratio(events, run_wall_s));
  l.emplace_back("sim.queue_peak", static_cast<double>(counter_value("sim.engine.queue_peak")));
  l.emplace_back("sim.event_pool_misses",
                 static_cast<double>(counter_value("sim.engine.event_pool_misses")));
  l.emplace_back("sim.frame_pool_misses", static_cast<double>(sim::FramePool::stats().misses));
  l.emplace_back("sim.fn_heap_spills", static_cast<double>(counter_value("common.fn.heap_spills")));

  // net: storage network, page caches, FlowNet (non-flat presets only).
  net::Cluster& cluster = rig.cluster();
  const auto& storage = cluster.storage_net().stats();
  std::uint64_t hit_bytes = 0, miss_bytes = 0;
  for (std::size_t n = 0; n < cluster.nodes(); ++n) {
    hit_bytes += cluster.page_cache(n).stats().hit_bytes;
    miss_bytes += cluster.page_cache(n).stats().miss_bytes;
  }
  net::FlowNet::Stats flow;
  if (cluster.topology() != nullptr) flow = cluster.topology()->net().stats();
  const Values net = {
      {"net.storage.transfers", static_cast<double>(storage.transfers)},
      {"net.storage.bytes", static_cast<double>(storage.bytes)},
      {"net.storage.max_concurrency", static_cast<double>(storage.max_concurrency)},
      {"net.page_cache.hit_bytes", static_cast<double>(hit_bytes)},
      {"net.page_cache.miss_bytes", static_cast<double>(miss_bytes)},
      {"net.flownet.flows", static_cast<double>(flow.flows)},
      {"net.flownet.max_concurrency", static_cast<double>(flow.max_concurrency)},
  };
  l.insert(l.end(), net.begin(), net.end());
  m.insert(m.end(), net.begin(), net.end());
  m.emplace_back("net.flownet.bytes", static_cast<double>(flow.bytes));
  // Water-filling passes are simulator work, not a model output.
  l.emplace_back("net.flownet.recomputes", static_cast<double>(flow.recomputes));
  l.emplace_back("net.flownet.recomputes_per_flow",
                 ratio(static_cast<double>(flow.recomputes), static_cast<double>(flow.flows)));
  for (const char* name : {"net.topo.msgs.cross_rack", "net.topo.bytes.cross_rack",
                           "net.topo.link_bytes.rack"}) {
    l.emplace_back(name, static_cast<double>(counter_value(name)));
  }
  add_counter_group(m, "net.topo");

  // pfs: SimPfs totals, metadata servers, OSTs, batching, client cache.
  pfs::SimPfs& fs = rig.pfs();
  const auto& ps = fs.stats();
  std::uint64_t mds_ops = 0, ost_ops = 0, ost_seeks = 0, ost_bytes = 0;
  Duration mds_busy = Duration::zero(), mds_wait = Duration::zero();
  for (std::size_t i = 0; i < fs.config().num_mds; ++i) {
    mds_ops += fs.mds(i).stats().ops;
    mds_busy += fs.mds(i).stats().busy;
    mds_wait += fs.mds(i).stats().queue_wait;
  }
  for (std::size_t i = 0; i < fs.config().num_osts; ++i) {
    ost_ops += fs.ost(i).stats().ops;
    ost_seeks += fs.ost(i).stats().seeks;
    ost_bytes += fs.ost(i).stats().bytes;
  }
  const double batch_rpcs = static_cast<double>(counter_value("pfs.batch.rpcs"));
  const double batch_ops = static_cast<double>(counter_value("pfs.batch.ops"));
  const double mc_hits = static_cast<double>(counter_value("pfs.meta_cache.hits"));
  const double mc_misses = static_cast<double>(counter_value("pfs.meta_cache.misses"));
  const Values pfs_values = {
      {"pfs.metadata_ops", static_cast<double>(ps.metadata_ops)},
      {"pfs.opens", static_cast<double>(ps.opens)},
      {"pfs.creates", static_cast<double>(ps.creates)},
      {"pfs.bytes_written", static_cast<double>(ps.bytes_written)},
      {"pfs.bytes_read", static_cast<double>(ps.bytes_read)},
      {"pfs.cache_hit_bytes", static_cast<double>(ps.cache_hit_bytes)},
      {"pfs.lock_transfers", static_cast<double>(ps.lock_transfers)},
      {"pfs.rmw_reads", static_cast<double>(ps.rmw_reads)},
      {"pfs.mds.ops", static_cast<double>(mds_ops)},
      {"pfs.mds.busy_s", mds_busy.to_seconds()},
      {"pfs.mds.queue_wait_s", mds_wait.to_seconds()},
      {"pfs.ost.ops", static_cast<double>(ost_ops)},
      {"pfs.ost.seeks", static_cast<double>(ost_seeks)},
      {"pfs.batch.rpcs", batch_rpcs},
      {"pfs.batch.ops", batch_ops},
      {"pfs.batch.occupancy", ratio(batch_ops, batch_rpcs)},
      {"pfs.meta.mutation_round_trips",
       static_cast<double>(counter_value("pfs.meta.mutation_round_trips"))},
      {"pfs.meta_cache.hit_ratio", ratio(mc_hits, mc_hits + mc_misses)},
  };
  l.insert(l.end(), pfs_values.begin(), pfs_values.end());
  m.insert(m.end(), pfs_values.begin(), pfs_values.end());
  m.emplace_back("pfs.lock_grants", static_cast<double>(ps.lock_grants));
  m.emplace_back("pfs.ost.bytes", static_cast<double>(ost_bytes));
  add_counter_group(m, "pfs.batch");
  add_counter_group(m, "pfs.meta_cache");

  // plfs: host-side index building and caching (not model outputs), plus
  // the simulated index-log traffic and retries (model outputs).
  const auto& cache = rig.plfs().index_cache().stats();
  const double raw = static_cast<double>(counter_value("plfs.index.pattern.raw_bytes"));
  const double wire = static_cast<double>(counter_value("plfs.index.pattern.wire_bytes"));
  l.emplace_back("plfs.index.build_host_s",
                 static_cast<double>(counter_value("plfs.index.build_ns")) / 1e9);
  l.emplace_back("plfs.index.entries_merged",
                 static_cast<double>(counter_value("plfs.index.entries_merged")));
  l.emplace_back("plfs.index.compression", ratio(raw, wire));
  l.emplace_back("plfs.index_cache.hit_ratio",
                 ratio(static_cast<double>(cache.hits),
                       static_cast<double>(cache.hits + cache.misses)));
  const Values plfs_values = {
      {"plfs.index.log_bytes_read",
       static_cast<double>(counter_value("plfs.index.log_bytes_read"))},
      {"plfs.retry.attempts", static_cast<double>(counter_value("plfs.retry.attempts"))},
  };
  l.insert(l.end(), plfs_values.begin(), plfs_values.end());
  m.insert(m.end(), plfs_values.begin(), plfs_values.end());
  for (const char* name : {"plfs.index.log_bytes_written", "plfs.index.global_bytes_read",
                           "plfs.index.global_bytes_written"}) {
    m.emplace_back(name, static_cast<double>(counter_value(name)));
  }
  add_counter_group(m, "plfs.fault");
  add_counter_group(m, "plfs.degrade");

  // raft: replicated metadata groups.
  const double commits = static_cast<double>(counter_value("raft.commits"));
  const double appends = static_cast<double>(counter_value("raft.append_rpcs"));
  for (const char* name : {"raft.submits", "raft.commits", "raft.append_rpcs", "raft.heartbeats",
                           "raft.elections_started", "raft.client_timeouts", "raft.redirects"}) {
    l.emplace_back(name, static_cast<double>(counter_value(name)));
  }
  l.emplace_back("raft.appends_per_commit", ratio(appends, commits));
  add_counter_group(m, "raft");

  // iolib: collective-buffering census.
  for (const char* name : {"iolib.cb.fabric_msgs", "iolib.cb.local_msgs", "iolib.cb.bytes_shipped",
                           "iolib.cb.pfs_ops", "iolib.cb.sieve_hole_bytes"}) {
    l.emplace_back(name, static_cast<double>(counter_value(name)));
  }
  add_counter_group(m, "iolib.cb");

  // workloads: the simulated phase results.
  l.insert(l.end(), out.vs.begin(), out.vs.end());
  m.insert(m.end(), out.vs.begin(), out.vs.end());

  // Every virtual-time span histogram: count and total.
  for (const auto& [name, h] : histogram_snapshot()) {
    m.emplace_back(name + ".count", static_cast<double>(h->count()));
    m.emplace_back(name + ".sum_ns", static_cast<double>(h->sum()));
  }
}

// --- the three workloads ----------------------------------------------------

testbed::Rig::Options lanl_options(std::uint64_t seed) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.pfs = testbed::lanl_pfs(1);
  o.seed = seed;
  return o;
}

// Records per rank of the strided pattern, counted by generating every
// rank's op list once (the input generation that set-up pays for).
std::uint64_t count_records(std::uint64_t per_proc, std::uint64_t record, int nprocs) {
  const OpGen gen = strided_ops(per_proc, record);
  std::uint64_t records = 0;
  for (int r = 0; r < nprocs; ++r) records += gen(r, nprocs).size();
  return records;
}

// A write job then a cold read job on one rig, each one timed run_job call.
// Ops attempted: every rank's open and close plus one op per record, per
// phase. A phase that throws counts all its ops, and the read's, as failed.
void run_data(const testbed::Rig::Options& options, int nprocs, std::uint64_t per_proc,
              std::uint64_t record, const std::function<JobSpec()>& make_spec, Outcome& out) {
  JobSpec spec;
  std::uint64_t records = 0;
  auto rig = set_up(options, [&] {
    spec = make_spec();
    records = count_records(per_proc, record, nprocs);
  }, out);
  spec.verify = true;
  spec.drop_caches_before_read = true;
  const std::uint64_t phase_ops = records + 2 * static_cast<std::uint64_t>(nprocs);
  out.attempted = 2 * phase_ops;

  JobResult result;
  JobSpec write_spec = spec;
  write_spec.do_read = false;
  JobSpec read_spec = spec;
  read_spec.do_write = false;
  bool ok = true;
  auto t0 = Clock::now();
  try {
    result.write = run_job(*rig, nprocs, write_spec).write;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.failed = 2 * phase_ops;
    ok = false;
  }
  out.write_wall_s = seconds_since(t0);
  if (ok) {
    t0 = Clock::now();
    try {
      result.read = run_job(*rig, nprocs, read_spec).read;
    } catch (const std::exception& e) {
      out.error = e.what();
      out.failed = phase_ops;
      ok = false;
    }
    out.read_wall_s = seconds_since(t0);
  }
  // Every logical byte must have reached the PFS as data.
  const std::uint64_t logical = per_proc * static_cast<std::uint64_t>(nprocs);
  if (ok && rig->pfs().stats().bytes_written < logical) {
    out.error = "pfs received fewer bytes than were written";
    out.failed = out.attempted;
  }
  out.vs = {{"workloads.open_write_vs", result.write.open_s},
            {"workloads.io_write_vs", result.write.io_s},
            {"workloads.close_write_vs", result.write.close_s},
            {"workloads.open_read_vs", result.read.open_s},
            {"workloads.io_read_vs", result.read.io_s},
            {"workloads.storm_open_vs", 0},
            {"workloads.storm_close_vs", 0},
            {"workloads.storm_stat_vs", 0}};
  out.model.emplace_back("workloads.close_read_vs", result.read.close_s);
  read_layers(*rig, out);
  t0 = Clock::now();
  rig.reset();
  out.teardown_s = seconds_since(t0);
}

void run_n1_ckpt_restart(std::uint64_t seed, Outcome& out) {
  run_data(lanl_options(seed), kN1Procs, kN1PerProc, kN1Record, [seed] {
    TargetOptions target;
    target.access = Access::plfs_n1;
    target.strategy = plfs::ReadStrategy::parallel_read;
    JobSpec spec = mpiio_test(kN1PerProc, kN1Record, target);
    spec.seed = seed;
    return spec;
  }, out);
}

void run_cb_kernel_tor(std::uint64_t seed, Outcome& out) {
  testbed::Rig::Options options = lanl_options(seed);
  options.cluster.topology = net::TopologyKind::tor;
  options.cluster.racks = kCbRacks;
  options.cluster.oversubscription = kCbOversubscription;
  run_data(options, kCbProcs, kCbTotal / kCbProcs, kCbRecord, [] {
    TargetOptions target;
    target.access = Access::plfs_n1;
    iolib::CbConfig cb;
    cb.node_aggregation = true;
    // lanl3() fixes its data-pattern seed when it builds the phase bodies;
    // the run's seed reaches this workload through the rig (op jitter,
    // engine RNG).
    return lanl3(kCbProcs, kCbTotal, target, cb);
  }, out);
}

// The create storm (one run_metadata_storm call: every rank creates and
// closes its files), then a restart-side stat pass that checks every file
// the storm created exists as a PLFS container. The storm is the write side
// and the stat pass the read side of the workload.
void run_nn_create_storm(std::uint64_t seed, Outcome& out) {
  testbed::Rig::Options options;
  options.cluster = testbed::cielo();
  options.pfs = testbed::cielo_pfs(kStormMds);
  options.pfs.mds_replication = pfs::MdsReplication::raft;
  options.pfs.mds_batch = 64;
  options.pfs.mds_batch_linger = Duration::ms(1);
  options.seed = seed;
  MetaSpec spec;
  auto rig = set_up(options, [&] {
    spec = MetaSpec{};
    spec.files_per_proc = kStormFilesPerProc;
    spec.use_plfs = true;
    spec.shared_file = false;
    spec.dir = "storm";
  }, out);
  const std::uint64_t files = static_cast<std::uint64_t>(kStormProcs) * kStormFilesPerProc;
  out.attempted = 3 * files;  // open (create), close, stat

  MetaResult storm;
  auto t0 = Clock::now();
  bool ok = true;
  try {
    storm = run_metadata_storm(*rig, kStormProcs, spec);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.failed = out.attempted;
    ok = false;
  }
  out.write_wall_s = seconds_since(t0);

  double stat_vs = 0;
  if (ok) {
    std::uint64_t missing = 0;
    t0 = Clock::now();
    mpi::run_spmd(rig->cluster(), kStormProcs, [&](mpi::Comm comm) -> sim::Task<void> {
      const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
      sim::Engine& engine = comm.engine();
      co_await comm.barrier();
      const TimePoint start = engine.now();
      for (int i = 0; i < spec.files_per_proc; ++i) {
        const std::string logical = str_printf("/%s/f%d_%d", spec.dir.c_str(), comm.rank(), i);
        auto exists = co_await rig->plfs().is_container(ctx, logical);
        if (!exists.ok() || !*exists) ++missing;
      }
      co_await comm.barrier();
      if (comm.rank() == 0) stat_vs = (engine.now() - start).to_seconds();
    });
    out.read_wall_s = seconds_since(t0);
    if (missing > 0) {
      out.error = str_printf("%llu created files missing after the storm",
                             static_cast<unsigned long long>(missing));
      out.failed = missing;
    }
  }
  out.vs = {{"workloads.open_write_vs", 0},
            {"workloads.io_write_vs", 0},
            {"workloads.close_write_vs", 0},
            {"workloads.open_read_vs", 0},
            {"workloads.io_read_vs", 0},
            {"workloads.storm_open_vs", storm.open_s},
            {"workloads.storm_close_vs", storm.close_s},
            {"workloads.storm_stat_vs", stat_vs}};
  read_layers(*rig, out);
  t0 = Clock::now();
  rig.reset();
  out.teardown_s = seconds_since(t0);
}

// --- traced per-phase split --------------------------------------------------

// The span histograms whose virtual time the traced run publishes: plfs
// open/index/create phases, the mpisim traffic inside plfs opens and
// collective buffering, iolib's aggregator PFS access, and raft
// replication. sim.fairshare.wait is added from the trace itself.
constexpr const char* kPhases[] = {
    "plfs.open.index_read",   "plfs.open.merge",         "plfs.open.exchange",
    "plfs.open.broadcast",    "plfs.write.index_flush",  "plfs.create.subdir_home",
    "cb.write.gather",        "cb.write.shuffle",        "cb.write.pfs",
    "cb.read.gather",         "cb.read.shuffle",         "cb.read.reply",
    "cb.read.pfs",            "raft.replication",
};

// The tail percentile of a phase with `n` samples: the highest of
// p99.9/p99/p90 with at least ten samples beyond it, else p50.
double tail_percentile(double n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (n * (100 - p) / 100 >= 10) return p;
  }
  return 50;
}

// count, p50, tail and sum of one phase; times in virtual seconds.
void add_phase(Values& out, const std::string& name, double count, std::int64_t p50_ns,
               std::int64_t tail_ns, std::int64_t sum_ns) {
  out.emplace_back(name + ".count", count);
  out.emplace_back(name + ".p50_vs", static_cast<double>(p50_ns) / 1e9);
  out.emplace_back(name + ".tail_vs", static_cast<double>(tail_ns) / 1e9);
  out.emplace_back(name + ".sum_vs", static_cast<double>(sum_ns) / 1e9);
}

Values phase_split() {
  Values out;
  for (const char* name : kPhases) {
    const Histogram& h = histogram(name);
    const double n = static_cast<double>(h.count());
    add_phase(out, name, n, h.percentile(50), h.percentile(tail_percentile(n)), h.sum());
  }
  // Storage-net waits are trace-only spans on the engine track.
  trace::Tracer& tracer = trace::Tracer::instance();
  const std::uint32_t wait_id = tracer.intern("sim.fairshare.wait");
  Histogram waits;
  for (const trace::SpanRecord& s : tracer.rank_spans(-1)) {
    if (s.name_id == wait_id && s.end_ns >= 0) waits.record(s.end_ns - s.start_ns);
  }
  const double n = static_cast<double>(waits.count());
  add_phase(out, "sim.fairshare.wait", n, waits.percentile(50),
            waits.percentile(tail_percentile(n)), waits.sum());
  out.emplace_back("trace.spans", static_cast<double>(tracer.span_count()));
  return out;
}

std::string digest_of(const Values& model) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, value] : model) {
    const std::string line = name + "=" + num(value) + "\n";
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  return str_printf("%016llx", static_cast<unsigned long long>(h));
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("tio_perfbench: one rep of one benchmark workload (see perfbench/README.md)");
  auto* workload =
      flags.add_string("workload", "", "n1_ckpt_restart|nn_create_storm|cb_kernel_tor");
  auto* seed = flags.add_i64("seed", 1, "workload seed (rig RNG and job data pattern)");
  auto* traced = flags.add_bool("trace", false, "enable the span tracer for this rep");
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 2;
  }
  if (*seed < 0) {
    std::fprintf(stderr, "--seed must be >= 0\n");
    return 2;
  }
  trace::Tracer::instance().set_enabled(*traced);

  const auto seed_u = static_cast<std::uint64_t>(*seed);
  Outcome out;
  if (*workload == "n1_ckpt_restart") {
    run_n1_ckpt_restart(seed_u, out);
  } else if (*workload == "nn_create_storm") {
    run_nn_create_storm(seed_u, out);
  } else if (*workload == "cb_kernel_tor") {
    run_cb_kernel_tor(seed_u, out);
  } else {
    std::fprintf(stderr, "unknown --workload: %s\n", workload->c_str());
    return 2;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const Values host = {
      {"setup_s", out.setup_s},
      {"wall_s", out.write_wall_s + out.read_wall_s + out.teardown_s},
      {"write_wall_s", out.write_wall_s},
      {"read_wall_s", out.read_wall_s},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"error\": %s, \"digest\": %s,\n \"host\": %s,\n \"layers\": %s,\n \"phases\": %s,\n"
      " \"model\": %s}\n",
      quoted(*workload).c_str(), static_cast<unsigned long long>(seed_u),
      *traced ? "true" : "false", static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), quoted(out.error).c_str(),
      quoted(digest_of(out.model)).c_str(), json_object(host).c_str(),
      json_object(out.layers).c_str(), json_object(phase_split()).c_str(),
      json_object(out.model).c_str());
  return 0;
}
