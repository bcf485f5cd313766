// Figure 4: read scaling of the index-aggregation strategies (MPI-IO Test).
//
//   4a  Read Open Time   — Original vs Index Flatten vs Parallel Index Read
//   4b  Read Bandwidth   — effective (open+read+close) bandwidth
//   4c  Write Close Time — Original vs Index Flatten
//   4d  Write Bandwidth  — effective write bandwidth
//
// Paper setup: 64-node/1024-core cluster, 50 MB per stream in ~50 KB
// records, streams up to 2048 (oversubscribed); both collective techniques
// are ~4x faster than the Original design at 2048 streams, and read
// bandwidth ~3x higher.
#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

namespace {

struct Row {
  int streams;
  double open_orig, open_flat, open_par;
  double bw_orig, bw_flat, bw_par;
  double close_noflat, close_flat;
  double wbw_noflat, wbw_flat;
  // Index bytes pulled off the PFS during each strategy's open (per-writer
  // logs plus the flattened global index), from the plfs.index.* counters.
  std::uint64_t ibytes_orig, ibytes_flat, ibytes_par;
};

// Index bytes read from storage so far (log + flattened-global files) *by
// this shard*: before/after deltas must not see rows running concurrently
// on other shard threads.
std::uint64_t index_bytes_read() {
  return counter("plfs.index.log_bytes_read").local_value() +
         counter("plfs.index.global_bytes_read").local_value();
}

// Fabric-topology knobs threaded into every rig of a row (defaults = flat
// preset + block groups, byte-identical to the pre-topology bench).
struct TopoOpts {
  net::TopologyKind kind = net::TopologyKind::flat;
  std::size_t racks = 1;
  double oversubscription = 1.0;
  bool rack_groups = false;
};

Row run_streams(int streams, std::uint64_t per_proc, std::uint64_t record,
                const pfs::FaultPlan& plan, const TopoOpts& topo) {
  Row row{};
  row.streams = streams;
  const OpGen ops = strided_ops(per_proc, record);
  auto rig_opts = [&plan, &topo] {
    testbed::Rig::Options o = bench::lanl_rig();
    o.fault_plan = plan;
    o.cluster.topology = topo.kind;
    o.cluster.racks = topo.racks;
    o.cluster.oversubscription = topo.oversubscription;
    return o;
  };

  auto read_with = [&](testbed::Rig& rig, const char* file, plfs::ReadStrategy strategy,
                       double* open_s, double* bw, std::uint64_t* ibytes) {
    JobSpec spec;
    spec.file = file;
    spec.ops = ops;
    spec.target.access = Access::plfs_n1;
    spec.target.strategy = strategy;
    spec.do_write = false;
    const std::uint64_t before = index_bytes_read();
    const PhaseTimes read = run_job(rig, streams, spec).read;
    *ibytes = index_bytes_read() - before;
    *open_s = read.open_s;
    *bw = read.effective_bw();
  };

  // One rig per written file so page-cache state is comparable across
  // strategies (each strategy rereads the same freshly written data).
  {
    testbed::Rig rig(rig_opts());
    rig.mount().rack_aware_groups = topo.rack_groups;
    JobSpec w;
    w.file = "noflat";
    w.ops = ops;
    w.target.access = Access::plfs_n1;
    w.do_read = false;
    const PhaseTimes wr = run_job(rig, streams, w).write;
    row.close_noflat = wr.close_s;
    row.wbw_noflat = wr.effective_bw();
    read_with(rig, "noflat", plfs::ReadStrategy::original, &row.open_orig, &row.bw_orig,
              &row.ibytes_orig);
    read_with(rig, "noflat", plfs::ReadStrategy::parallel_read, &row.open_par, &row.bw_par,
              &row.ibytes_par);
  }
  {
    testbed::Rig rig(rig_opts());
    rig.mount().rack_aware_groups = topo.rack_groups;
    JobSpec w;
    w.file = "flat";
    w.ops = ops;
    w.target.access = Access::plfs_n1;
    w.target.flatten_on_close = true;
    w.do_read = false;
    const PhaseTimes wr = run_job(rig, streams, w).write;
    row.close_flat = wr.close_s;
    row.wbw_flat = wr.effective_bw();
    read_with(rig, "flat", plfs::ReadStrategy::index_flatten, &row.open_flat, &row.bw_flat,
              &row.ibytes_flat);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("fig4_read_scaling: index aggregation strategies vs stream count");
  auto* max_streams = flags.add_i64("max-streams", 1024, "largest concurrent stream count (paper: 2048)");
  auto* per_proc_mib = flags.add_i64("per-proc-mib", 16, "MiB per stream (paper: 50 MB)");
  auto* record_kib = flags.add_i64("record-kib", 16, "record size KiB (paper: ~50 KB; 1024 records/stream)");
  auto* plan_spec = bench::add_fault_plan_flag(flags);
  const bench::TopologyFlags topo_flags = bench::add_topology_flags(flags);
  auto* rack_groups_flag = flags.add_bool(
      "rack-groups", false, "form Parallel Index Read groups by rack instead of rank blocks");
  auto* shards_flag = bench::add_shards_flag(flags);
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  auto* trace_path = bench::add_trace_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  bench::start_trace(*trace_path);
  const std::uint64_t per_proc = static_cast<std::uint64_t>(*per_proc_mib) << 20;
  const std::uint64_t record = static_cast<std::uint64_t>(*record_kib) << 10;
  const pfs::FaultPlan plan = bench::fault_plan_or_die(*plan_spec);
  TopoOpts topo;
  {
    net::ClusterConfig cluster = testbed::lanl_cluster();
    bench::apply_topology(topo_flags, cluster);
    topo.kind = cluster.topology;
    topo.racks = cluster.racks;
    topo.oversubscription = cluster.oversubscription;
    topo.rack_groups = *rack_groups_flag;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);

  // Each row is an independent simulation; the pool spreads them across
  // shard threads (row i on shard i mod N) without changing any row's
  // simulated result.
  const std::vector<int> stream_counts = bench::sweep(16, static_cast<int>(*max_streams));
  std::vector<Row> rows(stream_counts.size());
  sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < stream_counts.size(); ++i) {
    pool.submit([&rows, &stream_counts, i, per_proc, record, &plan, &topo] {
      rows[i] = run_streams(stream_counts[i], per_proc, record, plan, topo);
    });
  }
  pool.run_all();

  bench::print_header("Fig. 4a — Read Open Time (s)",
                      "both techniques ~4x faster than Original at 2048 streams");
  Table a({"streams", "Original", "IndexFlatten", "ParallelRead", "orig/par"});
  for (const auto& r : rows) {
    a.add_row({std::to_string(r.streams), Table::num(r.open_orig, 3),
               Table::num(r.open_flat, 3), Table::num(r.open_par, 3),
               Table::num(r.open_orig / std::max(r.open_par, 1e-9), 1) + "x"});
  }
  a.print(std::cout);

  bench::print_header("Fig. 4b — Read Bandwidth (MB/s, incl. open+close)",
                      "collective techniques ~3x over Original at 2048; cache "
                      "effects can exceed the 1250 MB/s storage-net peak");
  Table b({"streams", "Original", "IndexFlatten", "ParallelRead"});
  for (const auto& r : rows) {
    b.add_row({std::to_string(r.streams), Table::num(bench::mbps(r.bw_orig)),
               Table::num(bench::mbps(r.bw_flat)), Table::num(bench::mbps(r.bw_par))});
  }
  b.print(std::cout);

  bench::print_header("Fig. 4c — Write Close Time (s)",
                      "Index Flatten pays a higher close time at scale");
  Table c({"streams", "Original/ParallelRead", "IndexFlatten"});
  for (const auto& r : rows) {
    c.add_row({std::to_string(r.streams), Table::num(r.close_noflat, 3),
               Table::num(r.close_flat, 3)});
  }
  c.print(std::cout);

  bench::print_header("Fig. 4d — Write Bandwidth (MB/s)",
                      "Index Flatten slightly lowers effective write bandwidth");
  Table d({"streams", "Original/ParallelRead", "IndexFlatten"});
  for (const auto& r : rows) {
    d.add_row({std::to_string(r.streams), Table::num(bench::mbps(r.wbw_noflat)),
               Table::num(bench::mbps(r.wbw_flat))});
  }
  d.print(std::cout);

  if (!json_path->empty()) {
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open --json file: %s\n", json_path->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig4_read_scaling\",\n");
    std::fprintf(f,
                 "  \"config\": {\"max_streams\": %lld, \"per_proc_mib\": %lld, "
                 "\"record_kib\": %lld, \"fault_plan\": \"%s\", \"topology\": \"%s\", \"racks\": %zu, "
                 "\"oversubscription\": %s, \"rack_groups\": %s, \"shards\": %zu},\n",
                 static_cast<long long>(*max_streams), static_cast<long long>(*per_proc_mib),
                 static_cast<long long>(*record_kib), plan_spec->c_str(),
                 net::topology_kind_name(topo.kind).c_str(), topo.racks,
                 json_double(topo.oversubscription, 2).c_str(),
                 topo.rack_groups ? "true" : "false", shards);
    std::fprintf(f, "  \"rows\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f, "%s\n    {\"streams\": %d,\n", i ? "," : "", r.streams);
      std::fprintf(f,
                   "     \"read_open_s\": {\"original\": %s, \"index_flatten\": %s, "
                   "\"parallel_read\": %s},\n",
                   json_double(r.open_orig, 6).c_str(), json_double(r.open_flat, 6).c_str(),
                   json_double(r.open_par, 6).c_str());
      std::fprintf(f,
                   "     \"read_bw_mbps\": {\"original\": %s, \"index_flatten\": %s, "
                   "\"parallel_read\": %s},\n",
                   json_double(bench::mbps(r.bw_orig), 3).c_str(),
                   json_double(bench::mbps(r.bw_flat), 3).c_str(),
                   json_double(bench::mbps(r.bw_par), 3).c_str());
      std::fprintf(f,
                   "     \"index_bytes_read\": {\"original\": %llu, \"index_flatten\": %llu, "
                   "\"parallel_read\": %llu},\n",
                   static_cast<unsigned long long>(r.ibytes_orig),
                   static_cast<unsigned long long>(r.ibytes_flat),
                   static_cast<unsigned long long>(r.ibytes_par));
      std::fprintf(f, "     \"write_close_s\": {\"noflatten\": %s, \"flatten\": %s},\n",
                   json_double(r.close_noflat, 6).c_str(), json_double(r.close_flat, 6).c_str());
      std::fprintf(f, "     \"write_bw_mbps\": {\"noflatten\": %s, \"flatten\": %s}}",
                   json_double(bench::mbps(r.wbw_noflat), 3).c_str(),
                   json_double(bench::mbps(r.wbw_flat), 3).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    bench::json_counters(f);
    bench::json_histograms(f);
    std::fprintf(f, "  \"schema\": 2\n}\n");
    std::fclose(f);
  }

  bench::finish_trace(*trace_path);
  bench::print_fault_counters();
  bench::print_index_counters();
  bench::print_topo_counters();
  bench::print_histograms();
  bench::print_sim_counters();
  return 0;
}
