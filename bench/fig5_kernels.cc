// Figure 5: read performance of PLFS vs direct PFS access across the six
// I/O kernels (Pixie3D, ARAMCO, IOR, MADbench, LANL 1, LANL 3).
//
// Paper shapes to reproduce:
//   5a Pixie3D  — direct wins small, PLFS scales better and wins large
//   5b ARAMCO   — PLFS up to ~8x below ~300 procs; direct wins at scale
//                 (strong scaling: index-aggregation time dominates)
//   5c IOR      — PLFS wins at all counts (up to ~4.5x)
//   5d MADbench — PLFS wins
//   5e LANL 1   — PLFS wins everywhere, max ~10x
//   5f LANL 3   — near parity; PLFS slightly ahead at the largest scale
// All PLFS reads use Parallel Index Read (chosen as the default).
//
// The collective-buffering kernels (5f, and the optional --noncontig
// table) honor the shared --cb-* flags, so the intra-node aggregation and
// data-sieving pipeline can be measured here directly; per-row iolib.cb.*
// counter deltas land in the --json report.
#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

namespace {

// Fabric preset applied to every rig; set once after flag parsing, before
// the shard pool starts (defaults = flat, byte-identical).
net::TopologyKind g_topology = net::TopologyKind::flat;
std::size_t g_racks = 1;
double g_oversubscription = 1.0;

double read_bw(const JobSpec& base, Access access, int procs) {
  testbed::Rig::Options opts = bench::lanl_rig();
  opts.cluster.topology = g_topology;
  opts.cluster.racks = g_racks;
  opts.cluster.oversubscription = g_oversubscription;
  testbed::Rig rig(opts);
  JobSpec spec = base;
  spec.target.access = access;
  spec.target.strategy = plfs::ReadStrategy::parallel_read;
  spec.drop_caches_before_read = true;  // restart reads are cold
  return run_job(rig, procs, spec).read.effective_bw();
}

struct Cell {
  double direct, plfs;
  // iolib.cb census over both cells' runs (zero for non-collective kernels).
  bench::CbCensus cb;
};

struct KernelRows {
  std::string key;
  std::vector<int> procs;
  std::vector<Cell> cells;
};

KernelRows kernel_table(const std::string& key, const std::string& title,
                        const std::string& ref, const std::vector<int>& procs,
                        std::size_t shards, const std::function<JobSpec(int)>& make) {
  bench::print_header(title, ref);
  // Every (procs, access) cell is an independent simulation; spread the rows
  // across shard threads, submitting in the serial bench's execution order.
  std::vector<Cell> cells(procs.size());
  sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const int n = procs[i];
    pool.submit([&cells, &make, i, n] {
      Cell& cell = cells[i];
      cell.cb = bench::CbCensus::of([&] {
        const JobSpec spec = make(n);
        cell.direct = read_bw(spec, Access::direct_n1, n);
        cell.plfs = read_bw(spec, Access::plfs_n1, n);
      });
    });
  }
  pool.run_all();
  Table t({"procs", "direct MB/s", "PLFS MB/s", "PLFS/direct"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    t.add_row({std::to_string(procs[i]), Table::num(bench::mbps(cells[i].direct)),
               Table::num(bench::mbps(cells[i].plfs)),
               Table::num(cells[i].plfs / cells[i].direct, 2) + "x"});
  }
  t.print(std::cout);
  return KernelRows{key, procs, std::move(cells)};
}

}  // namespace

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("fig5_kernels: kernel read bandwidth, PLFS vs direct");
  auto* max_procs = flags.add_i64("max-procs", 512, "largest process count");
  auto* scale_mib = flags.add_i64("scale-mib", 8,
                                  "per-process data scale in MiB (paper used up to 1 GB)");
  auto* shards_flag = bench::add_shards_flag(flags);
  const bench::TopologyFlags topo_flags = bench::add_topology_flags(flags);
  const bench::CbFlags cb_flags = bench::add_cb_flags(flags);
  auto* with_noncontig = flags.add_bool(
      "noncontig", false, "also run the noncontiguous field-access kernel (sieving showcase)");
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  auto* trace_path = bench::add_trace_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  bench::start_trace(*trace_path);
  {
    net::ClusterConfig cluster = testbed::lanl_cluster();
    bench::apply_topology(topo_flags, cluster);
    g_topology = cluster.topology;
    g_racks = cluster.racks;
    g_oversubscription = cluster.oversubscription;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);
  const auto procs = bench::sweep(32, static_cast<int>(*max_procs));
  const std::uint64_t scale = static_cast<std::uint64_t>(*scale_mib) << 20;
  const iolib::CbConfig cb = bench::cb_config_of(cb_flags);

  std::vector<KernelRows> results;

  // Pixie3D writes very large contiguous slabs (1 GB/proc in the paper):
  // scaled up 16x relative to the other kernels so slab sizes stay
  // representative and direct access can stream.
  results.push_back(kernel_table("pixie3d", "Fig. 5a — Pixie3D (pnetcdf, weak scaling)",
                                 "direct wins small; PLFS scales better and wins large", procs,
                                 shards, [&](int n) { return pixie3d(n, 16 * scale, 8, {}); }));

  // ARAMCO is strong scaling: the dataset is fixed, so per-process data
  // shrinks as procs grow while index-aggregation cost does not.
  results.push_back(kernel_table(
      "aramco", "Fig. 5b — ARAMCO (HDF5, strong scaling)",
      "PLFS up to ~8x at low counts; direct wins at scale", procs, shards, [&](int n) {
        (void)n;
        return aramco(n, 8 * scale, 1_MiB, {});
      }));

  results.push_back(kernel_table("ior", "Fig. 5c — IOR (N-1, 1 MiB records)",
                                 "PLFS wins at all process counts (up to ~4.5x)", procs, shards,
                                 [&](int n) {
                                   (void)n;
                                   JobSpec spec;
                                   spec.file = "ior";
                                   spec.ops = strided_ops(scale, 1_MiB);
                                   return spec;
                                 }));

  results.push_back(kernel_table("madbench", "Fig. 5d — MADbench (out-of-core matrices)",
                                 "PLFS wins", procs, shards, [&](int n) {
                                   (void)n;
                                   return madbench(scale / 2, 2, {});
                                 }));

  results.push_back(kernel_table("lanl1", "Fig. 5e — LANL 1 (weak scaling, ~500 KB strided)",
                                 "PLFS wins everywhere; paper max ~10x at 384 procs", procs,
                                 shards, [&](int n) {
                                   (void)n;
                                   return lanl1(scale, {});
                                 }));

  results.push_back(kernel_table(
      "lanl3", "Fig. 5f — LANL 3 (strong scaling, 1 KiB records, collective buffering)",
      "near parity; PLFS slightly ahead at the largest scale", procs, shards,
      [&](int n) { return lanl3(n, 16 * scale, {}, cb); }));

  if (*with_noncontig) {
    // Off by default so the six-table stdout stays byte-identical to the
    // historical output; the sieving sweep turns it on.
    results.push_back(kernel_table(
        "noncontig", "Noncontig — field access (1 KiB fields, 4 KiB elements)",
        "request runs leave holes; read-side sieving collapses pfs ops", procs, shards,
        [&](int n) { return noncontig(n, 16 * scale, 1024, 4096, {}, cb); }));
  }

  bench::write_json(*json_path, "fig5_kernels", [&](JsonWriter& w) {
    w.key("config").begin_object().field("max_procs", *max_procs)
        .field("scale_mib", *scale_mib).field("shards", shards)
        .field("cb_aggregators", *cb_flags.aggregators).field("cb_buffer_mib", *cb_flags.buffer_mib)
        .field("cb_node_agg", *cb_flags.node_agg)
        .field("cb_sieve_threshold", *cb_flags.sieve_threshold, 4)
        .field("noncontig", *with_noncontig).end_object();
    w.key("kernels").begin_array();
    for (const KernelRows& kr : results) {
      w.begin_object().field("kernel", kr.key).key("rows").begin_array();
      for (std::size_t i = 0; i < kr.cells.size(); ++i) {
        const Cell& c = kr.cells[i];
        w.begin_object().field("procs", kr.procs[i]).field("direct_mbps", bench::mbps(c.direct), 3)
            .field("plfs_mbps", bench::mbps(c.plfs), 3).key("cb").begin_object();
        c.cb.write(w);
        w.end_object().end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
  });

  bench::finish_trace(*trace_path);
  bench::print_counters();
  return 0;
}
