// Figure 8: large-scale validation on the Cielo testbed.
//
//   8a Read bandwidth up to 65,536 processes: N-N direct, N-N PLFS, and
//      N-1 PLFS (Parallel Index Read, 10 federated MDS). N-1 through PLFS
//      tracks or exceeds direct N-N.
//   8b Large N-N write-open time: PLFS-1 vs PLFS-10 vs PLFS-20.
//   8c Large N-1 write-open time: PLFS-1 vs PLFS-10 (container/subdir
//      creation burst; federation matters as process count grows).
//   8d N-N open time, PLFS-10 vs direct: paper reports a 17x speedup at
//      32,768 processes.
#include <span>

#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("fig8_large_scale: Cielo-scale read and metadata results");
  auto* max_read_procs = flags.add_i64("max-read-procs", 65536, "largest read job (fig 8a)");
  auto* max_meta_procs = flags.add_i64("max-meta-procs", 32768, "largest storm (figs 8b-d)");
  auto* per_proc_mib = flags.add_i64("per-proc-mib", 4, "MiB per process for fig 8a");
  auto* plan_spec = bench::add_fault_plan_flag(flags);
  const bench::TopologyFlags topo_flags = bench::add_topology_flags(flags);
  auto* shards_flag = bench::add_shards_flag(flags);
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  auto* trace_path = bench::add_trace_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  bench::start_trace(*trace_path);
  const std::uint64_t per_proc = static_cast<std::uint64_t>(*per_proc_mib) << 20;
  const std::uint64_t record = 256_KiB;
  // Server-targeted faults may name any group of the largest federation
  // (fig8b PLFS-20); each rig keeps the ones its groups cover.
  const pfs::FaultPlan plan = bench::fault_plan_or_die(*plan_spec, /*max_groups=*/20);
  // Validate against the Cielo geometry, then thread the resolved preset
  // into every rig below.
  net::ClusterConfig topo_cluster = testbed::cielo();
  bench::apply_topology(topo_flags, topo_cluster);
  const auto apply_topo = [&topo_cluster](testbed::Rig::Options& o) {
    o.cluster.topology = topo_cluster.topology;
    o.cluster.racks = topo_cluster.racks;
    o.cluster.oversubscription = topo_cluster.oversubscription;
  };
  const std::size_t shards = bench::shards_or_die(*shards_flag);

  struct ReadRow {
    int procs;
    double nn_direct, nn_plfs, n1_plfs;
  };
  struct StormRow {
    int procs;
    std::vector<double> open_s;  // one entry per MDS-count column
  };
  struct DirectRow {
    int procs;
    double direct_s, plfs_s;
  };
  const auto read_procs = bench::sweep(4096, static_cast<int>(*max_read_procs));
  const auto storm_procs = bench::sweep(4096, static_cast<int>(*max_meta_procs));
  std::vector<ReadRow> read_rows(read_procs.size());
  std::vector<StormRow> nn_rows(storm_procs.size()), n1_rows(storm_procs.size());
  std::vector<DirectRow> direct_rows(storm_procs.size());

  // Every cell of every section is one independent simulation. They all go
  // into a single pool so the largest jobs (which dominate wall clock)
  // spread across shard threads regardless of which figure they belong to;
  // printing happens after the join, in the same order as before.
  sim::ShardPool pool(shards);

  // --- 8a: read bandwidth ---
  const auto read_bw = [&, per_proc, record](int n, Access access, bool strided) {
    testbed::Rig::Options opts = bench::cielo_rig(10);
    opts.fault_plan = bench::fault_plan_for(plan, 10);
    apply_topo(opts);
    testbed::Rig rig(std::move(opts));
    JobSpec spec;
    spec.file = "big";
    spec.ops = strided ? strided_ops(per_proc, record) : segmented_ops(per_proc, record);
    spec.target.access = access;
    spec.target.strategy = plfs::ReadStrategy::parallel_read;
    spec.drop_caches_before_read = true;
    return run_job(rig, n, spec).read.effective_bw();
  };
  for (std::size_t i = 0; i < read_procs.size(); ++i) {
    const int n = read_procs[i];
    read_rows[i].procs = n;
    pool.submit([&read_bw, &read_rows, i, n] {
      read_rows[i].nn_direct = read_bw(n, Access::direct_nn, /*strided=*/false);
    });
    pool.submit([&read_bw, &read_rows, i, n] {
      read_rows[i].nn_plfs = read_bw(n, Access::plfs_nn, /*strided=*/false);
    });
    pool.submit([&read_bw, &read_rows, i, n] {
      read_rows[i].n1_plfs = read_bw(n, Access::plfs_n1, /*strided=*/true);
    });
  }

  // --- 8b/8c: open storms across MDS counts ---
  const auto storm_open = [&](int n, std::size_t mds, bool shared) {
    testbed::Rig::Options opts = bench::cielo_rig(mds);
    opts.fault_plan = bench::fault_plan_for(plan, mds);
    apply_topo(opts);
    testbed::Rig rig(std::move(opts));
    MetaSpec spec;
    spec.use_plfs = true;
    spec.shared_file = shared;
    return run_metadata_storm(rig, n, spec).open_s;
  };
  // Submission order (8a, all of 8b, all of 8c, 8d) fixes each cell's job
  // index, hence its trace pids, at every shard count.
  constexpr std::size_t kNnMds[] = {1, 10, 20};
  constexpr std::size_t kN1Mds[] = {1, 10};
  for (std::size_t i = 0; i < storm_procs.size(); ++i) {
    const int n = storm_procs[i];
    nn_rows[i] = {n, std::vector<double>(std::size(kNnMds))};
    for (std::size_t m = 0; m < std::size(kNnMds); ++m) {
      pool.submit([&storm_open, &nn_rows, i, n, mds = kNnMds[m], m] {
        nn_rows[i].open_s[m] = storm_open(n, mds, /*shared=*/false);
      });
    }
  }
  for (std::size_t i = 0; i < storm_procs.size(); ++i) {
    const int n = storm_procs[i];
    n1_rows[i] = {n, std::vector<double>(std::size(kN1Mds))};
    for (std::size_t m = 0; m < std::size(kN1Mds); ++m) {
      pool.submit([&storm_open, &n1_rows, i, n, mds = kN1Mds[m], m] {
        n1_rows[i].open_s[m] = storm_open(n, mds, /*shared=*/true);
      });
    }
  }

  // --- 8d: PLFS-10 vs direct ---
  const auto direct_open = [&](int n, bool use_plfs) {
    testbed::Rig::Options opts = bench::cielo_rig(10);
    opts.fault_plan = bench::fault_plan_for(plan, 10);
    apply_topo(opts);
    testbed::Rig rig(std::move(opts));
    MetaSpec spec;
    spec.use_plfs = use_plfs;
    return run_metadata_storm(rig, n, spec).open_s;
  };
  for (std::size_t i = 0; i < storm_procs.size(); ++i) {
    const int n = storm_procs[i];
    direct_rows[i].procs = n;
    pool.submit([&direct_open, &direct_rows, i, n] {
      direct_rows[i].direct_s = direct_open(n, /*use_plfs=*/false);
    });
    pool.submit([&direct_open, &direct_rows, i, n] {
      direct_rows[i].plfs_s = direct_open(n, /*use_plfs=*/true);
    });
  }

  pool.run_all();

  bench::print_header("Fig. 8a — Large-Scale Read Bandwidth (MB/s)",
                      "N-1 PLFS close to / above direct N-N across process counts");
  {
    Table t({"procs", "N-N w/o PLFS", "N-N PLFS", "N-1 PLFS"});
    for (const auto& r : read_rows) {
      t.add_row({std::to_string(r.procs), Table::num(bench::mbps(r.nn_direct)),
                 Table::num(bench::mbps(r.nn_plfs)), Table::num(bench::mbps(r.n1_plfs))});
    }
    t.print(std::cout);
  }

  bench::print_header("Fig. 8b — Large N-N Open Time (s)",
                      "PLFS-1 poor; PLFS-10 dramatically better");
  {
    Table t({"procs", "PLFS-1", "PLFS-10", "PLFS-20"});
    for (const auto& r : nn_rows) {
      std::vector<std::string> row = {std::to_string(r.procs)};
      for (const double open_s : r.open_s) row.push_back(Table::num(open_s, 2));
      t.add_row(row);
    }
    t.print(std::cout);
  }

  bench::print_header("Fig. 8c — Large N-1 Open Time (s)",
                      "similar at small scale; PLFS-10 wins as procs grow");
  {
    Table t({"procs", "PLFS-1", "PLFS-10"});
    for (const auto& r : n1_rows) {
      std::vector<std::string> row = {std::to_string(r.procs)};
      for (const double open_s : r.open_s) row.push_back(Table::num(open_s, 2));
      t.add_row(row);
    }
    t.print(std::cout);
  }

  bench::print_header("Fig. 8d — N-N Open Time, PLFS-10 vs W/O PLFS (s)",
                      "paper: up to 17x faster with PLFS at 32,768 processes");
  {
    Table t({"procs", "W/O PLFS", "PLFS-10", "speedup"});
    for (const auto& r : direct_rows) {
      t.add_row({std::to_string(r.procs), Table::num(r.direct_s, 2), Table::num(r.plfs_s, 2),
                 Table::num(r.direct_s / r.plfs_s, 1) + "x"});
    }
    t.print(std::cout);
  }

  bench::write_json(*json_path, "fig8_large_scale", [&](JsonWriter& w) {
    w.key("config").begin_object().field("max_read_procs", *max_read_procs)
        .field("max_meta_procs", *max_meta_procs).field("per_proc_mib", *per_proc_mib)
        .field("fault_plan", *plan_spec).field("shards", shards).end_object();
    w.key("fig8a_read_bw_mbps").begin_array();
    for (const auto& r : read_rows) {
      w.begin_object().field("procs", r.procs).field("nn_direct", bench::mbps(r.nn_direct), 3)
          .field("nn_plfs", bench::mbps(r.nn_plfs), 3)
          .field("n1_plfs", bench::mbps(r.n1_plfs), 3).end_object();
    }
    w.end_array();
    // 8b/8c rows: one open time per MDS-count column, keyed plfs<count>.
    const auto storm_rows = [&w](const char* name, const std::vector<StormRow>& rows,
                                 std::span<const std::size_t> mds) {
      w.key(name).begin_array();
      for (const auto& r : rows) {
        w.begin_object().field("procs", r.procs);
        for (std::size_t m = 0; m < mds.size(); ++m) {
          w.field("plfs" + std::to_string(mds[m]), r.open_s[m], 6);
        }
        w.end_object();
      }
      w.end_array();
    };
    storm_rows("fig8b_nn_open_s", nn_rows, kNnMds);
    storm_rows("fig8c_n1_open_s", n1_rows, kN1Mds);
    w.key("fig8d_nn_open_s").begin_array();
    for (const auto& r : direct_rows) {
      w.begin_object().field("procs", r.procs).field("direct", r.direct_s, 6)
          .field("plfs10", r.plfs_s, 6).end_object();
    }
    w.end_array();
  });

  bench::finish_trace(*trace_path);
  bench::print_counters();
  return 0;
}
