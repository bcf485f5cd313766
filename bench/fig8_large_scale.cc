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
  const pfs::FaultPlan plan = bench::fault_plan_or_die(*plan_spec);
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
    opts.fault_plan = plan;
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
    opts.fault_plan = plan;
    apply_topo(opts);
    testbed::Rig rig(std::move(opts));
    MetaSpec spec;
    spec.use_plfs = true;
    spec.shared_file = shared;
    return run_metadata_storm(rig, n, spec).open_s;
  };
  // Submission order mirrors the serial bench's execution order exactly
  // (8a, all of 8b, all of 8c, 8d) so shards=1 replays the legacy run —
  // same engine creation order, same trace bytes.
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
    opts.fault_plan = plan;
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

  if (!json_path->empty()) {
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open --json file: %s\n", json_path->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig8_large_scale\",\n");
    std::fprintf(f,
                 "  \"config\": {\"max_read_procs\": %lld, \"max_meta_procs\": %lld, "
                 "\"per_proc_mib\": %lld, \"fault_plan\": \"%s\", \"shards\": %zu},\n",
                 static_cast<long long>(*max_read_procs), static_cast<long long>(*max_meta_procs),
                 static_cast<long long>(*per_proc_mib), plan_spec->c_str(), shards);
    std::fprintf(f, "  \"fig8a_read_bw_mbps\": [");
    for (std::size_t i = 0; i < read_rows.size(); ++i) {
      const auto& r = read_rows[i];
      std::fprintf(f,
                   "%s\n    {\"procs\": %d, \"nn_direct\": %s, \"nn_plfs\": %s, "
                   "\"n1_plfs\": %s}",
                   i ? "," : "", r.procs, json_double(bench::mbps(r.nn_direct), 3).c_str(),
                   json_double(bench::mbps(r.nn_plfs), 3).c_str(),
                   json_double(bench::mbps(r.n1_plfs), 3).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"fig8b_nn_open_s\": [");
    for (std::size_t i = 0; i < nn_rows.size(); ++i) {
      const auto& r = nn_rows[i];
      std::fprintf(f,
                   "%s\n    {\"procs\": %d, \"plfs1\": %s, \"plfs10\": %s, \"plfs20\": %s}",
                   i ? "," : "", r.procs, json_double(r.open_s[0], 6).c_str(),
                   json_double(r.open_s[1], 6).c_str(), json_double(r.open_s[2], 6).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"fig8c_n1_open_s\": [");
    for (std::size_t i = 0; i < n1_rows.size(); ++i) {
      const auto& r = n1_rows[i];
      std::fprintf(f, "%s\n    {\"procs\": %d, \"plfs1\": %s, \"plfs10\": %s}", i ? "," : "",
                   r.procs, json_double(r.open_s[0], 6).c_str(),
                   json_double(r.open_s[1], 6).c_str());
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"fig8d_nn_open_s\": [");
    for (std::size_t i = 0; i < direct_rows.size(); ++i) {
      const auto& r = direct_rows[i];
      std::fprintf(f, "%s\n    {\"procs\": %d, \"direct\": %s, \"plfs10\": %s}", i ? "," : "",
                   r.procs, json_double(r.direct_s, 6).c_str(), json_double(r.plfs_s, 6).c_str());
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
