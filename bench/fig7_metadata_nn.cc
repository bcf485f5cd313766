// Figure 7: N-N metadata performance with federated metadata servers.
//
//   7a Open time (incl. creation) vs number of files: PLFS-1/3/6/9 MDS and
//      direct access. PLFS-1 is worst (container creation through a single
//      namespace); PLFS-6 and PLFS-9 beat direct access.
//   7b Close time: more MDS lowers it, but direct stays fastest (closing is
//      light; PLFS closes also write size droppings and clean openhosts).
//
// Every direct create lands in one shared directory (one MDS serializes
// inserts); PLFS hashes containers and subdirs across the federated
// namespaces.
#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("fig7_metadata_nn: N-N open/close times vs file count and MDS count");
  auto* procs = flags.add_i64("procs", 128, "processes creating files");
  auto* min_files = flags.add_i64("min-files", 1024, "smallest total file count in the sweep");
  auto* max_files = flags.add_i64("max-files", 8192, "largest total file count");
  auto* plan_spec = bench::add_fault_plan_flag(flags);
  const bench::MdsTuningFlags tuning = bench::add_mds_tuning_flags(flags);
  auto* replication_spec = bench::add_mds_replication_flag(flags);
  auto* shards_flag = bench::add_shards_flag(flags);
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  auto* trace_path = bench::add_trace_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  bench::start_trace(*trace_path);
  const std::vector<std::size_t> mds_counts = {1, 3, 6, 9};
  const pfs::FaultPlan plan = bench::fault_plan_or_die(*plan_spec, mds_counts.back());
  const pfs::MdsReplication replication = bench::mds_replication_or_die(*replication_spec);
  const std::size_t shards = bench::shards_or_die(*shards_flag);
  // TIO_FIG7_MAX_FILES shrinks the storm for slow CI boxes (mirrors
  // TIO_MATRIX_RANKS for the determinism matrix); a million-file storm is a
  // bench-box run, not a smoke-test one.
  std::int64_t top_files = *max_files;
  if (const char* env = std::getenv("TIO_FIG7_MAX_FILES")) {
    const long long v = std::atoll(env);
    if (v > 0 && v < top_files) top_files = v;
  }
  std::int64_t bottom_files = std::min<std::int64_t>(*min_files, top_files);
  if (bottom_files < 1) bottom_files = 1;
  const auto file_counts =
      bench::sweep(static_cast<int>(bottom_files), static_cast<int>(top_files));

  struct Cell {
    double open, close;
  };
  std::vector<std::vector<Cell>> plfs_cells(mds_counts.size(),
                                            std::vector<Cell>(file_counts.size()));
  std::vector<Cell> direct_cells(file_counts.size());

  // One independent rig per cell; jobs are submitted in the serial bench's
  // execution order and spread across shard threads.
  sim::ShardPool pool(shards);
  const int nprocs = static_cast<int>(*procs);
  const auto storm = [&plan, &tuning, replication, nprocs](int files, std::size_t mds,
                                                           bool use_plfs) {
    MetaSpec spec;
    spec.files_per_proc = std::max(1, files / nprocs);
    spec.use_plfs = use_plfs;
    testbed::Rig::Options o = bench::lanl_rig(mds);
    o.fault_plan = bench::fault_plan_for(plan, mds);
    o.pfs.mds_replication = replication;
    bench::apply_mds_tuning(tuning, o.pfs);
    testbed::Rig rig(o);
    const MetaResult r = run_metadata_storm(rig, nprocs, spec);
    return Cell{r.open_s, r.close_s};
  };
  for (std::size_t f = 0; f < file_counts.size(); ++f) {
    const int files = file_counts[f];
    for (std::size_t i = 0; i < mds_counts.size(); ++i) {
      pool.submit([&storm, &plfs_cells, f, i, files, mds = mds_counts[i]] {
        plfs_cells[i][f] = storm(files, mds, /*use_plfs=*/true);
      });
    }
    // Direct N-N on the same hardware as the largest federation — the
    // extra MDS cannot help because every create is in one directory.
    pool.submit([&storm, &direct_cells, f, files, mds = mds_counts.back()] {
      direct_cells[f] = storm(files, mds, /*use_plfs=*/false);
    });
  }
  pool.run_all();

  bench::print_header("Fig. 7a — N-N Open Time (s, includes creation)",
                      "PLFS-6/PLFS-9 beat direct; PLFS-1 worst");
  Table a({"files", "PLFS-1", "PLFS-3", "PLFS-6", "PLFS-9", "W/O PLFS"});
  for (std::size_t f = 0; f < file_counts.size(); ++f) {
    a.add_row({std::to_string(file_counts[f]), Table::num(plfs_cells[0][f].open, 3),
               Table::num(plfs_cells[1][f].open, 3), Table::num(plfs_cells[2][f].open, 3),
               Table::num(plfs_cells[3][f].open, 3), Table::num(direct_cells[f].open, 3)});
  }
  a.print(std::cout);

  bench::print_header("Fig. 7b — N-N Close Time (s)",
                      "more MDS helps PLFS, but direct close stays fastest");
  Table b({"files", "PLFS-1", "PLFS-3", "PLFS-6", "PLFS-9", "W/O PLFS"});
  for (std::size_t f = 0; f < file_counts.size(); ++f) {
    b.add_row({std::to_string(file_counts[f]), Table::num(plfs_cells[0][f].close, 3),
               Table::num(plfs_cells[1][f].close, 3), Table::num(plfs_cells[2][f].close, 3),
               Table::num(plfs_cells[3][f].close, 3), Table::num(direct_cells[f].close, 3)});
  }
  b.print(std::cout);

  bench::write_json(*json_path, "fig7_metadata_nn", [&](JsonWriter& w) {
    w.key("config").begin_object().field("procs", *procs).field("min_files", bottom_files)
        .field("max_files", top_files).field("fault_plan", *plan_spec)
        .field("mds_replication", pfs::mds_replication_name(replication)).field("shards", shards)
        .field("mds_batch", *tuning.mds_batch)
        .field("mds_batch_linger_us", *tuning.mds_batch_linger_us)
        .field("meta_lease_ms", *tuning.meta_lease_ms).end_object();
    // One object of times per row and phase, keyed plfs<MDS count> and direct.
    const auto times = [&](const char* name, std::size_t f, double Cell::*time) {
      w.key(name).begin_object();
      for (std::size_t i = 0; i < mds_counts.size(); ++i) {
        w.field("plfs" + std::to_string(mds_counts[i]), plfs_cells[i][f].*time, 6);
      }
      w.field("direct", direct_cells[f].*time, 6).end_object();
    };
    w.key("rows").begin_array();
    for (std::size_t f = 0; f < file_counts.size(); ++f) {
      w.begin_object().field("files", file_counts[f]);
      times("open_s", f, &Cell::open);
      times("close_s", f, &Cell::close);
      w.end_object();
    }
    w.end_array();
  });

  bench::finish_trace(*trace_path);
  bench::print_counters();
  return 0;
}
