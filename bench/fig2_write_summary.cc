// Figure 2: summary of N-1 write-bandwidth speedups of PLFS over direct
// access to the underlying parallel file system, across applications.
//
// The paper reports speedups up to ~150x; the gain comes from eliminating
// shared-file lock serialization and read-modify-write on the underlying
// file system by logging each process's writes to private files. Smaller
// records suffer more under direct access, so they gain the most.
#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

namespace {

struct App {
  std::string name;
  std::uint64_t record;
  std::uint64_t per_proc;
};

double write_bw(const testbed::Rig::Options& opts, int procs, const App& app, Access access) {
  testbed::Rig rig(opts);
  JobSpec spec;
  spec.file = app.name;
  spec.ops = strided_ops(app.per_proc, std::min(app.record, app.per_proc));
  spec.target.access = access;
  spec.do_read = false;
  return run_job(rig, procs, spec).write.effective_bw();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("fig2_write_summary: N-1 write speedups, PLFS vs direct PFS");
  auto* procs = flags.add_i64("procs", 256, "concurrent writer processes");
  auto* per_proc_mib = flags.add_i64("per-proc-mib", 8, "MiB written per process");
  auto* shards_flag = bench::add_shards_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);

  bench::print_header("Fig. 2 — Summary of write performance results",
                      "PLFS N-1 write speedup across applications (up to ~150x)");

  const std::uint64_t per_proc = static_cast<std::uint64_t>(*per_proc_mib) << 20;
  // The applications of the paper's Fig. 2 bar chart (from the SC09 PLFS
  // paper). The two LANL mission codes' record sizes come from this paper's
  // text; the rest are synthesized as typical unaligned checkpoint records
  // for each code (see DESIGN.md's substitution table).
  const std::vector<App> apps = {
      {"BTIO", 2000000, per_proc},          // NAS BT-IO, ~2 MB unaligned
      {"Chombo", 512000, per_proc},         // AMR dumps, ~500 KB unaligned
      {"FLASH", 100000, per_proc},          // many small unaligned records
      {"LANL_1", 500000, per_proc},         // ~500 KB records (Section IV-D5)
      {"LANL_2", 64000, per_proc},          // mid-size unaligned records
      {"LANL_3", 1_KiB, per_proc / 4},      // 1 KiB records (Section IV-D6)
      {"QCD", 1049088, per_proc},           // ~1 MB, stripe-unaligned
      {"MPI-IO_Test", 47_KiB, per_proc},    // the SC09 paper's 47 KB config
  };

  // Each app is an independent pair of simulations; the pool spreads apps
  // across shard threads in the serial bench's submission order.
  struct Cell {
    double direct, plfs;
  };
  std::vector<Cell> cells(apps.size());
  sim::ShardPool pool(shards);
  const int nprocs = static_cast<int>(*procs);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    pool.submit([&cells, &apps, i, nprocs] {
      cells[i].direct = write_bw(bench::lanl_rig(), nprocs, apps[i], Access::direct_n1);
      cells[i].plfs = write_bw(bench::lanl_rig(), nprocs, apps[i], Access::plfs_n1);
    });
  }
  pool.run_all();

  Table table({"app", "record", "direct MB/s", "PLFS MB/s", "speedup"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& app = apps[i];
    table.add_row({app.name, format_bytes(app.record), Table::num(bench::mbps(cells[i].direct)),
                   Table::num(bench::mbps(cells[i].plfs)),
                   Table::num(cells[i].plfs / cells[i].direct, 1) + "x"});
  }
  table.print(std::cout);
  std::printf("\nprocs=%lld, %lld MiB/proc, N-1 strided, LANL-cluster testbed\n",
              static_cast<long long>(*procs), static_cast<long long>(*per_proc_mib));
  bench::print_counters();
  return 0;
}
