// Ablation: Index Flatten's buffering threshold.
//
// Flatten only triggers when every writer buffered at most `threshold`
// entries. This sweep shows the trade the paper describes in Section IV-A:
// as more entries are gathered at close, write-close time grows while
// read-open time stays flat (one global-index read + broadcast). Past the
// threshold, flatten is skipped and read-open falls back to Parallel Index
// Read pricing.
#include "bench_util.h"

#include "plfs/mpiio.h"

using namespace tio;
using namespace tio::workloads;

int main(int argc, char** argv) {
  FlagSet flags("ablation_flatten_threshold: close vs open cost of Index Flatten");
  auto* procs = flags.add_i64("procs", 256, "writer processes");
  auto* threshold = flags.add_i64("threshold", 256, "flatten threshold (entries/writer)");
  auto* shards_flag = bench::add_shards_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);

  bench::print_header("Ablation — Index Flatten threshold",
                      "Section IV-A: flatten trades write-close time for read-open time");
  // Each entry count is an independent rig/simulation; the pool spreads
  // rows across shard threads in the serial bench's submission order.
  const std::vector<int> entry_counts = {16, 64, 256, 1024};
  struct Cell {
    double close_s, open_s;
  };
  std::vector<Cell> cells(entry_counts.size());
  sim::ShardPool pool(shards);
  const int nprocs = static_cast<int>(*procs);
  const std::int64_t thresh = *threshold;
  for (std::size_t i = 0; i < entry_counts.size(); ++i) {
    const int entries = entry_counts[i];
    pool.submit([&cells, i, entries, nprocs, thresh] {
      testbed::Rig rig(bench::lanl_rig());
      rig.mount().flatten_threshold = static_cast<std::size_t>(thresh);
      plfs::Plfs plfs(rig.pfs(), rig.mount());
      const bool expect_flat = entries <= thresh;

      JobSpec spec;
      spec.file = "thresh";
      spec.ops = strided_ops(static_cast<std::uint64_t>(entries) * 64_KiB, 64_KiB);
      spec.target.flatten_on_close = true;
      spec.do_read = false;
      double close_s = 0, open_s = 0;
      mpi::run_spmd(rig.cluster(), nprocs, [&](mpi::Comm comm) -> sim::Task<void> {
        auto file = co_await plfs::MpiFile::open_write(plfs, comm, "/thresh");
        if (!file.ok()) throw std::runtime_error(file.status().to_string());
        for (const auto& op : spec.ops(comm.rank(), comm.size())) {
          (void)co_await (*file)->write(op.offset, DataView::pattern(1, op.offset, op.len));
        }
        co_await comm.barrier();
        const TimePoint t0 = comm.engine().now();
        (void)co_await (*file)->close_write(/*flatten=*/true);
        if (comm.rank() == 0) close_s = (comm.engine().now() - t0).to_seconds();

        const TimePoint t1 = comm.engine().now();
        const auto strategy =
            expect_flat ? plfs::ReadStrategy::index_flatten : plfs::ReadStrategy::parallel_read;
        auto rf = co_await plfs::MpiFile::open_read(plfs, comm, "/thresh", strategy);
        if (!rf.ok()) throw std::runtime_error(rf.status().to_string());
        if (comm.rank() == 0) open_s = (comm.engine().now() - t1).to_seconds();
        (void)co_await (*rf)->close_read();
      });
      cells[i] = Cell{close_s, open_s};
    });
  }
  pool.run_all();

  Table t({"entries/writer", "flattened?", "close (s)", "read open (s)"});
  for (std::size_t i = 0; i < entry_counts.size(); ++i) {
    t.add_row({std::to_string(entry_counts[i]),
               entry_counts[i] <= thresh ? "yes" : "no (fallback)",
               Table::num(cells[i].close_s, 3), Table::num(cells[i].open_s, 3)});
  }
  t.print(std::cout);
  bench::print_counters();
  return 0;
}
