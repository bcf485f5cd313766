// Ablation: Parallel Index Read group fan-out.
//
// The two-level aggregation (members -> leader, leaders <-> leaders) has a
// tunable group size; sqrt(N) balances the two tiers. This sweep shows
// read-open time across group sizes, including the degenerate ends: groups
// of 1 (every rank is a leader: the leader exchange becomes all-to-all
// over N ranks) and one group of N (a single leader gathers everything).
#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

int main(int argc, char** argv) {
  FlagSet flags("ablation_group_size: Parallel Index Read group size sweep");
  auto* procs = flags.add_i64("procs", 256, "reader processes");
  auto* shards_flag = bench::add_shards_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);
  const int n = static_cast<int>(*procs);

  bench::print_header("Ablation — Parallel Index Read group size",
                      "sqrt(N) balances member and leader tiers");
  Table t({"group size", "groups", "read open (s)"});
  std::vector<std::size_t> sizes = {1, 4};
  std::size_t root = 1;
  while (root * root < static_cast<std::size_t>(n)) ++root;
  sizes.push_back(root);
  sizes.push_back(static_cast<std::size_t>(n) / 4);
  sizes.push_back(static_cast<std::size_t>(n));

  // Each group size is an independent rig/simulation; the pool spreads rows
  // across shard threads in the serial bench's submission order.
  std::vector<double> opens(sizes.size(), 0.0);
  sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t g = sizes[i];
    if (g == 0) continue;
    pool.submit([&opens, i, g, n] {
      testbed::Rig rig(bench::lanl_rig());
      rig.mount().parallel_read_group = g;
      plfs::Plfs plfs(rig.pfs(), rig.mount());
      const OpGen ops = strided_ops(4_MiB, 64_KiB);

      double open_s = 0;
      mpi::run_spmd(rig.cluster(), n, [&](mpi::Comm comm) -> sim::Task<void> {
        auto wf = co_await plfs::MpiFile::open_write(plfs, comm, "/g");
        if (!wf.ok()) throw std::runtime_error(wf.status().to_string());
        for (const auto& op : ops(comm.rank(), comm.size())) {
          (void)co_await (*wf)->write(op.offset, DataView::pattern(1, op.offset, op.len));
        }
        (void)co_await (*wf)->close_write(false);
        co_await comm.barrier();
        const TimePoint t0 = comm.engine().now();
        auto rf = co_await plfs::MpiFile::open_read(plfs, comm, "/g",
                                                    plfs::ReadStrategy::parallel_read);
        if (!rf.ok()) throw std::runtime_error(rf.status().to_string());
        if (comm.rank() == 0) open_s = (comm.engine().now() - t0).to_seconds();
        (void)co_await (*rf)->close_read();
      });
      opens[i] = open_s;
    });
  }
  pool.run_all();

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t g = sizes[i];
    if (g == 0) continue;
    t.add_row({std::to_string(g), std::to_string((n + static_cast<int>(g) - 1) / static_cast<int>(g)),
               Table::num(opens[i], 3)});
  }
  t.print(std::cout);
  bench::print_counters();
  return 0;
}
