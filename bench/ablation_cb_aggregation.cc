// Ablation: the collective-buffering pipeline's knobs.
//
// Sweeps cores_per_node x aggregators x sieve threshold, with intra-node
// aggregation off and on, over the two collective kernels (LANL 3's 1 KiB
// strided records and the noncontiguous field-access pattern). For every
// row it reports virtual write/read time plus the iolib.cb.* message
// census, so the claimed wins are visible directly:
//   * node aggregation: the exchange's groups shrink from one per rank
//     to one per node, so it carries nodes x aggregators messages instead
//     of ranks x aggregators (~cores_per_node fold);
//   * read-side sieving: on the noncontig pattern the aggregator's pfs op
//     count collapses as holes are bridged (LANL 3 tiles the file, leaving
//     no holes — sieving is correctly inert there).
#include <array>

#include "bench_util.h"

using namespace tio;
using namespace tio::workloads;

namespace {

struct Row {
  std::string kernel;
  int cores_per_node, aggregators;
  bool node_agg;
  double sieve;
  double write_s, read_s;
  std::uint64_t fabric_msgs, local_msgs, bytes_shipped, pfs_ops, sieve_joins;
};

}  // namespace

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("ablation_cb_aggregation: collective-buffering pipeline knobs");
  auto* procs_flag = flags.add_i64("procs", 128, "processes per run");
  auto* total_mib = flags.add_i64("total-mib", 64, "total data per kernel, MiB");
  auto* buffer_mib = flags.add_i64("cb-buffer-mib", 4, "collective buffer size, MiB");
  auto* shards_flag = bench::add_shards_flag(flags);
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  auto* trace_path = bench::add_trace_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  bench::start_trace(*trace_path);
  const std::size_t shards = bench::shards_or_die(*shards_flag);
  const int procs = static_cast<int>(*procs_flag);
  const std::uint64_t total = static_cast<std::uint64_t>(*total_mib) << 20;
  const std::uint64_t buffer_bytes = bench::cb_buffer_bytes_or_die(*buffer_mib);

  const std::array<int, 2> cpn_sweep = {4, 16};
  const std::array<int, 2> agg_sweep = {4, 16};
  const std::array<double, 2> sieve_sweep = {0.0, 4.0};

  std::vector<Row> rows;
  for (const char* kernel : {"lanl3", "noncontig"}) {
    for (const int cpn : cpn_sweep) {
      for (const int aggs : agg_sweep) {
        for (const bool node_agg : {false, true}) {
          for (const double sieve : sieve_sweep) {
            rows.push_back(Row{kernel, cpn, aggs, node_agg, sieve, 0, 0, 0, 0, 0, 0, 0});
          }
        }
      }
    }
  }

  sim::ShardPool pool(shards);
  for (auto& row : rows) {
    pool.submit([&row, procs, total, buffer_bytes] {
      iolib::CbConfig cb;
      cb.aggregators = row.aggregators;
      cb.buffer_bytes = buffer_bytes;
      cb.node_aggregation = row.node_agg;
      cb.sieve_threshold = row.sieve;
      JobSpec spec = row.kernel == std::string("lanl3")
                         ? lanl3(procs, total, {}, cb)
                         : noncontig(procs, 4 * total, 1024, 4096, {}, cb);
      spec.target.access = Access::direct_n1;
      spec.drop_caches_before_read = true;

      testbed::Rig::Options opts = bench::lanl_rig();
      opts.cluster.cores_per_node = static_cast<std::size_t>(row.cores_per_node);
      testbed::Rig rig(opts);

      const auto census = [] {
        return std::array<std::uint64_t, 5>{
            counter("iolib.cb.fabric_msgs").local_value(),
            counter("iolib.cb.local_msgs").local_value(),
            counter("iolib.cb.bytes_shipped").local_value(),
            counter("iolib.cb.pfs_ops").local_value(),
            counter("iolib.cb.sieve_joins").local_value()};
      };
      const auto before = census();
      const JobResult result = run_job(rig, procs, spec);
      const auto after = census();
      row.write_s = result.write.total_s();
      row.read_s = result.read.total_s();
      row.fabric_msgs = after[0] - before[0];
      row.local_msgs = after[1] - before[1];
      row.bytes_shipped = after[2] - before[2];
      row.pfs_ops = after[3] - before[3];
      row.sieve_joins = after[4] - before[4];
    });
  }
  pool.run_all();

  bench::print_header("Ablation — collective buffering: node aggregation and sieving",
                      "fabric messages drop ~cores_per_node-fold with node aggregation; "
                      "sieving collapses noncontig pfs ops");
  Table t({"kernel", "c/node", "aggs", "node-agg", "sieve", "write s", "read s", "fabric msgs",
           "shipped MB", "pfs ops", "joins"});
  for (const auto& r : rows) {
    t.add_row({r.kernel, std::to_string(r.cores_per_node), std::to_string(r.aggregators),
               r.node_agg ? "on" : "off", Table::num(r.sieve, 1), Table::num(r.write_s, 3),
               Table::num(r.read_s, 3), std::to_string(r.fabric_msgs),
               Table::num(static_cast<double>(r.bytes_shipped) / 1e6, 1),
               std::to_string(r.pfs_ops), std::to_string(r.sieve_joins)});
  }
  t.print(std::cout);

  if (!json_path->empty()) {
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open --json file: %s\n", json_path->c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_cb_aggregation\",\n");
    std::fprintf(f,
                 "  \"config\": {\"procs\": %d, \"total_mib\": %lld, \"cb_buffer_mib\": %lld, "
                 "\"shards\": %zu},\n",
                 procs, static_cast<long long>(*total_mib),
                 static_cast<long long>(*buffer_mib), shards);
    std::fprintf(f, "  \"rows\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "%s\n    {\"kernel\": \"%s\", \"cores_per_node\": %d, \"aggregators\": %d, "
                   "\"node_agg\": %s, \"sieve_threshold\": %s, \"write_s\": %s, \"read_s\": %s, "
                   "\"fabric_msgs\": %llu, \"local_msgs\": %llu, \"bytes_shipped\": %llu, "
                   "\"pfs_ops\": %llu, \"sieve_joins\": %llu}",
                   i ? "," : "", r.kernel.c_str(), r.cores_per_node, r.aggregators,
                   r.node_agg ? "true" : "false", json_double(r.sieve, 4).c_str(),
                   json_double(r.write_s, 6).c_str(), json_double(r.read_s, 6).c_str(),
                   static_cast<unsigned long long>(r.fabric_msgs),
                   static_cast<unsigned long long>(r.local_msgs),
                   static_cast<unsigned long long>(r.bytes_shipped),
                   static_cast<unsigned long long>(r.pfs_ops),
                   static_cast<unsigned long long>(r.sieve_joins));
    }
    std::fprintf(f, "\n  ],\n");
    bench::json_counters(f);
    bench::json_histograms(f);
    std::fprintf(f, "  \"schema\": 2\n}\n");
    std::fclose(f);
  }

  bench::finish_trace(*trace_path);
  bench::print_cb_counters();
  bench::print_histograms();
  bench::print_sim_counters();
  return 0;
}
