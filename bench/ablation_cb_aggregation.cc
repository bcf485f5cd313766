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
  bench::CbCensus cb;
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
            rows.push_back(Row{kernel, cpn, aggs, node_agg, sieve, 0, 0, {}});
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

      row.cb = bench::CbCensus::of([&] {
        const JobResult result = run_job(rig, procs, spec);
        row.write_s = result.write.total_s();
        row.read_s = result.read.total_s();
      });
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
               Table::num(r.read_s, 3), std::to_string(r.cb.fabric_msgs),
               Table::num(static_cast<double>(r.cb.bytes_shipped) / 1e6, 1),
               std::to_string(r.cb.pfs_ops), std::to_string(r.cb.sieve_joins)});
  }
  t.print(std::cout);

  bench::write_json(*json_path, "ablation_cb_aggregation", [&](JsonWriter& w) {
    w.key("config").begin_object().field("procs", procs).field("total_mib", *total_mib)
        .field("cb_buffer_mib", *buffer_mib).field("shards", shards).end_object();
    w.key("rows").begin_array();
    for (const Row& r : rows) {
      w.begin_object().field("kernel", r.kernel).field("cores_per_node", r.cores_per_node)
          .field("aggregators", r.aggregators).field("node_agg", r.node_agg)
          .field("sieve_threshold", r.sieve, 4).field("write_s", r.write_s, 6)
          .field("read_s", r.read_s, 6);
      r.cb.write(w);
      w.end_object();
    }
    w.end_array();
  });

  bench::finish_trace(*trace_path);
  bench::print_counters();
  return 0;
}
