// Ablation: fabric topology vs Parallel Index Read group placement.
//
// The leader allgather of the Parallel Index Read open is the incast the
// paper's flat fabric could never show: every leader's merged run converges
// on every other leader at once, and with leaders scattered across racks
// the whole exchange rides the ToR uplinks. This sweep crosses the fabric
// preset (flat / tor / fat-tree) and the ToR oversubscription factor with
// the group-formation policy (sqrt-of-N rank blocks, a fixed group size,
// or one group per rack), reporting read-open time plus the run's
// cross-rack fabric traffic from the net.topo.* counters.
//
// The interesting corner is a *ragged* group size: with procs=512 the
// default sqrt grouping uses groups of 23, which straddle node and rack
// boundaries, so the binomial trees inside each group and the leader
// exchange both cross ToRs. Rack groups keep member gathers inside one
// switch and place exactly one leader per occupied rack.
//
// The workload is an N-1 strided checkpoint whose record lengths are drawn
// per record from the rig seed (each record fills between half and all of
// its slot). A uniform strided index pattern-compresses to a few bytes per
// writer and would hide exactly the fabric volume this ablation measures;
// ragged lengths defeat run detection, so every entry travels as a
// delta-coded literal.
#include "bench_util.h"

#include "common/rng.h"

using namespace tio;
using namespace tio::workloads;

namespace {

struct RowSpec {
  net::TopologyKind kind;
  double oversubscription;
  const char* grouping;  // "sqrt" | "g32" | "rack"
};

struct RowParams {
  int n = 512;
  std::size_t racks = 8;
  std::uint64_t per_proc = 0;
  std::uint64_t record = 0;
  Duration index_cpu = Duration::zero();
};

struct RowResult {
  double open_s = 0;
  std::uint64_t cross_rack_bytes = 0;
  std::uint64_t cross_rack_msgs = 0;
  std::uint64_t intra_rack_bytes = 0;
};

// Strided N-1 slots of `record` bytes; each write fills a seeded random
// prefix of its slot, in [record/2, record].
OpGen ragged_strided_ops(std::uint64_t bytes_per_proc, std::uint64_t record,
                         std::uint64_t seed) {
  const std::uint64_t rounds = bytes_per_proc / record;
  return [=](int rank, int nprocs) {
    Rng rng(hash_combine(seed, static_cast<std::uint64_t>(rank)));
    std::vector<IoOp> ops;
    ops.reserve(rounds);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t len = record / 2 + rng.below(record / 2 + 1);
      ops.push_back(IoOp{(r * nprocs + static_cast<std::uint64_t>(rank)) * record, len});
    }
    return ops;
  };
}

RowResult run_row(const RowSpec& spec, const RowParams& p) {
  const int n = p.n;
  testbed::Rig::Options o = bench::lanl_rig();
  o.cluster.topology = spec.kind;
  o.cluster.racks = p.racks;
  o.cluster.oversubscription = spec.oversubscription;
  const std::uint64_t seed = o.seed;
  testbed::Rig rig(o);
  // Zero by default: the mount's 1 us/entry merge cost swamps the exchange
  // (the open becomes CPU-bound) and would mask the fabric contention this
  // sweep isolates. --index-cpu-ns restores it.
  rig.mount().index_cpu_per_entry = p.index_cpu;
  if (std::string(spec.grouping) == "rack") {
    rig.mount().rack_aware_groups = true;
  } else if (std::string(spec.grouping) == "g32") {
    rig.mount().parallel_read_group = 32;
  }
  plfs::Plfs plfs(rig.pfs(), rig.mount());
  const OpGen ops = ragged_strided_ops(p.per_proc, p.record, seed);

  RowResult row;
  const bench::LocalDelta topo({"net.topo.bytes.cross_rack", "net.topo.msgs.cross_rack",
                                "net.topo.bytes.intra_rack"});
  mpi::run_spmd(rig.cluster(), n, [&](mpi::Comm comm) -> sim::Task<void> {
    auto wf = co_await plfs::MpiFile::open_write(plfs, comm, "/t");
    if (!wf.ok()) throw std::runtime_error(wf.status().to_string());
    for (const auto& op : ops(comm.rank(), comm.size())) {
      (void)co_await (*wf)->write(op.offset, DataView::pattern(1, op.offset, op.len));
    }
    (void)co_await (*wf)->close_write(false);
    co_await comm.barrier();
    const TimePoint t0 = comm.engine().now();
    auto rf = co_await plfs::MpiFile::open_read(plfs, comm, "/t",
                                                plfs::ReadStrategy::parallel_read);
    if (!rf.ok()) throw std::runtime_error(rf.status().to_string());
    if (comm.rank() == 0) row.open_s = (comm.engine().now() - t0).to_seconds();
    (void)co_await (*rf)->close_read();
  });
  // Whole-job deltas; the only fabric-heavy phase is the open's index
  // exchange, so cross-rack bytes track the leader traffic.
  row.cross_rack_bytes = topo[0];
  row.cross_rack_msgs = topo[1];
  row.intra_rack_bytes = topo[2];
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::setlocale(LC_ALL, "");  // stdout tables honor the user's locale; JSON must not
  FlagSet flags("ablation_topology: fabric preset x oversubscription x group placement");
  auto* procs = flags.add_i64(
      "procs", 512, "reader processes (non-square counts make sqrt groups straddle racks)");
  auto* racks_flag = flags.add_i64("racks", 0, "rack count (0 = nodes/8, at least 1)");
  auto* per_proc_mib = flags.add_i64("per-proc-mib", 2, "MiB written per stream");
  auto* record_kib = flags.add_i64("record-kib", 4, "record slot size KiB (small = big index)");
  auto* index_cpu_ns = flags.add_i64(
      "index-cpu-ns", 0, "per-entry index merge CPU in ns (0 isolates fabric time)");
  auto* shards_flag = bench::add_shards_flag(flags);
  auto* json_path = flags.add_string("json", "", "also write results to this file as JSON");
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  const std::size_t shards = bench::shards_or_die(*shards_flag);
  RowParams params;
  params.n = static_cast<int>(*procs);
  params.per_proc = static_cast<std::uint64_t>(*per_proc_mib) << 20;
  params.record = static_cast<std::uint64_t>(*record_kib) << 10;
  if (*index_cpu_ns < 0) {
    std::fprintf(stderr, "--index-cpu-ns must be >= 0\n");
    return 1;
  }
  params.index_cpu = Duration::ns(*index_cpu_ns);
  net::ClusterConfig geom = testbed::lanl_cluster();
  std::size_t racks = static_cast<std::size_t>(*racks_flag);
  if (racks == 0) racks = std::max<std::size_t>(1, geom.nodes / 8);
  if (geom.nodes % racks != 0) {
    std::fprintf(stderr, "--racks=%zu does not divide nodes=%zu\n", racks, geom.nodes);
    return 1;
  }
  params.racks = racks;
  const int n = params.n;

  // flat has no rack-visible links, so only one oversubscription column.
  std::vector<RowSpec> specs;
  for (const char* grouping : {"sqrt", "g32", "rack"}) {
    specs.push_back({net::TopologyKind::flat, 1.0, grouping});
  }
  for (const auto kind : {net::TopologyKind::tor, net::TopologyKind::fat_tree}) {
    for (const double oversub : {1.0, 4.0, 8.0}) {
      for (const char* grouping : {"sqrt", "g32", "rack"}) {
        specs.push_back({kind, oversub, grouping});
      }
    }
  }

  std::vector<RowResult> rows(specs.size());
  sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pool.submit([&rows, &specs, i, &params] { rows[i] = run_row(specs[i], params); });
  }
  pool.run_all();

  bench::print_header("Ablation — topology x oversubscription x group placement",
                      "tor uplink incast during the leader exchange; rack "
                      "groups keep member gathers inside one ToR");
  Table t({"topology", "oversub", "grouping", "read open (s)", "x-rack MiB", "x-rack msgs"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    t.add_row({net::topology_kind_name(specs[i].kind), Table::num(specs[i].oversubscription, 0),
               specs[i].grouping, Table::num(rows[i].open_s, 3),
               Table::num(static_cast<double>(rows[i].cross_rack_bytes) / (1 << 20), 1),
               std::to_string(rows[i].cross_rack_msgs)});
  }
  t.print(std::cout);

  bench::write_json(*json_path, "ablation_topology", [&](JsonWriter& w) {
    w.key("config").begin_object().field("procs", n).field("racks", racks)
        .field("nodes", geom.nodes).field("cores_per_node", geom.cores_per_node)
        .field("per_proc_mib", *per_proc_mib).field("record_kib", *record_kib)
        .field("index_cpu_ns", *index_cpu_ns).field("shards", shards).end_object();
    w.key("rows").begin_array();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      w.begin_object().field("topology", net::topology_kind_name(specs[i].kind))
          .field("oversubscription", specs[i].oversubscription, 1)
          .field("grouping", specs[i].grouping).field("read_open_s", rows[i].open_s, 6)
          .field("cross_rack_bytes", rows[i].cross_rack_bytes)
          .field("cross_rack_msgs", rows[i].cross_rack_msgs)
          .field("intra_rack_bytes", rows[i].intra_rack_bytes).end_object();
    }
    w.end_array();
  });

  bench::print_counters();
  return 0;
}
