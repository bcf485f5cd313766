// Microbenchmarks of the simulator core (google-benchmark): event loop
// throughput, fair-share channel churn, extent-map writes, and shard-pool
// scaling — these bound how large a simulated machine the benches can
// afford.
//
// Convenience flags (translated to google-benchmark's own):
//   --repeat=N     run every benchmark N times (--benchmark_repetitions)
//   --json=FILE    also write the JSON report to FILE (--benchmark_out)
//   --trace=FILE   write Chrome trace-event JSON of the simulated spans
//   --shards=N     largest shard count the shard-pool benchmark sweeps to
//                  (validated by bench::shards_or_die, like the fig benches)
// Results feed BENCH_sim.json; after the run the shared counter dump
// (bench::print_counters, on stderr) shows the pool hit rates next to the
// throughput numbers.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "pfs/extent_map.h"
#include "sim/engine.h"
#include "sim/fairshare.h"
#include "sim/sharded.h"
#include "sim/sync.h"

namespace tio::sim {
namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.after(Duration::us(i % 977), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(100000);

Task<void> hop(Engine& engine, int hops) {
  for (int i = 0; i < hops; ++i) co_await engine.sleep(Duration::ns(10));
}

void BM_CoroutineHops(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    for (int p = 0; p < 100; ++p) engine.spawn(hop(engine, static_cast<int>(state.range(0))));
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 * state.range(0));
}
BENCHMARK(BM_CoroutineHops)->Arg(1000);

Task<void> one_transfer(FairShareChannel& ch, std::uint64_t bytes) {
  co_await ch.transfer(bytes);
}

void BM_FairShareChurn(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    FairShareChannel ch(engine, 1e9);
    Rng rng(7);
    for (int i = 0; i < state.range(0); ++i) {
      engine.spawn(one_transfer(ch, 1000 + rng.below(100000)));
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FairShareChurn)->Arg(10000);

void BM_ExtentMapRandomWrites(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    pfs::ExtentMap map;
    for (int i = 0; i < state.range(0); ++i) {
      const std::uint64_t off = rng.below(1 << 26);
      map.write(off, DataView::pattern(i, off, 1 + rng.below(1 << 14)));
    }
    benchmark::DoNotOptimize(map.extent_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ExtentMapRandomWrites)->Arg(10000);

// Independent engines spread across a shard pool: the embarrassingly
// parallel shape the fig benches use. Scaling here bounds the wall-clock
// win a multi-core host can see.
void BM_ShardPoolEngines(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  constexpr int kJobs = 8;
  constexpr int kEventsPerJob = 20000;
  for (auto _ : state) {
    ShardPool pool(shards);
    std::vector<std::uint64_t> events(kJobs, 0);
    for (int j = 0; j < kJobs; ++j) {
      pool.submit([&events, j] {
        Engine engine;
        for (int i = 0; i < kEventsPerJob; ++i) {
          engine.after(Duration::us(i % 977), [] {});
        }
        engine.run();
        events[static_cast<std::size_t>(j)] = engine.events_processed();
      });
    }
    pool.run_all();
    benchmark::DoNotOptimize(events.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kJobs * kEventsPerJob);
}

// Registered from main: sweeps shard counts 1..max (doubling), where max
// comes from --shards.
void register_sharded_benchmarks(std::size_t max_shards) {
  std::vector<std::int64_t> counts = {1};
  for (std::int64_t s = 2; s <= static_cast<std::int64_t>(max_shards); s *= 2) {
    counts.push_back(s);
  }
  if (counts.back() != static_cast<std::int64_t>(max_shards)) {
    counts.push_back(static_cast<std::int64_t>(max_shards));
  }
  auto* pool_bench = benchmark::RegisterBenchmark("BM_ShardPoolEngines", BM_ShardPoolEngines);
  for (const std::int64_t c : counts) pool_bench->Arg(c);
}

void BM_ExtentMapAppendCoalesce(benchmark::State& state) {
  for (auto _ : state) {
    pfs::ExtentMap map;
    for (int i = 0; i < state.range(0); ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) * 4096;
      map.write(off, DataView::pattern(1, off, 4096));
    }
    if (map.extent_count() != 1) std::abort();  // coalescing must hold
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ExtentMapAppendCoalesce)->Arg(10000);

}  // namespace
}  // namespace tio::sim

int main(int argc, char** argv) {
  // Translate the convenience flags, pass everything else through.
  std::string trace_path;
  long long shards = 1;
  std::vector<std::string> rewritten = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--repeat=", 0) == 0) {
      rewritten.push_back("--benchmark_repetitions=" +
                          std::string(arg.substr(std::strlen("--repeat="))));
    } else if (arg.rfind("--json=", 0) == 0) {
      rewritten.push_back("--benchmark_out_format=json");
      rewritten.push_back("--benchmark_out=" +
                          std::string(arg.substr(std::strlen("--json="))));
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = std::string(arg.substr(std::strlen("--trace=")));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoll(std::string(arg.substr(std::strlen("--shards="))).c_str());
    } else {
      rewritten.emplace_back(arg);
    }
  }
  tio::sim::register_sharded_benchmarks(tio::bench::shards_or_die(shards));
  tio::bench::start_trace(trace_path);
  std::vector<char*> bench_argv;
  bench_argv.reserve(rewritten.size());
  for (auto& s : rewritten) bench_argv.push_back(s.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tio::bench::finish_trace(trace_path);
  tio::bench::print_counters();
  return 0;
}
