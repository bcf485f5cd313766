// Microbenchmarks of the index hot paths (google-benchmark): build, lookup,
// and encode/decode — the CPU work each reader pays at open.
//
// The headline number is the global-index build: k-way merge of per-writer
// sorted runs plus the FlatIndex offset sweep, at 10k/100k/1M entries.
// After the run a serialized-size report (raw 40-byte records vs the
// pattern-compressed encoding) and the plfs.index.* counters are printed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/pattern.h"
#include "sim/sharded.h"

namespace tio::plfs {
namespace {

std::vector<IndexEntry> strided_entries(int writers, int per_writer) {
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  constexpr std::uint64_t kRecord = 64 << 10;
  for (int r = 0; r < per_writer; ++r) {
    for (int w = 0; w < writers; ++w) {
      out.push_back(IndexEntry{(static_cast<std::uint64_t>(r) * writers + w) * kRecord, kRecord,
                               phys[w], static_cast<std::int64_t>(out.size() + 1),
                               static_cast<std::uint32_t>(w)});
      phys[w] += kRecord;
    }
  }
  return out;
}

// The same workload as per-writer timestamp-sorted runs — what the index
// logs actually hold.
std::vector<std::shared_ptr<const std::vector<IndexEntry>>> strided_runs(int writers,
                                                                         int per_writer) {
  std::vector<std::vector<IndexEntry>> runs(writers);
  for (const auto& e : strided_entries(writers, per_writer)) runs[e.writer].push_back(e);
  std::vector<std::shared_ptr<const std::vector<IndexEntry>>> out;
  out.reserve(runs.size());
  for (auto& r : runs) {
    out.push_back(std::make_shared<const std::vector<IndexEntry>>(std::move(r)));
  }
  return out;
}

constexpr int kBuildWriters = 256;

// K-way merge of the already-sorted runs, then the FlatIndex offset sweep —
// no re-sort, no node allocations.
void BM_GlobalBuildMergeFlat(benchmark::State& state) {
  const int per_writer = static_cast<int>(state.range(0)) / kBuildWriters;
  const auto runs = strided_runs(kBuildWriters, per_writer);
  for (auto _ : state) {
    IndexBuilder builder;
    for (const auto& r : runs) builder.add_run(r);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_GlobalBuildMergeFlat)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_IndexBuildStrided(benchmark::State& state) {
  const auto entries = strided_entries(static_cast<int>(state.range(0)), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlatIndex::build(entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_IndexBuildStrided)->Arg(64)->Arg(512)->Arg(2048);

void BM_IndexBuildSequentialCompresses(benchmark::State& state) {
  // One writer, purely sequential: compression collapses to one mapping.
  std::vector<IndexEntry> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.push_back(IndexEntry{static_cast<std::uint64_t>(i) * 4096, 4096,
                                 static_cast<std::uint64_t>(i) * 4096, i + 1, 0});
  }
  for (auto _ : state) {
    const FlatIndex idx = FlatIndex::build(entries);
    benchmark::DoNotOptimize(idx.mapping_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IndexBuildSequentialCompresses)->Arg(1024)->Arg(16384);

void BM_IndexLookupFlat(benchmark::State& state) {
  const FlatIndex idx = FlatIndex::build(strided_entries(static_cast<int>(state.range(0)), 64));
  Rng rng(42);
  const std::uint64_t size = idx.logical_size();
  for (auto _ : state) {
    const std::uint64_t off = rng.below(size - 1);
    benchmark::DoNotOptimize(idx.lookup(off, std::min<std::uint64_t>(1 << 20, size - off)));
  }
}
BENCHMARK(BM_IndexLookupFlat)->Arg(64)->Arg(1024);

void BM_EntryEncodeV2(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_entries(entries));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size() * IndexEntry::kSerializedSize));
}
BENCHMARK(BM_EntryEncodeV2);

void BM_EntryDecodeV2(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  FragmentList fl;
  fl.append(DataView::literal(encode_entries(entries)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_entries(fl));
  }
  // Items, not bytes: the interesting rate is entries decoded per second,
  // and the v2 buffer is far smaller than count * 40.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_EntryDecodeV2);

// Serialized footprint of the built index for the strided workload: the
// raw 40-byte-record volume of its mappings versus the pattern-compressed
// encoding. Each entry count is an independent build, so the rows are
// spread across the shard pool and printed afterwards in the serial order.
void print_size_report(std::size_t shards) {
  const std::vector<int> totals = {10000, 100000, 1000000};
  std::vector<std::string> lines(totals.size());
  tio::sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < totals.size(); ++i) {
    pool.submit([&lines, &totals, i] {
      const auto runs = strided_runs(kBuildWriters, totals[i] / kBuildWriters);
      IndexBuilder builder;
      for (const auto& r : runs) builder.add_run(r);
      const IndexPtr idx = builder.build();
      const std::uint64_t raw = idx->mapping_count() * IndexEntry::kSerializedSize;
      const std::uint64_t wire = idx->serialized_bytes();
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%-9d %14llu %14llu %8.1fx %14llu\n", totals[i],
                    static_cast<unsigned long long>(raw), static_cast<unsigned long long>(wire),
                    static_cast<double>(raw) / static_cast<double>(wire),
                    static_cast<unsigned long long>(idx->memory_bytes()));
      lines[i] = buf;
    });
  }
  pool.run_all();
  std::printf("\n-- serialized index size (strided workload) --\n");
  std::printf("%-9s %14s %14s %9s %14s\n", "entries", "raw_B", "wire_B", "ratio", "memory_B");
  for (const std::string& line : lines) std::fputs(line.c_str(), stdout);
}

}  // namespace
}  // namespace tio::plfs

int main(int argc, char** argv) {
  std::string trace_path;
  long long shards = 1;
  // Strip our flags before google-benchmark sees the command line.
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kTrace = "--trace=";
    constexpr const char* kShards = "--shards=";
    if (std::strncmp(argv[i], kShards, std::strlen(kShards)) == 0) {
      shards = std::atoll(argv[i] + std::strlen(kShards));
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], kTrace, std::strlen(kTrace)) == 0) {
      trace_path = argv[i] + std::strlen(kTrace);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  tio::bench::shards_or_die(shards);
  // The index microbenches are host-CPU work, so the trace holds whatever
  // simulated spans ran (usually none) — the flag exists for tooling
  // uniformity and always yields a valid, loadable document.
  if (!trace_path.empty()) tio::trace::Tracer::instance().set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty()) {
    if (!tio::trace::Tracer::instance().write_chrome_json(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n",
                 tio::trace::Tracer::instance().span_count(), trace_path.c_str());
  }
  tio::plfs::print_size_report(static_cast<std::size_t>(shards));
  const auto counters = tio::counter_snapshot("plfs.index");
  if (!counters.empty()) {
    std::printf("\n-- plfs.index counters --\n");
    for (const auto& [name, value] : counters) {
      std::printf("%-32s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  return 0;
}
