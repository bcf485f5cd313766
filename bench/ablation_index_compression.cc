// Ablation: index entry compression.
//
// The Index collapses same-writer entries that are contiguous both
// logically and physically. Sequential/segmented patterns compress
// massively (bounding broadcast volume and lookup size); interleaved
// strided N-1 patterns cannot compress because logical neighbours come from
// different writers — which is exactly the case the wire-v2 pattern codec
// recovers: the surviving mappings are still arithmetic per writer, so the
// encoded bytes collapse even when the mapping count cannot.
#include "bench_util.h"

#include "plfs/index.h"

using namespace tio;
using namespace tio::plfs;

namespace {

std::vector<IndexEntry> make_entries(int writers, int per_writer, std::uint64_t record,
                                     bool segmented) {
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  for (int w = 0; w < writers; ++w) {
    for (int r = 0; r < per_writer; ++r) {
      const std::uint64_t logical =
          segmented
              ? (static_cast<std::uint64_t>(w) * per_writer + r) * record
              : (static_cast<std::uint64_t>(r) * writers + w) * record;
      out.push_back(IndexEntry{logical, record, phys[w],
                               static_cast<std::int64_t>(out.size() + 1),
                               static_cast<std::uint32_t>(w)});
      phys[w] += record;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("ablation_index_compression: entry-compression effectiveness");
  auto* writers = flags.add_i64("writers", 1024, "writer processes");
  auto* per_writer = flags.add_i64("per-writer", 256, "entries per writer");
  auto* shards_flag = tio::bench::add_shards_flag(flags);
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  const std::size_t shards = tio::bench::shards_or_die(*shards_flag);

  tio::bench::print_header("Ablation — Index compression",
                           "broadcast volume of the global index, compressed vs raw");
  // Host-CPU index builds, but each pattern is independent work; the pool
  // spreads the two rows across shard threads.
  struct Cell {
    std::size_t raw = 0;
    std::size_t mappings = 0;
    std::uint64_t raw_bytes = 0, compressed_bytes = 0, v2_bytes = 0;
  };
  const std::vector<bool> patterns = {true, false};
  std::vector<Cell> cells(patterns.size());
  tio::sim::ShardPool pool(shards);
  const int n_writers = static_cast<int>(*writers);
  const int n_per = static_cast<int>(*per_writer);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const bool segmented = patterns[i];
    pool.submit([&cells, i, segmented, n_writers, n_per] {
      auto entries = make_entries(n_writers, n_per, 64_KiB, segmented);
      Cell c;
      c.raw = entries.size();
      const FlatIndex uncompressed = FlatIndex::build(entries, /*compress=*/false);
      const FlatIndex compressed = FlatIndex::build(std::move(entries), /*compress=*/true);
      c.mappings = compressed.mapping_count();
      // Raw and entry-compressed volumes in the original 40-byte records.
      c.raw_bytes = uncompressed.mapping_count() * IndexEntry::kSerializedSize;
      c.compressed_bytes = compressed.mapping_count() * IndexEntry::kSerializedSize;
      c.v2_bytes = compressed.serialized_bytes();
      cells[i] = c;
    });
  }
  pool.run_all();

  Table t({"pattern", "raw entries", "mappings", "raw bytes", "compressed bytes", "ratio",
           "wire v2 bytes", "v2 ratio"});
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const Cell& c = cells[i];
    t.add_row({patterns[i] ? "segmented (per-rank sequential)" : "strided (interleaved)",
               std::to_string(c.raw), std::to_string(c.mappings), format_bytes(c.raw_bytes),
               format_bytes(c.compressed_bytes),
               Table::num(static_cast<double>(c.raw_bytes) /
                              static_cast<double>(c.compressed_bytes),
                          1) +
                   "x",
               format_bytes(c.v2_bytes),
               Table::num(static_cast<double>(c.raw_bytes) / static_cast<double>(c.v2_bytes),
                          1) +
                   "x"});
  }
  t.print(std::cout);
  bench::print_sim_counters();
  return 0;
}
