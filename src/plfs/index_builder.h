// Streaming construction of the global index from per-writer runs.
//
// Each writer's index log is already in timestamp order (a writer's entries
// are appended as its writes happen), so the global timestamp order is a
// k-way merge of k sorted runs — O(E log K) — rather than the original
// design's O(E log E) re-sort of the concatenated pool. IndexBuilder holds
// runs without copying them, merges lazily, and builds the FlatIndex.
// Aggregation trees compose naturally: a group leader's merged run is
// itself a sorted run for the next level up.
//
// Host-side build effort is reported through common/stats counters:
//   plfs.index.builds          completed build() calls
//   plfs.index.runs_merged     input runs consumed by merges
//   plfs.index.entries_merged  entries that passed through a merge
//   plfs.index.build_ns        host wall-clock ns spent in merge+build
// (Simulated time is charged by the callers via index_cpu_per_entry.)
#pragma once

#include <memory>
#include <vector>

#include "plfs/index.h"

namespace tio::plfs {

using IndexPtr = std::shared_ptr<const FlatIndex>;

class IndexBuilder {
 public:
  // Adds one timestamp-sorted run without copying. Runs that turn out not to
  // be sorted (defensive: e.g. a pool concatenated by an older peer) are
  // detected at merge time and sorted in a private copy.
  void add_run(std::shared_ptr<const std::vector<IndexEntry>> run);
  // Convenience for owned/ad-hoc pools.
  void add_entries(std::vector<IndexEntry> entries);

  std::size_t total_entries() const { return total_entries_; }
  bool empty() const { return total_entries_ == 0; }

  // K-way merge of all added runs into one entry_timestamp_less-ordered run.
  // Does not consume the builder; repeated calls re-merge.
  std::vector<IndexEntry> merged_run() const;

  // Merges and builds the (compressed) global index.
  IndexPtr build() const;

 private:
  std::size_t total_entries_ = 0;
  std::vector<std::shared_ptr<const std::vector<IndexEntry>>> runs_;
};

// --- integrity trailer for the flattened global index ---
//
// The flattened global index is written once at close and read whole at
// open, so (unlike the per-writer append-only logs) it can carry a
// self-describing integrity trailer:
//
//   [records ...][magic u32][count u64][crc32c u32]   (16B trailer)
//
// where crc covers records+magic+count. The records are v2
// pattern-compressed segments (pattern.h); readers also accept v1 fixed
// 40-byte records, told apart by the v2 segment magic, so flattened
// indices written before the codec stay readable. `count` is always the
// entry count. A missing, truncated, or mismatching trailer — a torn
// close, a partial write, bit rot — is detected at read time with
// Errc::io_error, letting the read-open path fall back to Parallel Index
// Read instead of serving wrong data.
inline constexpr std::uint32_t kIndexTrailerMagic = 0x58444950;  // "PIDX"
inline constexpr std::size_t kIndexTrailerSize = 16;

std::vector<std::byte> serialize_entries_with_trailer(const std::vector<IndexEntry>& entries);
// Appends the 16-byte trailer for `count` entries to already-encoded records.
void append_index_trailer(std::vector<std::byte>& out, std::uint64_t count);
// Verifies magic/count/crc, then deserializes the records. Any integrity
// failure is Errc::io_error with the failing byte offset in the message.
Result<std::vector<IndexEntry>> deserialize_trailed_entries(const FragmentList& data);

}  // namespace tio::plfs
