// PLFS index machinery.
//
// Every process writing a PLFS logical file appends its data to a private
// log and records, per write, an IndexEntry mapping the logical extent to
// (writer, physical offset in that writer's data log, timestamp). Reading
// the logical file requires the union of all writers' entries — the global
// index — with overlaps resolved by timestamp (PLFS defers write resolution
// from write time to read time; the paper's note 1).
//
// The queryable global index is FlatIndex: a sorted flat vector of
// non-overlapping mappings with binary-search lookup, built by an
// offset-domain sweep over a timestamp-ordered entry run (see
// index_builder.h for the streaming k-way merge that produces such runs).
// The build performs entry compression: adjacent mappings from the same
// writer that are contiguous both logically and physically collapse into
// one, so well-behaved sequential/strided patterns have tiny indices.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dataview.h"
#include "common/status.h"

namespace tio::plfs {

struct IndexEntry {
  std::uint64_t logical_offset = 0;
  std::uint64_t length = 0;
  std::uint64_t physical_offset = 0;  // within the writer's data log
  std::int64_t timestamp_ns = 0;
  std::uint32_t writer = 0;  // rank/pid owning data.<writer> / index.<writer>

  // Size of one record in the original fixed-record format. Still the
  // definition of "raw" index volume for the compression-ratio counters.
  static constexpr std::uint64_t kSerializedSize = 40;
  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

// The timestamp order in which overlapping writes are resolved: later
// entries win; ties break by writer, then physical offset, so resolution is
// deterministic for simultaneous writers.
bool entry_timestamp_less(const IndexEntry& a, const IndexEntry& b);

// The aggregated global index. Immutable once built; readers share it via
// shared_ptr. Building is a sweep over offset-domain boundaries with a
// lazy-deletion max-heap of live entries — everything is contiguous
// vectors, no node allocations.
class FlatIndex {
 public:
  struct Mapping {
    std::uint64_t logical_offset;
    std::uint64_t length;
    std::uint32_t writer;
    std::uint64_t physical_offset;
    friend bool operator==(const Mapping&, const Mapping&) = default;
  };

  // `sorted` must be in entry_timestamp_less order (later-wins last); use
  // IndexBuilder to merge per-writer runs into that order cheaply.
  // `compress` exists for the ablation bench and the tests; production
  // builds leave it on.
  static FlatIndex from_sorted(const std::vector<IndexEntry>& sorted, bool compress = true);
  // Convenience for unordered pools: sorts, then delegates to from_sorted.
  static FlatIndex build(std::vector<IndexEntry> entries, bool compress = true);

  // Mappings covering [offset, offset+len), clipped, in logical order.
  // Unwritten gaps are simply absent from the result (they read as zeros).
  std::vector<Mapping> lookup(std::uint64_t offset, std::uint64_t len) const;

  // One past the highest written logical byte.
  std::uint64_t logical_size() const;
  std::size_t mapping_count() const { return mappings_.size(); }

  // Re-serializes the (compressed) index for broadcast/flatten costing and
  // for the flattened global index file.
  //
  // Post-resolution timestamp contract: a built index has already resolved
  // all overlaps, so the original write timestamps are gone by construction
  // (a surviving mapping may even be the stitched remains of several
  // writes). Instead of zeroing the field — which made round trips through
  // to_entries() lossy in a hidden way — entries carry a *synthetic
  // resolution-sequence timestamp*: the mapping's position in logical
  // order. That keeps any re-resolution of the output a no-op (timestamps
  // strictly increase, and the mappings are disjoint anyway), makes the
  // output a valid timestamp-sorted run for IndexBuilder, and turns the
  // field into an arithmetic sequence the pattern codec can compress.
  std::vector<IndexEntry> to_entries() const;

  // Encoded size of to_entries() (pattern.h). Runs the encoder once and
  // caches the result (the index is immutable after build).
  std::uint64_t serialized_bytes() const;

  // Approximate host-memory footprint, used by the IndexCache byte budget.
  std::uint64_t memory_bytes() const { return mappings_.capacity() * sizeof(Mapping); }

 private:
  std::vector<Mapping> mappings_;  // sorted by logical_offset, non-overlapping
  mutable std::uint64_t wire_bytes_ = 0;  // 0 = not yet computed
};

}  // namespace tio::plfs
