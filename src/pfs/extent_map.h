// Sparse extent map: the byte store behind every simulated file object.
//
// Holds non-overlapping, sorted extents of pattern-described data. Writes
// split or replace whatever they overlap (last-writer-wins, like a disk);
// reads zero-fill holes. Adjacent extents whose content descriptors are
// byte-for-byte continuations are coalesced, so a log-structured append
// stream of any length collapses to a single extent.
//
// Layout: the extents sit contiguously in sorted leaf vectors, the leaves in
// offset order, with each leaf's first offset mirrored in a flat array for
// the leaf search. Leaves grow on demand (no up-front reservation) and split
// once they pass 2 * kLeafCap extents. Costs:
//   * a write at or past the high-water mark (every PLFS log append) edits
//     only the last leaf: O(1) amortized;
//   * any other write binary-searches its leaf and replaces the extents its
//     window covers with at most three (left remainder, the new extent,
//     right remainder) in place: a shift of at most 2 * kLeafCap extents;
//   * a window that crosses leaves merges the leaves involved and cuts them
//     again: the extents it removes plus O(kLeafCap + leaves).
// A single sorted vector would make interleaved inserts quadratic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dataview.h"

namespace tio::pfs {

struct Extent {
  std::uint64_t offset = 0;
  DataView data;

  std::uint64_t end() const { return offset + data.size(); }
};

class ExtentMap {
 public:
  // Sorted, non-overlapping extents; leaves are never empty.
  using Leaf = std::vector<Extent>;
  static constexpr std::size_t kLeafCap = 128;

  void write(std::uint64_t offset, DataView data);

  // Content of [offset, offset+len); holes come back as zeros. The caller
  // is responsible for EOF clipping (this map has no notion of file size
  // beyond the last written byte).
  FragmentList read(std::uint64_t offset, std::uint64_t len) const;

  // Largest written end-offset (0 when empty).
  std::uint64_t high_water() const { return leaves_.empty() ? 0 : leaves_.back().back().end(); }
  // Discards all content (an O_TRUNC open).
  void clear() {
    leaves_.clear();
    firsts_.clear();
  }

  std::size_t extent_count() const;
  bool empty() const { return leaves_.empty(); }
  // The extents in offset order, leaf by leaf, for consumers that walk
  // written ranges (e.g. collective-buffering aggregators).
  const std::vector<Leaf>& leaves() const { return leaves_; }
  // Total bytes of backed (non-hole) content.
  std::uint64_t backed_bytes() const;

 private:
  // The last leaf whose first extent starts before `offset` (0 when none
  // does): the first extent ending at or after `offset` is in it or starts
  // the leaf after it.
  std::size_t leaf_for(std::uint64_t offset) const;
  // Replaces extents [lo, hi) of leaf li with out[0, n), in place.
  void replace_in_leaf(std::size_t li, std::size_t lo, std::size_t hi, Extent* out,
                       std::size_t n);
  // Replaces everything from extent lo of leaf li up to (not including)
  // extent hi of leaf lj > li with out[0, n), merging the two end leaves
  // and dropping the ones between.
  void replace_across(std::size_t li, std::size_t lo, std::size_t lj, std::size_t hi,
                      Extent* out, std::size_t n);
  // Cuts leaf li into pieces of kLeafCap..2*kLeafCap extents when it has
  // grown past 2 * kLeafCap.
  void split_if_full(std::size_t li);

  std::vector<Leaf> leaves_;
  std::vector<std::uint64_t> firsts_;  // firsts_[i] == leaves_[i].front().offset
};

}  // namespace tio::pfs
