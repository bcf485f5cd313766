// Sparse extent map: the byte store behind every simulated file object.
//
// Holds non-overlapping, sorted extents of pattern-described data. Writes
// split or replace whatever they overlap (last-writer-wins, like a disk);
// reads zero-fill holes. Adjacent extents whose content descriptors are
// byte-for-byte continuations are coalesced, so a log-structured append
// stream of any length collapses to a single extent.
#pragma once

#include <cstdint>
#include <map>

#include "common/dataview.h"

namespace tio::pfs {

class ExtentMap {
 public:
  void write(std::uint64_t offset, DataView data);

  // Content of [offset, offset+len); holes come back as zeros. The caller
  // is responsible for EOF clipping (this map has no notion of file size
  // beyond the last written byte).
  FragmentList read(std::uint64_t offset, std::uint64_t len) const;

  // Largest written end-offset (0 when empty).
  std::uint64_t high_water() const;
  // Discards all content (an O_TRUNC open).
  void clear() { extents_.clear(); }

  std::size_t extent_count() const { return extents_.size(); }
  bool empty() const { return extents_.empty(); }
  // Sorted, non-overlapping (offset -> content) extents, for consumers that
  // walk written ranges (e.g. collective-buffering aggregators).
  const std::map<std::uint64_t, DataView>& extents() const { return extents_; }
  // Total bytes of backed (non-hole) content.
  std::uint64_t backed_bytes() const;

 private:
  // key = extent start offset.
  std::map<std::uint64_t, DataView> extents_;
};

}  // namespace tio::pfs
