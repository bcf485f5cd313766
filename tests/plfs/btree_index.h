// The original map-based global index, kept as the correctness oracle for
// FlatIndex: an O(E log E) re-sort of the entry pool plus a node-based
// std::map insert per entry, with splitting and compression. It shares no
// code with FlatIndex's offset sweep, which is what makes the differential
// tests (index_diff_test.cc) meaningful.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "plfs/index.h"

namespace tio::plfs {

class BTreeIndex {
 public:
  using Mapping = FlatIndex::Mapping;

  // Builds from an unordered entry pool: sorts by timestamp (ties by writer)
  // so that later writes win, then inserts with splitting + compression.
  static BTreeIndex build(std::vector<IndexEntry> entries, bool compress = true);
  // Same insertion pipeline minus the sort, for entries already in
  // timestamp order (e.g. the output of IndexBuilder::merged_run).
  static BTreeIndex from_sorted(const std::vector<IndexEntry>& sorted, bool compress = true);

  // Same contracts as the FlatIndex members of the same names.
  std::vector<Mapping> lookup(std::uint64_t offset, std::uint64_t len) const;
  std::uint64_t logical_size() const;
  std::size_t mapping_count() const { return map_.size(); }
  std::vector<IndexEntry> to_entries() const;

 private:
  void insert(const IndexEntry& e, bool compress);
  // key = logical offset; entries non-overlapping.
  std::map<std::uint64_t, Mapping> map_;
};

}  // namespace tio::plfs
