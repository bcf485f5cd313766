#include "plfs/btree_index.h"

#include <algorithm>

namespace tio::plfs {

BTreeIndex BTreeIndex::build(std::vector<IndexEntry> entries, bool compress) {
  std::sort(entries.begin(), entries.end(), entry_timestamp_less);
  return from_sorted(entries, compress);
}

BTreeIndex BTreeIndex::from_sorted(const std::vector<IndexEntry>& sorted, bool compress) {
  BTreeIndex idx;
  for (const auto& e : sorted) idx.insert(e, compress);
  return idx;
}

void BTreeIndex::insert(const IndexEntry& e, bool compress) {
  if (e.length == 0) return;
  const std::uint64_t start = e.logical_offset;
  const std::uint64_t end = start + e.length;

  // Trim or split whatever the new (later-timestamped) entry overlaps.
  auto it = map_.upper_bound(start);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t prev_end = prev->first + prev->second.length;
    if (prev_end > start) {
      Mapping old = prev->second;
      prev->second.length = start - prev->first;
      if (prev->second.length == 0) map_.erase(prev);
      if (prev_end > end) {
        Mapping tail = old;
        tail.logical_offset = end;
        tail.length = prev_end - end;
        tail.physical_offset = old.physical_offset + (end - old.logical_offset);
        map_.emplace(end, tail);
      }
    }
  }
  it = map_.lower_bound(start);
  while (it != map_.end() && it->first < end) {
    const std::uint64_t ext_end = it->first + it->second.length;
    if (ext_end <= end) {
      it = map_.erase(it);
    } else {
      Mapping tail = it->second;
      tail.logical_offset = end;
      tail.length = ext_end - end;
      tail.physical_offset += end - it->first;
      map_.erase(it);
      map_.emplace(end, tail);
      break;
    }
  }

  Mapping m{start, e.length, e.writer, e.physical_offset};
  // Compression: merge with a same-writer predecessor that is contiguous
  // both logically and physically.
  auto next = map_.lower_bound(start);
  if (compress && next != map_.begin()) {
    auto prev = std::prev(next);
    if (prev->second.writer == m.writer &&
        prev->first + prev->second.length == start &&
        prev->second.physical_offset + prev->second.length == m.physical_offset) {
      prev->second.length += m.length;
      return;
    }
  }
  map_.emplace(start, m);
}

std::vector<BTreeIndex::Mapping> BTreeIndex::lookup(std::uint64_t offset,
                                                    std::uint64_t len) const {
  std::vector<Mapping> out;
  if (len == 0) return out;
  const std::uint64_t end = offset + len;
  auto it = map_.upper_bound(offset);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > offset) it = prev;
  }
  for (; it != map_.end() && it->first < end; ++it) {
    const std::uint64_t m_start = std::max(offset, it->first);
    const std::uint64_t m_end = std::min(end, it->first + it->second.length);
    Mapping m = it->second;
    m.physical_offset += m_start - it->first;
    m.logical_offset = m_start;
    m.length = m_end - m_start;
    out.push_back(m);
  }
  return out;
}

std::uint64_t BTreeIndex::logical_size() const {
  if (map_.empty()) return 0;
  const auto& last = *map_.rbegin();
  return last.first + last.second.length;
}

std::vector<IndexEntry> BTreeIndex::to_entries() const {
  // Synthetic resolution-sequence timestamps, as FlatIndex::to_entries.
  std::vector<IndexEntry> out;
  out.reserve(map_.size());
  for (const auto& [off, m] : map_) {
    out.push_back(IndexEntry{off, m.length, m.physical_offset,
                             static_cast<std::int64_t>(out.size()), m.writer});
  }
  return out;
}

}  // namespace tio::plfs
