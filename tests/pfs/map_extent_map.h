// MapExtentMap: the std::map-backed extent store that pfs::ExtentMap
// replaced with sorted leaf vectors, kept as the differential oracle for
// it. One tree node per extent keyed by start offset; the write rules
// (split or replace what a write overlaps, then coalesce the new extent
// with byte-continuation neighbours) are what the leaf layout must
// reproduce extent for extent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

#include "common/dataview.h"

namespace tio::pfs::test {

class MapExtentMap {
 public:
  void write(std::uint64_t offset, DataView data) {
    if (data.empty()) return;
    const std::uint64_t end = offset + data.size();

    // Find the first extent that could overlap: the one at or before offset.
    auto it = extents_.upper_bound(offset);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      const std::uint64_t prev_end = prev->first + prev->second.size();
      if (prev_end > offset) {
        // prev straddles the write start; keep its left part, and if it
        // extends past the write end, keep the right part too.
        DataView old = prev->second;
        const std::uint64_t prev_start = prev->first;
        prev->second = old.slice(0, offset - prev_start);
        if (prev_end > end) {
          extents_.emplace(end, old.slice(end - prev_start, prev_end - end));
        }
      }
    }
    // Remove or trim extents starting inside [offset, end).
    it = extents_.lower_bound(offset);
    while (it != extents_.end() && it->first < end) {
      const std::uint64_t ext_start = it->first;
      const std::uint64_t ext_end = ext_start + it->second.size();
      if (ext_end <= end) {
        it = extents_.erase(it);
      } else {
        // Tail survives.
        DataView tail = it->second.slice(end - ext_start, ext_end - end);
        extents_.erase(it);
        extents_.emplace(end, std::move(tail));
        break;
      }
    }

    // Insert, coalescing with byte-continuation neighbours.
    DataView ins = std::move(data);
    auto next = extents_.lower_bound(offset);
    if (next != extents_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second.size() == offset && prev->second.continues_with(ins)) {
        prev->second.extend(ins.size());
        // Try to further coalesce with next.
        if (next != extents_.end() && offset + ins.size() == next->first &&
            prev->second.continues_with(next->second)) {
          prev->second.extend(next->second.size());
          extents_.erase(next);
        }
        return;
      }
    }
    if (next != extents_.end() && offset + ins.size() == next->first &&
        ins.continues_with(next->second)) {
      ins.extend(next->second.size());
      extents_.erase(next);
    }
    extents_.emplace(offset, std::move(ins));
  }

  FragmentList read(std::uint64_t offset, std::uint64_t len) const {
    FragmentList out;
    if (len == 0) return out;
    std::uint64_t pos = offset;
    const std::uint64_t end = offset + len;

    auto it = extents_.upper_bound(pos);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.size() > pos) it = prev;
    }
    for (; it != extents_.end() && it->first < end; ++it) {
      const std::uint64_t ext_start = it->first;
      if (ext_start > pos) {
        out.append(DataView::zeros(ext_start - pos));  // hole
        pos = ext_start;
      }
      const std::uint64_t take_from = pos - ext_start;
      const std::uint64_t take = std::min(end, ext_start + it->second.size()) - pos;
      if (take > 0) {
        out.append(it->second.slice(take_from, take));
        pos += take;
      }
    }
    if (pos < end) out.append(DataView::zeros(end - pos));  // trailing hole
    return out;
  }

  std::uint64_t high_water() const {
    if (extents_.empty()) return 0;
    const auto& last = *extents_.rbegin();
    return last.first + last.second.size();
  }
  std::uint64_t backed_bytes() const {
    std::uint64_t total = 0;
    for (const auto& [off, v] : extents_) total += v.size();
    return total;
  }
  const std::map<std::uint64_t, DataView>& extents() const { return extents_; }

 private:
  // key = extent start offset.
  std::map<std::uint64_t, DataView> extents_;
};

}  // namespace tio::pfs::test
