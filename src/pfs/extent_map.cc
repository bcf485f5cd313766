#include "pfs/extent_map.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>

namespace tio::pfs {

std::size_t ExtentMap::leaf_for(std::uint64_t offset) const {
  const auto it = std::lower_bound(firsts_.begin(), firsts_.end(), offset);
  return it == firsts_.begin() ? 0 : static_cast<std::size_t>(it - firsts_.begin()) - 1;
}

void ExtentMap::write(std::uint64_t offset, DataView data) {
  if (data.empty()) return;
  if (leaves_.empty()) {
    leaves_.emplace_back().push_back(Extent{offset, std::move(data)});
    firsts_.push_back(offset);
    return;
  }
  // At or past the high-water mark: append to the last leaf, or extend its
  // last extent when the write continues it.
  Leaf& last_leaf = leaves_.back();
  Extent& last = last_leaf.back();
  if (offset >= last.end()) {
    if (offset == last.end() && last.data.continues_with(data)) {
      last.data.extend(data.size());
      return;
    }
    last_leaf.push_back(Extent{offset, std::move(data)});
    split_if_full(leaves_.size() - 1);
    return;
  }

  // The window: every extent that overlaps [offset, end) or touches it at
  // either edge. It starts at the first extent ending at or after offset
  // (one exists: the last extent ends past offset).
  const std::uint64_t end = offset + data.size();
  std::size_t li = leaf_for(offset);
  std::size_t lo = static_cast<std::size_t>(
      std::partition_point(leaves_[li].begin(), leaves_[li].end(),
                           [offset](const Extent& e) { return e.end() < offset; }) -
      leaves_[li].begin());
  if (lo == leaves_[li].size()) {
    ++li;
    lo = 0;
  }
  // Filling the hole right after an extent it continues, short of the next
  // extent (records merging in rank order): extend that extent in place.
  Extent& first = leaves_[li][lo];
  if (first.end() == offset && first.data.continues_with(data)) {
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    if (lo + 1 < leaves_[li].size()) {
      next = leaves_[li][lo + 1].offset;
    } else if (li + 1 < leaves_.size()) {
      next = firsts_[li + 1];
    }
    if (next > end) {
      first.data.extend(data.size());
      return;
    }
  }
  // Walk it, keeping what survives on either side: the part of an extent
  // before offset (or one ending exactly there) and the part after end (or
  // one starting exactly there).
  std::optional<Extent> left;
  std::optional<Extent> right;
  std::size_t lj = li;
  std::size_t hi = lo;
  for (;;) {
    const Leaf& leaf = leaves_[lj];
    if (hi == leaf.size()) {
      if (lj + 1 == leaves_.size() || firsts_[lj + 1] > end) break;
      ++lj;
      hi = 0;
      continue;
    }
    const Extent& e = leaf[hi];
    if (e.offset > end) break;
    if (e.offset < offset) {
      left = Extent{e.offset, e.data.slice(0, std::min(e.end(), offset) - e.offset)};
    }
    if (e.end() > end) {
      const std::uint64_t from = std::max(e.offset, end);
      right = Extent{from, e.data.slice(from - e.offset, e.end() - from)};
    }
    ++hi;
  }

  // The new extent, coalesced with byte-continuation neighbours: first the
  // left one, then (the result) with the right one.
  Extent out[3];
  std::size_t n = 0;
  Extent mid{offset, std::move(data)};
  if (left) {
    if (left->data.continues_with(mid.data)) {
      left->data.extend(mid.data.size());
      mid = std::move(*left);
    } else {
      out[n++] = std::move(*left);
    }
  }
  if (right && mid.data.continues_with(right->data)) {
    mid.data.extend(right->data.size());
    right.reset();
  }
  out[n++] = std::move(mid);
  if (right) out[n++] = std::move(*right);

  if (li == lj) {
    replace_in_leaf(li, lo, hi, out, n);
  } else {
    replace_across(li, lo, lj, hi, out, n);
  }
}

void ExtentMap::replace_in_leaf(std::size_t li, std::size_t lo, std::size_t hi, Extent* out,
                                std::size_t n) {
  Leaf& leaf = leaves_[li];
  const std::size_t common = std::min(hi - lo, n);
  const auto at = leaf.begin() + static_cast<std::ptrdiff_t>(lo + common);
  std::move(out, out + common, leaf.begin() + static_cast<std::ptrdiff_t>(lo));
  if (n > common) {
    leaf.insert(at, std::make_move_iterator(out + common), std::make_move_iterator(out + n));
  } else {
    leaf.erase(at, leaf.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  firsts_[li] = leaf.front().offset;
  split_if_full(li);
}

void ExtentMap::replace_across(std::size_t li, std::size_t lo, std::size_t lj, std::size_t hi,
                               Extent* out, std::size_t n) {
  Leaf& head = leaves_[li];
  Leaf& tail = leaves_[lj];
  head.erase(head.begin() + static_cast<std::ptrdiff_t>(lo), head.end());
  head.insert(head.end(), std::make_move_iterator(out), std::make_move_iterator(out + n));
  head.insert(head.end(), std::make_move_iterator(tail.begin() + static_cast<std::ptrdiff_t>(hi)),
              std::make_move_iterator(tail.end()));
  leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li + 1),
                leaves_.begin() + static_cast<std::ptrdiff_t>(lj + 1));
  firsts_.erase(firsts_.begin() + static_cast<std::ptrdiff_t>(li + 1),
                firsts_.begin() + static_cast<std::ptrdiff_t>(lj + 1));
  firsts_[li] = leaves_[li].front().offset;
  split_if_full(li);
}

void ExtentMap::split_if_full(std::size_t li) {
  const std::size_t size = leaves_[li].size();
  if (size <= 2 * kLeafCap) return;
  const std::size_t pieces = size / kLeafCap;
  std::vector<Leaf> cut(pieces - 1);
  for (std::size_t p = 1; p < pieces; ++p) {
    const auto from = leaves_[li].begin() + static_cast<std::ptrdiff_t>(size * p / pieces);
    const auto to = leaves_[li].begin() + static_cast<std::ptrdiff_t>(size * (p + 1) / pieces);
    cut[p - 1].assign(std::make_move_iterator(from), std::make_move_iterator(to));
  }
  Leaf& first = leaves_[li];
  first.erase(first.begin() + static_cast<std::ptrdiff_t>(size / pieces), first.end());
  // A leaf that grew by doubling past 2 * kLeafCap would otherwise keep
  // four times the capacity it now uses.
  if (first.capacity() > 2 * kLeafCap) first.shrink_to_fit();
  std::vector<std::uint64_t> starts;
  starts.reserve(cut.size());
  for (const Leaf& leaf : cut) starts.push_back(leaf.front().offset);
  const auto pos = static_cast<std::ptrdiff_t>(li + 1);
  leaves_.insert(leaves_.begin() + pos, std::make_move_iterator(cut.begin()),
                 std::make_move_iterator(cut.end()));
  firsts_.insert(firsts_.begin() + pos, starts.begin(), starts.end());
}

FragmentList ExtentMap::read(std::uint64_t offset, std::uint64_t len) const {
  FragmentList out;
  if (len == 0) return out;
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;

  if (!leaves_.empty()) {
    std::size_t li = leaf_for(offset);
    const Leaf* leaf = &leaves_[li];
    auto it = std::partition_point(leaf->begin(), leaf->end(),
                                   [offset](const Extent& e) { return e.end() <= offset; });
    for (;;) {
      if (it == leaf->end()) {
        if (++li == leaves_.size()) break;
        leaf = &leaves_[li];
        it = leaf->begin();
      }
      const Extent& e = *it;
      if (e.offset >= end) break;
      if (e.offset > pos) {
        out.append(DataView::zeros(e.offset - pos));  // hole
        pos = e.offset;
      }
      const std::uint64_t take = std::min(end, e.end()) - pos;
      out.append(e.data.slice(pos - e.offset, take));
      pos += take;
      ++it;
    }
  }
  if (pos < end) out.append(DataView::zeros(end - pos));  // trailing hole
  return out;
}

std::size_t ExtentMap::extent_count() const {
  std::size_t n = 0;
  for (const Leaf& leaf : leaves_) n += leaf.size();
  return n;
}

std::uint64_t ExtentMap::backed_bytes() const {
  std::uint64_t total = 0;
  for (const Leaf& leaf : leaves_) {
    for (const Extent& e : leaf) total += e.data.size();
  }
  return total;
}

}  // namespace tio::pfs
