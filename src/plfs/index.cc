#include "plfs/index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "plfs/pattern.h"

namespace tio::plfs {

bool entry_timestamp_less(const IndexEntry& a, const IndexEntry& b) {
  if (a.timestamp_ns != b.timestamp_ns) return a.timestamp_ns < b.timestamp_ns;
  if (a.writer != b.writer) return a.writer < b.writer;
  return a.physical_offset < b.physical_offset;
}

Result<std::vector<IndexEntry>> deserialize_entries(const FragmentList& data) {
  if (data.size() % IndexEntry::kSerializedSize != 0) {
    // A truncated trailing record: report where the partial record starts so
    // operators can tell a torn append from wholesale corruption.
    const std::uint64_t partial_at =
        data.size() - data.size() % IndexEntry::kSerializedSize;
    return error(Errc::io_error,
                 "truncated index log: " + std::to_string(data.size()) +
                     " bytes is not a multiple of the " +
                     std::to_string(IndexEntry::kSerializedSize) +
                     "-byte record size; partial record begins at byte offset " +
                     std::to_string(partial_at));
  }
  const auto bytes = data.to_bytes();
  std::vector<IndexEntry> out(bytes.size() / IndexEntry::kSerializedSize);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::byte* p = bytes.data() + i * IndexEntry::kSerializedSize;
    std::memcpy(&out[i].logical_offset, p + 0, 8);
    std::memcpy(&out[i].length, p + 8, 8);
    std::memcpy(&out[i].physical_offset, p + 16, 8);
    std::memcpy(&out[i].timestamp_ns, p + 24, 8);
    std::memcpy(&out[i].writer, p + 32, 4);
    const IndexEntry& e = out[i];
    const std::string at = " at record #" + std::to_string(i) + " (byte offset " +
                           std::to_string(i * IndexEntry::kSerializedSize) + ")";
    if (e.length == 0) {
      return error(Errc::io_error, "corrupt index log: zero-length record" + at);
    }
    if (e.logical_offset + e.length < e.logical_offset ||
        e.physical_offset + e.length < e.physical_offset) {
      return error(Errc::io_error, "corrupt index log: extent overflow" + at);
    }
  }
  return out;
}

namespace {

// Synthetic resolution-sequence timestamps (see the to_entries() contract
// in index.h): position in logical order.
void stamp_resolution_sequence(std::vector<IndexEntry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].timestamp_ns = static_cast<std::int64_t>(i);
  }
}

}  // namespace

FlatIndex FlatIndex::from_sorted(const std::vector<IndexEntry>& sorted, bool compress) {
  FlatIndex idx;
  std::vector<Mapping>& mappings = idx.mappings_;
  const std::size_t n = sorted.size();
  // Offset-domain sweep. Boundaries are every extent start and end; within
  // one boundary segment the winning entry is constant, and the winner is
  // the live entry latest in timestamp order — which, because `sorted` is in
  // entry_timestamp_less order, is simply the live entry with the largest
  // position. Everything below is contiguous vectors + an array heap.
  std::vector<std::uint64_t> bounds;
  bounds.reserve(2 * n);
  std::vector<std::uint32_t> by_start;
  by_start.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (sorted[i].length == 0) continue;
    by_start.push_back(static_cast<std::uint32_t>(i));
    bounds.push_back(sorted[i].logical_offset);
    bounds.push_back(sorted[i].logical_offset + sorted[i].length);
  }
  if (by_start.empty()) return idx;
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::sort(by_start.begin(), by_start.end(), [&sorted](std::uint32_t a, std::uint32_t b) {
    return sorted[a].logical_offset < sorted[b].logical_offset;
  });

  // Max-heap of live entries by position; stale (already-ended) entries are
  // removed lazily when they surface at the top.
  std::vector<std::uint32_t> heap;
  std::size_t next_start = 0;
  std::uint32_t last_won = std::numeric_limits<std::uint32_t>::max();
  mappings.reserve(by_start.size());
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const std::uint64_t x = bounds[b];
    while (next_start < by_start.size() &&
           sorted[by_start[next_start]].logical_offset == x) {
      heap.push_back(by_start[next_start++]);
      std::push_heap(heap.begin(), heap.end());
    }
    while (!heap.empty()) {
      const IndexEntry& top = sorted[heap.front()];
      if (top.logical_offset + top.length > x) break;
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    if (heap.empty()) continue;  // unwritten gap
    const std::uint64_t nx = bounds[b + 1];
    const std::uint32_t won = heap.front();
    const IndexEntry& e = sorted[won];
    if (won == last_won && !mappings.empty() &&
        mappings.back().logical_offset + mappings.back().length == x) {
      mappings.back().length += nx - x;
    } else {
      mappings.push_back(
          Mapping{x, nx - x, e.writer, e.physical_offset + (x - e.logical_offset)});
    }
    last_won = won;
  }

  if (compress && !mappings.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 1; i < mappings.size(); ++i) {
      Mapping& back = mappings[w];
      const Mapping& m = mappings[i];
      if (back.writer == m.writer && back.logical_offset + back.length == m.logical_offset &&
          back.physical_offset + back.length == m.physical_offset) {
        back.length += m.length;
      } else {
        mappings[++w] = m;
      }
    }
    mappings.resize(w + 1);
  }
  return idx;
}

FlatIndex FlatIndex::build(std::vector<IndexEntry> entries, bool compress) {
  std::sort(entries.begin(), entries.end(), entry_timestamp_less);
  return from_sorted(entries, compress);
}

std::vector<FlatIndex::Mapping> FlatIndex::lookup(std::uint64_t offset, std::uint64_t len) const {
  std::vector<Mapping> out;
  if (len == 0 || mappings_.empty()) return out;
  const std::uint64_t end = offset + len;
  // First mapping whose end is past `offset`.
  auto it = std::partition_point(mappings_.begin(), mappings_.end(), [offset](const Mapping& m) {
    return m.logical_offset + m.length <= offset;
  });
  for (; it != mappings_.end() && it->logical_offset < end; ++it) {
    const std::uint64_t m_start = std::max(offset, it->logical_offset);
    const std::uint64_t m_end = std::min(end, it->logical_offset + it->length);
    Mapping m = *it;
    m.physical_offset += m_start - it->logical_offset;
    m.logical_offset = m_start;
    m.length = m_end - m_start;
    out.push_back(m);
  }
  return out;
}

std::uint64_t FlatIndex::logical_size() const {
  if (mappings_.empty()) return 0;
  return mappings_.back().logical_offset + mappings_.back().length;
}

std::vector<IndexEntry> FlatIndex::to_entries() const {
  std::vector<IndexEntry> out;
  out.reserve(mappings_.size());
  for (const auto& m : mappings_) {
    out.push_back(IndexEntry{m.logical_offset, m.length, m.physical_offset, 0, m.writer});
  }
  stamp_resolution_sequence(out);
  return out;
}

std::uint64_t FlatIndex::serialized_bytes() const {
  if (mappings_.empty()) return 0;
  if (wire_bytes_ == 0) wire_bytes_ = encoded_size(to_entries());
  return wire_bytes_;
}

}  // namespace tio::plfs
