// Test-only writer for the original fixed-record index format (wire v1).
//
// Nothing in the library writes v1 any more, but the readers still accept
// it so containers written before the pattern codec keep opening. These
// helpers fabricate such containers' bytes: 40-byte little-endian records
// (logical, length, physical, timestamp, writer, 4 bytes of padding), and
// the same records followed by the flattened-index integrity trailer.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "plfs/index.h"
#include "plfs/index_builder.h"

namespace tio::plfs {

inline std::vector<std::byte> encode_v1(const std::vector<IndexEntry>& entries) {
  std::vector<std::byte> out(entries.size() * IndexEntry::kSerializedSize);
  std::byte* p = out.data();
  for (const IndexEntry& e : entries) {
    std::memcpy(p + 0, &e.logical_offset, 8);
    std::memcpy(p + 8, &e.length, 8);
    std::memcpy(p + 16, &e.physical_offset, 8);
    std::memcpy(p + 24, &e.timestamp_ns, 8);
    std::memcpy(p + 32, &e.writer, 4);  // bytes 36..39 stay zero (padding)
    p += IndexEntry::kSerializedSize;
  }
  return out;
}

inline std::vector<std::byte> encode_v1_trailed(const std::vector<IndexEntry>& entries) {
  std::vector<std::byte> out = encode_v1(entries);
  append_index_trailer(out, entries.size());
  return out;
}

}  // namespace tio::plfs
