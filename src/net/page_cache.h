// Per-node page cache model: block-granular LRU over (object, block) keys.
//
// Only residency is tracked, never content — content always comes from the
// file system's extent maps, so a cache hit changes timing, not data.
//
// The LRU chain is intrusive: entries live in a pooled slab and link to
// each other by 32-bit index, so fills and touches never allocate once the
// cache has reached working-set size (a std::list would pay a node
// allocation per filled block — one per simulated 256 KiB of I/O).
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"

namespace tio::net {

struct ByteRange {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

class PageCache {
 public:
  PageCache(std::uint64_t capacity_bytes, std::uint64_t block_bytes);

  // Marks the blocks covering [offset, offset+len) of `object` resident
  // (called on write and on read-miss fill).
  void fill(std::uint64_t object, std::uint64_t offset, std::uint64_t len);

  // Returns the number of bytes of [offset, offset+len) served by cache and
  // refreshes LRU for the hit blocks. When `misses` is non-null, the
  // coalesced uncached sub-ranges are appended to it.
  std::uint64_t lookup(std::uint64_t object, std::uint64_t offset, std::uint64_t len,
                       std::vector<ByteRange>* misses = nullptr);

  void clear();

  std::uint64_t resident_bytes() const { return static_cast<std::uint64_t>(map_.size()) * block_; }
  std::uint64_t capacity() const { return capacity_; }

  struct Stats {
    std::uint64_t hit_bytes = 0;
    std::uint64_t miss_bytes = 0;
    std::uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct Entry {
    ObjectBlock key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void touch(std::uint64_t object, std::uint64_t block);
  void unlink(std::uint32_t i);
  void push_front(std::uint32_t i);
  void release(std::uint32_t i);  // unlink + return the slot to the free list

  std::uint64_t capacity_;
  std::uint64_t block_;
  std::uint64_t max_blocks_;
  std::vector<Entry> slab_;           // entry pool; holes tracked in free_
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;         // most recently used
  std::uint32_t tail_ = kNil;         // least recently used
  FlatMap<ObjectBlock, std::uint32_t, ObjectBlockHash> map_;
  Stats stats_;
};

}  // namespace tio::net
