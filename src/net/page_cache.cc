#include <algorithm>
#include "net/page_cache.h"

#include <stdexcept>

namespace tio::net {

PageCache::PageCache(std::uint64_t capacity_bytes, std::uint64_t block_bytes)
    : capacity_(capacity_bytes), block_(block_bytes) {
  if (block_ == 0) throw std::invalid_argument("PageCache: zero block size");
  max_blocks_ = capacity_ / block_;
}

void PageCache::unlink(std::uint32_t i) {
  Entry& e = slab_[i];
  if (e.prev != kNil) {
    slab_[e.prev].next = e.next;
  } else {
    head_ = e.next;
  }
  if (e.next != kNil) {
    slab_[e.next].prev = e.prev;
  } else {
    tail_ = e.prev;
  }
}

void PageCache::push_front(std::uint32_t i) {
  Entry& e = slab_[i];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) slab_[head_].prev = i;
  head_ = i;
  if (tail_ == kNil) tail_ = i;
}

void PageCache::release(std::uint32_t i) {
  unlink(i);
  free_.push_back(i);
}

void PageCache::touch(std::uint64_t object, std::uint64_t block) {
  const ObjectBlock key{object, block};
  if (const std::uint32_t* found = map_.find(key)) {
    if (head_ != *found) {
      unlink(*found);
      push_front(*found);
    }
    return;
  }
  if (max_blocks_ == 0) return;
  while (map_.size() >= max_blocks_) {
    map_.erase(slab_[tail_].key);
    release(tail_);
    ++stats_.evictions;
  }
  std::uint32_t i;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    i = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[i].key = key;
  push_front(i);
  map_[key] = i;
}

void PageCache::fill(std::uint64_t object, std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = offset / block_;
  const std::uint64_t last = (offset + len - 1) / block_;
  for (std::uint64_t b = first; b <= last; ++b) touch(object, b);
}

std::uint64_t PageCache::lookup(std::uint64_t object, std::uint64_t offset, std::uint64_t len,
                                std::vector<ByteRange>* misses) {
  if (len == 0) return 0;
  std::uint64_t hit = 0;
  const std::uint64_t first = offset / block_;
  const std::uint64_t last = (offset + len - 1) / block_;
  for (std::uint64_t b = first; b <= last; ++b) {
    const std::uint32_t* found = map_.find(ObjectBlock{object, b});
    const std::uint64_t block_start = b * block_;
    const std::uint64_t lo = std::max(offset, block_start);
    const std::uint64_t hi = std::min(offset + len, block_start + block_);
    if (found != nullptr) {
      hit += hi - lo;
      if (head_ != *found) {
        unlink(*found);
        push_front(*found);
      }
      stats_.hit_bytes += hi - lo;
    } else {
      stats_.miss_bytes += hi - lo;
      if (misses != nullptr) {
        if (!misses->empty() && misses->back().offset + misses->back().len == lo) {
          misses->back().len += hi - lo;  // coalesce adjacent missed blocks
        } else {
          misses->push_back(ByteRange{lo, hi - lo});
        }
      }
    }
  }
  return hit;
}

void PageCache::clear() {
  map_.clear();
  slab_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
}

}  // namespace tio::net
