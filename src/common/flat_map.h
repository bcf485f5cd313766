// Open-addressed hash map for the simulator's hot per-event lookups
// (MPI mailboxes, page-cache residency, range-lock ownership).
// std::unordered_map pays a node allocation per insert, a prime-modulo
// division per probe, and a pointer chase per bucket collision — at
// millions of messages per run that is a measurable slice of wall time.
// This map linear-probes a contiguous power-of-two table (one cache line
// per probe step), deletes via tombstones, and cleans them up by
// right-sizing on rehash, so churn-heavy maps (a mailbox lives for exactly
// one message) stay compact.
//
// Requirements: Key copyable and equality-comparable, Value default-
// constructible, Hash well mixed over all 64 bits (linear probing amplifies
// weak hashes; run anything structured through splitmix64). Iteration is
// deliberately not provided — nothing on the hot path walks these maps, and
// hash-order iteration is how nondeterminism sneaks into a simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace tio {

// One block of one object: the key of the page caches' residency maps (a
// cache block) and of SimPfs's lock table (a lock range).
struct ObjectBlock {
  std::uint64_t object;
  std::uint64_t block;
  bool operator==(const ObjectBlock&) const = default;
};
struct ObjectBlockHash {
  std::size_t operator()(const ObjectBlock& k) const {
    return static_cast<std::size_t>(hash_combine(k.object, k.block));
  }
};

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void reserve(std::size_t n) {
    if (n * 2 > state_.size()) rehash(n * 2);
  }

  // Pointer to the mapped value, or nullptr when absent.
  Value* find(const Key& k) {
    if (size_ == 0) return nullptr;
    const std::size_t mask = state_.size() - 1;
    for (std::size_t i = Hash{}(k) & mask;; i = (i + 1) & mask) {
      if (state_[i] == kEmpty) return nullptr;
      if (state_[i] == kFull && slots_[i].first == k) return &slots_[i].second;
    }
  }
  const Value* find(const Key& k) const { return const_cast<FlatMap*>(this)->find(k); }

  // Existing mapped value, or a freshly value-initialized one.
  Value& operator[](const Key& k) {
    if ((used_ + 1) * 2 > state_.size()) rehash(size_ * 4 + 16);
    const std::size_t mask = state_.size() - 1;
    std::size_t insert_at = kNpos;
    for (std::size_t i = Hash{}(k) & mask;; i = (i + 1) & mask) {
      if (state_[i] == kFull) {
        if (slots_[i].first == k) return slots_[i].second;
      } else if (state_[i] == kTomb) {
        if (insert_at == kNpos) insert_at = i;  // best reusable slot so far
      } else {
        // First empty slot: the key is definitely absent.
        if (insert_at == kNpos) {
          insert_at = i;
          ++used_;  // consuming a never-used slot; tombstone reuse doesn't
        }
        state_[insert_at] = kFull;
        slots_[insert_at] = std::pair<Key, Value>(k, Value());
        ++size_;
        return slots_[insert_at].second;
      }
    }
  }

  bool erase(const Key& k) {
    if (size_ == 0) return false;
    const std::size_t mask = state_.size() - 1;
    for (std::size_t i = Hash{}(k) & mask;; i = (i + 1) & mask) {
      if (state_[i] == kEmpty) return false;
      if (state_[i] == kFull && slots_[i].first == k) {
        state_[i] = kTomb;
        slots_[i] = std::pair<Key, Value>();  // drop held resources now
        --size_;
        return true;
      }
    }
  }

  void clear() {
    state_.assign(state_.size(), kEmpty);
    slots_.assign(slots_.size(), std::pair<Key, Value>());
    size_ = 0;
    used_ = 0;
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  void rehash(std::size_t want) {
    std::size_t ncap = 16;
    while (ncap < want) ncap <<= 1;
    std::vector<std::uint8_t> nstate(ncap, static_cast<std::uint8_t>(kEmpty));
    std::vector<std::pair<Key, Value>> nslots(ncap);
    const std::size_t mask = ncap - 1;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] != kFull) continue;
      std::size_t j = Hash{}(slots_[i].first) & mask;
      while (nstate[j] == kFull) j = (j + 1) & mask;
      nstate[j] = kFull;
      nslots[j] = std::move(slots_[i]);
    }
    state_ = std::move(nstate);
    slots_ = std::move(nslots);
    used_ = size_;  // tombstones discarded
  }

  // Parallel arrays: probing scans the dense state bytes (64 per cache
  // line) and only touches a slot on a state match.
  std::vector<std::uint8_t> state_;
  std::vector<std::pair<Key, Value>> slots_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstoned slots (probe-chain occupancy)
};

}  // namespace tio
