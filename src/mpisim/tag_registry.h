// Central allocation of the mpisim user-tag space.
//
// Comm reserves everything at and above kCollectiveTagLimit for its
// internal collective operations; user subsystems (collective buffering
// today) must carve their point-to-point tags out of the space below it.
// Historically each subsystem hand-picked constants (collective buffering
// used 1000 and 300000-700000) and nothing stopped a new subsystem from
// silently colliding. Every block now lives here, as a
// [base, base+size) range, and the static_asserts below prove pairwise
// disjointness and containment under the collective limit at compile time.
//
// To add a subsystem: define its TagBlock, append it to kAllTagBlocks, and
// derive every tag the subsystem sends as `kYourBlock.base + offset` with
// `offset < kYourBlock.size`.
#pragma once

namespace tio::mpi {

struct TagBlock {
  int base = 0;
  int size = 0;
  constexpr int end() const { return base + size; }
  constexpr bool contains(int tag) const { return tag >= base && tag < end(); }
};

// Everything at or above this value belongs to Comm's collectives
// (Comm::kCollectiveTagBase aliases it; Comm::send rejects such tags).
inline constexpr int kCollectiveTagLimit = 1 << 20;

// Collective buffering (src/iolib/collective_buffer.cc). The exchange
// phases keep the widely spaced blocks they shipped with so trace tooling
// and tests keyed to the raw tag values stay valid. Per-aggregator (+j)
// tags index into the block, so each block is sized for the widest
// realistic fan-out.
inline constexpr TagBlock kCbIntraTags{300000, 2};       // member -> group leader (W, R)
inline constexpr TagBlock kCbShipWriteTags{400000, 65536};  // leader -> aggregator (+ j)
inline constexpr TagBlock kCbShipReadTags{500000, 65536};   // leader -> aggregator (+ j)
inline constexpr TagBlock kCbAggReplyTags{600000, 65536};   // aggregator -> leader (+ j)
inline constexpr TagBlock kCbFanoutTags{700000, 1};      // leader -> member slices

inline constexpr TagBlock kAllTagBlocks[] = {
    kCbIntraTags, kCbShipWriteTags, kCbShipReadTags, kCbAggReplyTags, kCbFanoutTags,
};

constexpr bool tag_blocks_disjoint() {
  constexpr int n = sizeof(kAllTagBlocks) / sizeof(kAllTagBlocks[0]);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const TagBlock& a = kAllTagBlocks[i];
      const TagBlock& b = kAllTagBlocks[j];
      if (!(a.end() <= b.base || b.end() <= a.base)) return false;
    }
  }
  return true;
}

constexpr bool tag_blocks_below_collective_limit() {
  for (const TagBlock& b : kAllTagBlocks) {
    if (b.base < 0 || b.size <= 0 || b.end() > kCollectiveTagLimit) return false;
  }
  return true;
}

static_assert(tag_blocks_disjoint(),
              "mpisim tag blocks overlap: two subsystems would cross-match");
static_assert(tag_blocks_below_collective_limit(),
              "mpisim tag blocks must stay below the collective-tag space");

}  // namespace tio::mpi
