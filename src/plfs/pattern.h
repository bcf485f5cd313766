// Pattern compression for the index pipeline: the index encoder (wire
// format v2) every index log, flattened index and collective exchange uses.
//
// Checkpoint workloads are structured: an N-1 strided writer emits
// thousands of index entries that are one arithmetic progression in
// logical offset, physical offset, and (nearly) timestamp. Describing such
// a run as a single PatternEntry instead of `count` 40-byte records is
// where the order-of-magnitude index-volume reduction lives (Thakur et
// al.'s noncontiguous-access insight applied to PLFS's index logs).
//
// Detection (detect_patterns): entries are scanned in stream order with
// per-writer state. A run extends while the writer's next entry keeps the
// same record length, stays physically contiguous in that writer's data
// log (physical advances by exactly record_len — the append-only
// invariant), advances the logical offset by a constant stride, and
// recurs at a constant stream-position stride (so an interleaved merge of
// many writers still pattern-compresses per writer). Runs shorter than
// `min_run` spill to literals. Timestamps do NOT gate detection: a run
// whose timestamps happen to be exactly arithmetic is flagged ts_exact and
// costs nothing to store; otherwise the encoder appends small per-record
// residuals, so irregular write timing degrades compression, never
// correctness.
//
// Wire format v2 — a file/payload is a sequence of self-contained
// segments (one per index flush):
//
//   segment := magic u32 ("PIXW") | version u8 (=2) | varint entry_count
//            | varint payload_len | payload | crc32c u32
//   payload := block*
//   block   := 0x01 pattern | 0x02 pattern+ts-residuals | 0x00 literals
//
//   pattern  := varint writer | varint pos_start | varint pos_stride
//             | varint count | varint record_len | varint logical_start
//             | varint physical_start | svarint stride | svarint ts_base
//             | svarint ts_delta
//   0x02     := pattern fields, then svarint ts_residual * count
//   literals := varint count, then per literal (delta vs previous literal
//               in the block, first vs zero):
//               svarint d_logical | svarint d_length | svarint d_physical
//               | svarint d_timestamp | varint writer
//
// (svarint = zigzag + LEB128; see common/varint.h.) The crc32c covers
// magic through payload. Blocks claim *stream positions* (pattern record j
// sits at pos_start + j*pos_stride; literals fill the unclaimed positions
// in ascending order), so decoding reproduces the original entry order
// bit-exactly — a decoded run is still a valid timestamp-sorted run.
//
// Readers auto-detect the format: a buffer starting with the v2 magic is
// v2, anything else parses as the original fixed 40-byte records (v1),
// which nothing writes any more but old containers still hold. (A v1 log
// whose first record's logical offset happens to equal the magic would
// misdetect; with a 2^-32 chance against real offsets we document rather
// than defend.) Truncated, bit-flipped, version-confused, or
// position-inconsistent buffers are rejected with Errc::io_error carrying
// the failing byte offset, same as the v1 parser.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dataview.h"
#include "common/status.h"
#include "plfs/index.h"

namespace tio::plfs {

// One arithmetic run of same-writer records. Physical offsets advance by
// record_len (log-structured append); logical offsets by `stride`;
// timestamps by `timestamp_delta` from `timestamp_base` (exact only when
// the producing run was flagged ts_exact).
struct PatternEntry {
  std::uint64_t logical_start = 0;
  std::int64_t stride = 0;  // logical-offset delta between consecutive records
  std::uint64_t record_len = 0;
  std::uint64_t physical_start = 0;
  std::uint32_t count = 0;
  std::uint32_t writer = 0;
  std::int64_t timestamp_base = 0;
  std::int64_t timestamp_delta = 0;
};

// A detected run plus its claim on stream positions.
struct PatternRun {
  PatternEntry entry;
  std::uint32_t pos_start = 0;
  std::uint32_t pos_stride = 1;
  bool ts_exact = false;  // timestamps are exactly base + i*delta
};

struct PatternScan {
  std::vector<PatternRun> runs;         // ordered by pos_start
  std::vector<std::uint32_t> literals;  // ascending positions not in any run
};

// Runs shorter than this spill to literals (a pattern block costs ~25
// bytes, so tiny runs are cheaper literal).
inline constexpr std::size_t kMinPatternRun = 4;

PatternScan detect_patterns(const std::vector<IndexEntry>& entries,
                            std::size_t min_run = kMinPatternRun);

inline constexpr std::uint32_t kWireMagic = 0x57584950;  // "PIXW"
inline constexpr std::uint8_t kWireVersion = 2;

// Encodes one batch as one v2 segment and appends it to `out`; bumps the
// plfs.index.pattern.* counters.
void append_encoded(std::vector<std::byte>& out, const std::vector<IndexEntry>& entries);
std::vector<std::byte> encode_entries(const std::vector<IndexEntry>& entries);
// Size-only variant for collective costing; does not touch the counters.
std::uint64_t encoded_size(const std::vector<IndexEntry>& entries);

// Auto-detecting decoder: v2 segments or v1 fixed records, entry order
// preserved bit-exactly either way.
Result<std::vector<IndexEntry>> decode_entries(const FragmentList& data);
// v2-only decode over a raw byte range (used by the trailer verifier,
// which has already sliced the payload out of the flattened file).
Result<std::vector<IndexEntry>> decode_entries_v2(const std::byte* data, std::size_t size);

}  // namespace tio::plfs
