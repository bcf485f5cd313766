// Common vocabulary types for file-system clients, and the metadata
// mutation commands that the Raft layer (src/raft/) replicates. Header-only,
// so raft can name the commands without linking the PFS.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace tio::pfs {

// Identifies a file's backing object; never reused within a file system.
using ObjectId = std::uint64_t;
// An open-file handle id, per client instance.
using FileId = std::uint64_t;

inline constexpr ObjectId kNoObject = 0;

// Dense id of one interned path in a Namespace.
using PathId = std::uint32_t;
inline constexpr PathId kRootPath = 0;
inline constexpr PathId kNoPath = 0xffffffffu;

// Identifies the issuing process for cost accounting (node placement for
// caches/NICs) and lock ownership.
struct IoCtx {
  std::size_t node = 0;
  int rank = 0;
};

struct OpenFlags {
  bool read = false;
  bool write = false;
  bool create = false;
  bool trunc = false;
  bool excl = false;

  static OpenFlags ro() { return {.read = true}; }
  static OpenFlags wr() { return {.write = true}; }
  static OpenFlags rdwr() { return {.read = true, .write = true}; }
  // Typical log-file creation: write, create if absent, fail if present.
  static OpenFlags wr_create() { return {.write = true, .create = true}; }
  static OpenFlags wr_create_excl() { return {.write = true, .create = true, .excl = true}; }
  static OpenFlags wr_trunc() { return {.write = true, .create = true, .trunc = true}; }
};

struct StatInfo {
  bool is_dir = false;
  std::uint64_t size = 0;
  TimePoint mtime;
};

struct DirEntry {
  std::string name;
  bool is_dir = false;
  friend bool operator==(const DirEntry&, const DirEntry&) = default;
};

// One namespace mutation: what every create/mkdir/unlink becomes
// before it travels (alone, in a batch, or in a Raft log entry) and what
// SimPfs::apply_meta applies to the namespace. The path is the id the op
// interned at SimPfs's entry; ids are never reused, so it still names the
// same path when the command applies, however long it sat in a batch or a
// log. The command holds no heap storage (trivially destructible), so a log
// entry costs its few bytes; the wire size SimPfs::raft_apply charges still
// counts the normalized path's length, read from the path table.
struct MetaCommand {
  enum class Kind : std::uint8_t { create, mkdir, unlink };
  Kind kind = Kind::create;
  PathId path = kNoPath;
  bool excl = false;
  friend bool operator==(const MetaCommand&, const MetaCommand&) = default;
};
static_assert(std::is_trivially_destructible_v<MetaCommand>);

// Result of applying one MetaCommand (the client-visible outcome).
struct MetaApply {
  Status status;
  ObjectId oid = kNoObject;
  bool created = false;
};

// A batch of mutations bound for one metadata group, applied as ONE log
// entry (replicated) or one amortized round trip (unreplicated, batched).
// Every Raft log entry is a MetaBatch: an unbatched replicated mutation is
// a batch of one. Idempotent as a unit because every entry's apply
// tolerates re-execution (create returns the existing object,
// mkdir/unlink report exists/not_found), and the Raft layer's
// group-wide applied index already guarantees exactly-once apply per
// committed index.
struct MetaBatch {
  std::vector<MetaCommand> cmds;
  friend bool operator==(const MetaBatch&, const MetaBatch&) = default;
};

// Per-entry outcomes of a MetaBatch, in submission order.
struct MetaBatchApply {
  std::vector<MetaApply> results;
};

}  // namespace tio::pfs
