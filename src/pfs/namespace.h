// In-memory POSIX-like namespace shared by the simulated PFS and the
// in-memory test file system. Pure data structure: all timing/contention is
// layered on top by the owning file system.
//
// The namespace is a path table. Every path that a mutation ever named is
// interned once as a dense PathId; an entry holds its parent's id, its leaf
// name, a present flag, is_dir, the file's ObjectId and its count of
// present children, and caches two derived values: the length of its
// normalized path and its metadata group (chosen by the top-level
// component: volK maps to group K mod groups, any other name hashes). A
// lookup walks the raw path's components (empty and "." segments are
// skipped, as path_normalize does), one hash probe on (parent id, leaf) per
// step, with no allocation; lookups never insert.
//
// Ids are never reused: unlink only marks an entry absent, so an id held
// by an in-flight command or an open file keeps naming the same path, and
// re-creating the path revives the same id. A present entry's ancestors
// are always present directories (creates need a present parent
// directory, and directories are never removed), so `present(id)` alone
// answers whether the path exists; the root-down walk that names the first
// missing or non-directory ancestor runs only when a mutation fails.
//
// The string API (lookup, exists, mkdir_all, ...) resolves to an id and
// calls the id operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "pfs/types.h"

namespace tio::pfs {

class Namespace {
 public:
  // `groups` is the modulus of the cached metadata group (1: every path is
  // in group 0).
  explicit Namespace(std::size_t groups = 1);

  struct Entry {
    bool is_dir = false;
    ObjectId oid = kNoObject;  // for files
  };

  // Creates a file; allocates a fresh ObjectId. With `excl`, an existing
  // file is an error; otherwise the existing ObjectId is returned with
  // `created=false`.
  struct CreateResult {
    ObjectId oid;
    bool created;
  };

  // --- path table ---

  // Ids of a raw path and of its parent directory (kNoPath where not
  // interned), plus its last component ("" for the root, whose parent is
  // itself). Never inserts.
  struct Resolved {
    PathId id = kNoPath;
    PathId parent = kNoPath;
    std::string_view leaf;
  };
  Resolved resolve(std::string_view path) const;
  PathId find(std::string_view path) const { return resolve(path).id; }
  // Id of `path`, interning it and any of its ancestors that are missing
  // (as absent entries).
  PathId intern(std::string_view path);
  // Id of `leaf` under the interned directory `parent`, interning it.
  PathId intern(PathId parent, std::string_view leaf);

  bool present(PathId id) const { return id < nodes_.size() && nodes_[id].present; }
  PathId parent(PathId id) const { return nodes_[id].parent; }
  std::size_t group(PathId id) const { return nodes_[id].group; }
  std::size_t path_length(PathId id) const { return nodes_[id].path_len; }
  // The normalized path of an id (builds a string: tests and error text).
  std::string path_of(PathId id) const;
  // The metadata group rule applied to a raw path's top component (0 for
  // the root), for paths that may not be interned.
  std::size_t group_of(std::string_view path) const;
  std::size_t interned() const { return nodes_.size(); }

  // --- id operations ---
  Result<CreateResult> create_file(PathId id, bool excl);
  Status mkdir(PathId id);
  // Removes a file and returns its ObjectId (for store reclamation).
  Result<ObjectId> unlink(PathId id);
  Result<Entry> lookup(PathId id) const;
  Result<std::vector<DirEntry>> readdir(PathId id) const;
  // Number of entries in a directory (0 for missing) — drives the
  // directory-degradation cost model without paying readdir.
  std::uint64_t dir_entry_count(PathId id) const;

  // --- string API ---
  Result<CreateResult> create_file(std::string_view path, bool excl);
  Result<Entry> lookup(std::string_view path) const;
  Status mkdir(std::string_view path);
  // mkdir -p semantics; never fails on existing directories.
  Status mkdir_all(std::string_view path);
  Result<ObjectId> unlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path) const;
  std::uint64_t dir_entry_count(std::string_view path) const;
  bool exists(std::string_view path) const { return present(find(path)); }

  std::uint64_t next_object_id() const { return next_oid_; }

 private:
  struct Node {
    ObjectId oid = kNoObject;
    PathId parent = kRootPath;
    PathId first_child = kNoPath;   // children chain, absent ones included
    PathId next_sibling = kNoPath;
    std::uint32_t name_off = 0;     // leaf name in names_
    std::uint32_t name_len = 0;
    std::uint32_t path_len = 1;     // normalized path length ("/" is 1)
    std::uint32_t children = 0;     // present children
    std::uint16_t group = 0;
    bool present = false;
    bool is_dir = false;
  };
  // One open-addressing slot: the id plus the high hash bits, so a probe
  // rejects most mismatches without touching the node.
  struct Slot {
    PathId id = kNoPath;
    std::uint32_t tag = 0;
  };

  std::string_view name(PathId id) const {
    return {names_.data() + nodes_[id].name_off, nodes_[id].name_len};
  }
  PathId probe(PathId parent, std::string_view leaf) const;
  void grow();
  // OK when `id`'s parent is a present directory; otherwise the error the
  // root-down walk over its ancestors meets first.
  Status parent_status(PathId id) const;
  void set_present(PathId id, bool is_dir, ObjectId oid);

  std::size_t groups_;
  // A deque: growth never relocates a node.
  std::deque<Node> nodes_;
  std::string names_;
  std::vector<Slot> slots_;
  ObjectId next_oid_ = 1;
};

}  // namespace tio::pfs
