// In-memory POSIX-like namespace tree shared by the simulated PFS and the
// in-memory test file system. Pure data structure: all timing/contention is
// layered on top by the owning file system.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "pfs/types.h"

namespace tio::pfs {

class Namespace {
 public:
  Namespace() : root_(std::make_unique<Node>()) { root_->is_dir = true; }

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
  Result<CreateResult> create_file(std::string_view path, bool excl);

  Result<Entry> lookup(std::string_view path) const;
  Status mkdir(std::string_view path);
  // mkdir -p semantics; never fails on existing directories.
  Status mkdir_all(std::string_view path);
  Status rmdir(std::string_view path);
  // Removes a file and returns its ObjectId (for store reclamation).
  Result<ObjectId> unlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path) const;
  // Number of entries in a directory (0 for missing) — drives the
  // directory-degradation cost model without paying readdir.
  std::uint64_t dir_entry_count(std::string_view path) const;
  bool exists(std::string_view path) const;

  std::uint64_t next_object_id() const { return next_oid_; }

 private:
  struct Node {
    bool is_dir = false;
    ObjectId oid = kNoObject;
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
  };

  const Node* find(std::string_view path) const;
  Node* find(std::string_view path);
  // Parent directory node of `path`, or error.
  Result<Node*> parent_of(std::string_view path, std::string_view* leaf);

  std::unique_ptr<Node> root_;
  ObjectId next_oid_ = 1;
};

}  // namespace tio::pfs
