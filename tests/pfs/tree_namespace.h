// TreeNamespace: the string-keyed namespace tree that pfs::Namespace
// replaced with its path table, kept as the differential oracle for it.
// Every node owns a std::map of its children, so each operation walks the
// path component by component from the root; behaviour (status codes,
// ObjectIds, readdir order) is what the path table must reproduce.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strutil.h"
#include "pfs/types.h"

namespace tio::pfs::test {

class TreeNamespace {
 public:
  TreeNamespace() : root_(std::make_unique<Node>()) { root_->is_dir = true; }

  struct Entry {
    bool is_dir = false;
    ObjectId oid = kNoObject;
  };
  struct CreateResult {
    ObjectId oid;
    bool created;
  };

  Result<CreateResult> create_file(std::string_view path, bool excl) {
    std::string_view leaf;
    TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
    const auto it = parent->children.find(leaf);
    if (it != parent->children.end()) {
      if (it->second->is_dir) return error(Errc::is_a_directory, std::string(path));
      if (excl) return error(Errc::exists, std::string(path));
      return CreateResult{it->second->oid, false};
    }
    auto node = std::make_unique<Node>();
    node->oid = next_oid_++;
    const ObjectId oid = node->oid;
    parent->children.emplace(std::string(leaf), std::move(node));
    return CreateResult{oid, true};
  }

  Result<Entry> lookup(std::string_view path) const {
    const Node* n = find(path);
    if (n == nullptr) return error(Errc::not_found, std::string(path));
    return Entry{n->is_dir, n->oid};
  }

  Status mkdir(std::string_view path) {
    std::string_view leaf;
    TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
    if (parent->children.contains(leaf)) return error(Errc::exists, std::string(path));
    auto node = std::make_unique<Node>();
    node->is_dir = true;
    parent->children.emplace(std::string(leaf), std::move(node));
    return Status::Ok();
  }

  Status mkdir_all(std::string_view path) {
    std::string built = "/";
    for (const auto comp : path_components(path)) {
      built = path_join(built, comp);
      const Node* n = find(built);
      if (n == nullptr) {
        TIO_RETURN_IF_ERROR(mkdir(built));
      } else if (!n->is_dir) {
        return error(Errc::not_a_directory, built);
      }
    }
    return Status::Ok();
  }

  Result<ObjectId> unlink(std::string_view path) {
    std::string_view leaf;
    TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
    const auto it = parent->children.find(leaf);
    if (it == parent->children.end()) return error(Errc::not_found, std::string(path));
    if (it->second->is_dir) return error(Errc::is_a_directory, std::string(path));
    const ObjectId oid = it->second->oid;
    parent->children.erase(it);
    return oid;
  }

  Result<std::vector<DirEntry>> readdir(std::string_view path) const {
    const Node* n = find(path);
    if (n == nullptr) return error(Errc::not_found, std::string(path));
    if (!n->is_dir) return error(Errc::not_a_directory, std::string(path));
    std::vector<DirEntry> out;
    for (const auto& [name, child] : n->children) out.push_back(DirEntry{name, child->is_dir});
    return out;
  }

  std::uint64_t dir_entry_count(std::string_view path) const {
    const Node* n = find(path);
    return n == nullptr || !n->is_dir ? 0 : n->children.size();
  }

  bool exists(std::string_view path) const { return find(path) != nullptr; }

 private:
  struct Node {
    bool is_dir = false;
    ObjectId oid = kNoObject;
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
  };

  const Node* find(std::string_view path) const {
    const Node* cur = root_.get();
    for (const auto comp : path_components(path)) {
      if (!cur->is_dir) return nullptr;
      const auto it = cur->children.find(comp);
      if (it == cur->children.end()) return nullptr;
      cur = it->second.get();
    }
    return cur;
  }

  Result<Node*> parent_of(std::string_view path, std::string_view* leaf) {
    const auto comps = path_components(path);
    if (comps.empty()) return error(Errc::invalid, "root has no parent: " + std::string(path));
    Node* cur = root_.get();
    for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
      if (!cur->is_dir) return error(Errc::not_a_directory, std::string(comps[i]));
      const auto it = cur->children.find(comps[i]);
      if (it == cur->children.end()) {
        return error(Errc::not_found, "missing path component: " + std::string(comps[i]));
      }
      cur = it->second.get();
    }
    if (!cur->is_dir) return error(Errc::not_a_directory, std::string(path));
    *leaf = comps.back();
    return cur;
  }

  std::unique_ptr<Node> root_;
  ObjectId next_oid_ = 1;
};

}  // namespace tio::pfs::test
