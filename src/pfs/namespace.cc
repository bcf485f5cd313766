#include "pfs/namespace.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/rng.h"
#include "common/strutil.h"

namespace tio::pfs {

namespace {

std::uint64_t key_hash(PathId parent, std::string_view leaf) {
  return hash_combine(std::hash<std::string_view>{}(leaf), parent);
}

constexpr std::size_t kMinSlots = 64;

// Volumes named volK model separately mounted file systems and map to
// groups round-robin, so K volumes on a K-group system are disjoint (like
// PanFS realms); any other top-level name hashes.
std::size_t metadata_group(std::string_view top, std::size_t groups) {
  if (top.starts_with("vol")) {
    std::uint64_t k = 0;
    bool numeric = top.size() > 3;
    for (const char c : top.substr(3)) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      k = k * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (numeric) return static_cast<std::size_t>(k % groups);
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : top) h = splitmix64(h ^ static_cast<unsigned char>(c));
  return static_cast<std::size_t>(h % groups);
}

}  // namespace

Namespace::Namespace(std::size_t groups) : groups_(std::max<std::size_t>(1, groups)) {
  if (groups_ > 0x10000) throw std::invalid_argument("Namespace: more than 65536 groups");
  Node& root = nodes_.emplace_back();
  root.present = true;
  root.is_dir = true;
  slots_.resize(kMinSlots);
}

// ------------------------------------------------------------- path table

PathId Namespace::probe(PathId parent, std::string_view leaf) const {
  const std::uint64_t h = key_hash(parent, leaf);
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id == kNoPath) return kNoPath;
    if (s.tag == tag && nodes_[s.id].parent == parent && name(s.id) == leaf) return s.id;
  }
}

void Namespace::grow() {
  std::vector<Slot> next(slots_.size() * 2);
  const std::size_t mask = next.size() - 1;
  for (PathId id = 1; id < nodes_.size(); ++id) {
    const std::uint64_t h = key_hash(nodes_[id].parent, name(id));
    std::size_t i = h & mask;
    while (next[i].id != kNoPath) i = (i + 1) & mask;
    next[i] = Slot{id, static_cast<std::uint32_t>(h >> 32)};
  }
  slots_ = std::move(next);
}

Namespace::Resolved Namespace::resolve(std::string_view path) const {
  Resolved r{kRootPath, kRootPath, {}};
  std::size_t pos = 0;
  for (std::string_view comp = next_path_component(path, pos); !comp.empty();
       comp = next_path_component(path, pos)) {
    r.parent = r.id;
    r.leaf = comp;
    r.id = r.parent == kNoPath ? kNoPath : probe(r.parent, comp);
  }
  return r;
}

PathId Namespace::intern(PathId parent, std::string_view leaf) {
  if (const PathId found = probe(parent, leaf); found != kNoPath) return found;
  if ((nodes_.size() + 1) * 2 > slots_.size()) grow();
  const auto id = static_cast<PathId>(nodes_.size());
  Node& p = nodes_[parent];
  Node& n = nodes_.emplace_back();
  n.parent = parent;
  n.name_off = static_cast<std::uint32_t>(names_.size());
  n.name_len = static_cast<std::uint32_t>(leaf.size());
  const std::size_t prefix = parent == kRootPath ? 1 : p.path_len + 1;
  n.path_len = static_cast<std::uint32_t>(prefix + leaf.size());
  n.group = static_cast<std::uint16_t>(parent == kRootPath ? metadata_group(leaf, groups_)
                                                           : p.group);
  n.next_sibling = p.first_child;
  p.first_child = id;
  names_.append(leaf);
  const std::uint64_t h = key_hash(parent, leaf);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  while (slots_[i].id != kNoPath) i = (i + 1) & mask;
  slots_[i] = Slot{id, static_cast<std::uint32_t>(h >> 32)};
  return id;
}

PathId Namespace::intern(std::string_view path) {
  PathId cur = kRootPath;
  std::size_t pos = 0;
  for (std::string_view comp = next_path_component(path, pos); !comp.empty();
       comp = next_path_component(path, pos)) {
    cur = intern(cur, comp);
  }
  return cur;
}

std::string Namespace::path_of(PathId id) const {
  if (id == kRootPath) return "/";
  std::string out(nodes_[id].path_len, '/');
  for (PathId cur = id; cur != kRootPath; cur = nodes_[cur].parent) {
    const Node& n = nodes_[cur];
    std::copy_n(names_.data() + n.name_off, n.name_len,
                out.begin() + static_cast<std::ptrdiff_t>(n.path_len - n.name_len));
  }
  return out;
}

std::size_t Namespace::group_of(std::string_view path) const {
  std::size_t pos = 0;
  const std::string_view top = next_path_component(path, pos);
  return top.empty() ? 0 : metadata_group(top, groups_);
}

// ---------------------------------------------------------- id operations

Status Namespace::parent_status(PathId id) const {
  if (id == kRootPath) return error(Errc::invalid, "root has no parent: /");
  const PathId parent = nodes_[id].parent;
  if (nodes_[parent].present && nodes_[parent].is_dir) return Status::Ok();
  // Error path only: replay the root-down walk over the ancestors so the
  // first missing or non-directory component decides the error.
  std::vector<PathId> chain;
  for (PathId a = parent; a != kRootPath; a = nodes_[a].parent) chain.push_back(a);
  PathId cur = kRootPath;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!nodes_[cur].is_dir) return error(Errc::not_a_directory, std::string(name(*it)));
    if (!nodes_[*it].present) {
      return error(Errc::not_found, "missing path component: " + std::string(name(*it)));
    }
    cur = *it;
  }
  return error(Errc::not_a_directory, path_of(id));
}

void Namespace::set_present(PathId id, bool is_dir, ObjectId oid) {
  Node& n = nodes_[id];
  n.present = true;
  n.is_dir = is_dir;
  n.oid = oid;
  ++nodes_[n.parent].children;
}

Result<Namespace::CreateResult> Namespace::create_file(PathId id, bool excl) {
  TIO_RETURN_IF_ERROR(parent_status(id));
  const Node& n = nodes_[id];
  if (n.present) {
    if (n.is_dir) return error(Errc::is_a_directory, path_of(id));
    if (excl) return error(Errc::exists, path_of(id));
    return CreateResult{n.oid, false};
  }
  const ObjectId oid = next_oid_++;
  set_present(id, /*is_dir=*/false, oid);
  return CreateResult{oid, true};
}

Status Namespace::mkdir(PathId id) {
  TIO_RETURN_IF_ERROR(parent_status(id));
  if (nodes_[id].present) return error(Errc::exists, path_of(id));
  set_present(id, /*is_dir=*/true, kNoObject);
  return Status::Ok();
}

Result<ObjectId> Namespace::unlink(PathId id) {
  TIO_RETURN_IF_ERROR(parent_status(id));
  Node& n = nodes_[id];
  if (!n.present) return error(Errc::not_found, path_of(id));
  if (n.is_dir) return error(Errc::is_a_directory, path_of(id));
  n.present = false;
  --nodes_[n.parent].children;
  return n.oid;
}

Result<Namespace::Entry> Namespace::lookup(PathId id) const {
  if (!present(id)) {
    return error(Errc::not_found, id == kNoPath ? std::string("unknown path") : path_of(id));
  }
  return Entry{nodes_[id].is_dir, nodes_[id].oid};
}

Result<std::vector<DirEntry>> Namespace::readdir(PathId id) const {
  TIO_ASSIGN_OR_RETURN(const Entry e, lookup(id));
  if (!e.is_dir) return error(Errc::not_a_directory, path_of(id));
  std::vector<PathId> kids;
  kids.reserve(nodes_[id].children);
  for (PathId c = nodes_[id].first_child; c != kNoPath; c = nodes_[c].next_sibling) {
    if (nodes_[c].present) kids.push_back(c);
  }
  // Byte order, as a std::map<std::string> of the names would iterate.
  std::sort(kids.begin(), kids.end(), [this](PathId a, PathId b) { return name(a) < name(b); });
  std::vector<DirEntry> out;
  out.reserve(kids.size());
  for (const PathId c : kids) out.push_back(DirEntry{std::string(name(c)), nodes_[c].is_dir});
  return out;
}

std::uint64_t Namespace::dir_entry_count(PathId id) const {
  return present(id) && nodes_[id].is_dir ? nodes_[id].children : 0;
}

// ------------------------------------------------------------- string API

Result<Namespace::CreateResult> Namespace::create_file(std::string_view path, bool excl) {
  return create_file(intern(path), excl);
}

Result<Namespace::Entry> Namespace::lookup(std::string_view path) const {
  const PathId id = find(path);
  if (!present(id)) return error(Errc::not_found, std::string(path));
  return lookup(id);
}

Status Namespace::mkdir(std::string_view path) { return mkdir(intern(path)); }

Status Namespace::mkdir_all(std::string_view path) {
  PathId cur = kRootPath;
  std::size_t pos = 0;
  for (std::string_view comp = next_path_component(path, pos); !comp.empty();
       comp = next_path_component(path, pos)) {
    cur = intern(cur, comp);
    if (!nodes_[cur].present) {
      set_present(cur, /*is_dir=*/true, kNoObject);
    } else if (!nodes_[cur].is_dir) {
      return error(Errc::not_a_directory, path_of(cur));
    }
  }
  return Status::Ok();
}

Result<ObjectId> Namespace::unlink(std::string_view path) { return unlink(intern(path)); }

Result<std::vector<DirEntry>> Namespace::readdir(std::string_view path) const {
  const PathId id = find(path);
  if (!present(id)) return error(Errc::not_found, std::string(path));
  return readdir(id);
}

std::uint64_t Namespace::dir_entry_count(std::string_view path) const {
  return dir_entry_count(find(path));
}

}  // namespace tio::pfs
