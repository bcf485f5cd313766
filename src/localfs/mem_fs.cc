#include "localfs/mem_fs.h"

#include <algorithm>

namespace tio::localfs {

using pfs::FileId;
using pfs::ObjectId;

sim::Task<Result<FileId>> MemFs::open(pfs::IoCtx ctx, std::string path, pfs::OpenFlags flags) {
  (void)ctx;
  if (!flags.read && !flags.write) {
    co_return error(Errc::invalid, "open needs read or write: " + path);
  }
  const pfs::Namespace::Resolved r = ns_.resolve(path);
  ObjectId oid = pfs::kNoObject;
  auto existing = ns_.lookup(r.id);
  if (existing.ok() && existing->is_dir) co_return error(Errc::is_a_directory, path);
  if (existing.ok()) {
    if (flags.create && flags.excl) co_return error(Errc::exists, path);
    oid = existing->oid;
    if (flags.trunc && flags.write) {
      Object& o = objects_[oid];
      o.data.clear();
      o.size = 0;
      o.mtime = engine_.now();
    }
  } else {
    if (!flags.create) co_return error(Errc::not_found, path);
    if (!ns_.present(r.parent)) co_return error(Errc::not_found, "parent of " + path);
    const pfs::PathId id = r.id != pfs::kNoPath ? r.id : ns_.intern(r.parent, r.leaf);
    auto created = ns_.create_file(id, flags.excl);
    if (!created.ok()) co_return created.status();
    oid = created->oid;
    objects_[oid].mtime = engine_.now();
  }
  const FileId id = next_file_id_++;
  open_files_[id] = OpenFile{oid, flags};
  co_return id;
}

sim::Task<Status> MemFs::close(pfs::IoCtx ctx, FileId file) {
  (void)ctx;
  if (open_files_.erase(file) == 0) co_return error(Errc::bad_handle, "close");
  co_return Status::Ok();
}

sim::Task<Result<std::uint64_t>> MemFs::write(pfs::IoCtx ctx, FileId file, std::uint64_t offset,
                                              DataView data) {
  (void)ctx;
  const auto it = open_files_.find(file);
  if (it == open_files_.end()) co_return error(Errc::bad_handle, "write");
  if (!it->second.flags.write) co_return error(Errc::permission, "fd not writable");
  Object& o = objects_[it->second.oid];
  const std::uint64_t len = data.size();
  o.data.write(offset, std::move(data));
  o.size = std::max(o.size, offset + len);
  o.mtime = engine_.now();
  co_return len;
}

sim::Task<Result<FragmentList>> MemFs::read(pfs::IoCtx ctx, FileId file, std::uint64_t offset,
                                            std::uint64_t len) {
  (void)ctx;
  const auto it = open_files_.find(file);
  if (it == open_files_.end()) co_return error(Errc::bad_handle, "read");
  if (!it->second.flags.read) co_return error(Errc::permission, "fd not readable");
  Object& o = objects_[it->second.oid];
  if (offset >= o.size) co_return FragmentList{};
  len = std::min(len, o.size - offset);
  co_return o.data.read(offset, len);
}

sim::Task<Status> MemFs::mkdir(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  const pfs::Namespace::Resolved r = ns_.resolve(path);
  if (!ns_.present(r.parent)) co_return error(Errc::not_found, "parent of " + path);
  co_return ns_.mkdir(r.id != pfs::kNoPath ? r.id : ns_.intern(r.parent, r.leaf));
}

sim::Task<Status> MemFs::unlink(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  auto removed = ns_.unlink(path);
  if (!removed.ok()) co_return removed.status();
  objects_.erase(removed.value());
  co_return Status::Ok();
}

sim::Task<Result<pfs::StatInfo>> MemFs::stat(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  auto entry = ns_.lookup(path);
  if (!entry.ok()) co_return entry.status();
  pfs::StatInfo info;
  info.is_dir = entry->is_dir;
  if (!entry->is_dir) {
    const auto it = objects_.find(entry->oid);
    if (it != objects_.end()) {
      info.size = it->second.size;
      info.mtime = it->second.mtime;
    }
  }
  co_return info;
}

sim::Task<Result<std::vector<pfs::DirEntry>>> MemFs::readdir(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  co_return ns_.readdir(path);
}

}  // namespace tio::localfs
