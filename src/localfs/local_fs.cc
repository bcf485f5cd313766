#include "localfs/local_fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <algorithm>
#include <stdexcept>

#include "common/strutil.h"

namespace tio::localfs {

using pfs::FileId;

namespace {

Errc errc_from_errno(int err) {
  switch (err) {
    case ENOENT: return Errc::not_found;
    case EEXIST: return Errc::exists;
    case ENOTDIR: return Errc::not_a_directory;
    case EISDIR: return Errc::is_a_directory;
    case EACCES: return Errc::permission;
    case EBADF: return Errc::bad_handle;
    case ENOSPC: return Errc::no_space;
    case EINVAL: return Errc::invalid;
    default: return Errc::io_error;
  }
}

Status errno_status(std::string_view what, std::string_view path) {
  return error(errc_from_errno(errno),
               std::string(what) + " " + std::string(path) + ": " + std::strerror(errno));
}

}  // namespace

LocalFs::LocalFs(sim::Engine& engine, std::string root)
    : engine_(engine), root_(std::move(root)) {
  struct stat st{};
  if (::stat(root_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw std::invalid_argument("LocalFs root is not an existing directory: " + root_);
  }
  while (root_.size() > 1 && root_.back() == '/') root_.pop_back();
}

std::string LocalFs::host_path(std::string_view logical) const {
  return root_ + path_normalize(logical);
}

sim::Task<Result<FileId>> LocalFs::open(pfs::IoCtx ctx, std::string path, pfs::OpenFlags flags) {
  (void)ctx;
  if (!flags.read && !flags.write) {
    co_return error(Errc::invalid, "open needs read or write: " + path);
  }
  int oflags = flags.read && flags.write ? O_RDWR : (flags.write ? O_WRONLY : O_RDONLY);
  if (flags.create) oflags |= O_CREAT;
  if (flags.trunc) oflags |= O_TRUNC;
  if (flags.excl) oflags |= O_EXCL;
  const std::string host = host_path(path);
  const int fd = ::open(host.c_str(), oflags, 0644);
  if (fd < 0) co_return errno_status("open", host);
  const FileId id = next_file_id_++;
  fds_[id] = fd;
  co_return id;
}

sim::Task<Status> LocalFs::close(pfs::IoCtx ctx, FileId file) {
  (void)ctx;
  const auto it = fds_.find(file);
  if (it == fds_.end()) co_return error(Errc::bad_handle, "close");
  ::close(it->second);
  fds_.erase(it);
  co_return Status::Ok();
}

sim::Task<Result<std::uint64_t>> LocalFs::write(pfs::IoCtx ctx, FileId file, std::uint64_t offset,
                                                DataView data) {
  (void)ctx;
  const auto it = fds_.find(file);
  if (it == fds_.end()) co_return error(Errc::bad_handle, "write");
  const auto bytes = data.to_bytes();
  std::uint64_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(it->second, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) co_return errno_status("pwrite", "");
    done += static_cast<std::uint64_t>(n);
  }
  co_return done;
}

sim::Task<Result<FragmentList>> LocalFs::read(pfs::IoCtx ctx, FileId file, std::uint64_t offset,
                                              std::uint64_t len) {
  (void)ctx;
  const auto it = fds_.find(file);
  if (it == fds_.end()) co_return error(Errc::bad_handle, "read");
  // Clamp to EOF before allocating (callers may pass "the whole file").
  struct stat st{};
  if (::fstat(it->second, &st) != 0) co_return errno_status("fstat", "");
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (offset >= size) co_return FragmentList{};
  len = std::min(len, size - offset);
  std::vector<std::byte> buf(len);
  std::uint64_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(it->second, buf.data() + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) co_return errno_status("pread", "");
    if (n == 0) break;  // EOF
    done += static_cast<std::uint64_t>(n);
  }
  buf.resize(done);
  FragmentList out;
  out.append(DataView::literal(std::move(buf)));
  co_return out;
}

sim::Task<Status> LocalFs::mkdir(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  const std::string host = host_path(path);
  if (::mkdir(host.c_str(), 0755) != 0) co_return errno_status("mkdir", host);
  co_return Status::Ok();
}

sim::Task<Status> LocalFs::unlink(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  const std::string host = host_path(path);
  if (::unlink(host.c_str()) != 0) co_return errno_status("unlink", host);
  co_return Status::Ok();
}

sim::Task<Result<pfs::StatInfo>> LocalFs::stat(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  const std::string host = host_path(path);
  struct ::stat st{};
  if (::stat(host.c_str(), &st) != 0) co_return errno_status("stat", host);
  pfs::StatInfo info;
  info.is_dir = S_ISDIR(st.st_mode);
  info.size = static_cast<std::uint64_t>(st.st_size);
  info.mtime = TimePoint::from_ns(static_cast<std::int64_t>(st.st_mtime) * 1000000000);
  co_return info;
}

sim::Task<Result<std::vector<pfs::DirEntry>>> LocalFs::readdir(pfs::IoCtx ctx, std::string path) {
  (void)ctx;
  const std::string host = host_path(path);
  DIR* dir = ::opendir(host.c_str());
  if (dir == nullptr) co_return errno_status("opendir", host);
  std::vector<pfs::DirEntry> out;
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string_view name = ent->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(pfs::DirEntry{std::string(name), ent->d_type == DT_DIR});
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const pfs::DirEntry& a, const pfs::DirEntry& b) { return a.name < b.name; });
  co_return out;
}

}  // namespace tio::localfs
