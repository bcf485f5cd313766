#include "plfs/container.h"

#include <charconv>
#include <stdexcept>

#include "common/rng.h"
#include "common/strutil.h"

namespace tio::plfs {

namespace {
std::uint64_t string_hash(std::string_view s) {
  std::uint64_t h = 0x9ae16a3b2f90404full;
  for (const char c : s) h = splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}
}  // namespace

ContainerLayout::ContainerLayout(const PlfsMount& mount, std::string logical_path)
    : mount_(&mount), logical_(path_normalize(logical_path)) {
  if (mount_->backends.empty()) {
    throw std::invalid_argument("PlfsMount must have at least one backend");
  }
  if (mount_->num_subdirs == 0) {
    throw std::invalid_argument("PlfsMount must have at least one subdir");
  }
}

std::uint64_t ContainerLayout::path_hash() const { return string_hash(logical_); }

std::size_t ContainerLayout::canonical_backend() const {
  return static_cast<std::size_t>(path_hash() % mount_->backends.size());
}

std::size_t ContainerLayout::subdir_backend(std::size_t k) const {
  return static_cast<std::size_t>(hash_combine(path_hash(), k) % mount_->backends.size());
}

std::size_t ContainerLayout::subdir_of_rank(int rank) const {
  return static_cast<std::size_t>(rank) % mount_->num_subdirs;
}

std::string ContainerLayout::container_on(std::size_t backend) const {
  return path_join(mount_->backends[backend], logical_);
}

std::string ContainerLayout::access_path() const {
  return path_join(canonical_container(), "access");
}
std::string ContainerLayout::meta_dir() const { return path_join(canonical_container(), "meta"); }
std::string ContainerLayout::openhosts_dir() const {
  return path_join(canonical_container(), "openhosts");
}
std::string ContainerLayout::global_index_path() const {
  return path_join(canonical_container(), "global.index");
}

std::string ContainerLayout::subdir_path(std::size_t k) const {
  return subdir_path_on(k, subdir_backend(k));
}

std::string ContainerLayout::subdir_path_on(std::size_t k, std::size_t backend) const {
  return path_join(container_on(backend), "subdir." + std::to_string(k));
}

std::string ContainerLayout::data_log_path(int rank) const {
  return path_join(subdir_path(subdir_of_rank(rank)), "data." + std::to_string(rank));
}

std::string ContainerLayout::index_log_path(int rank) const {
  return path_join(subdir_path(subdir_of_rank(rank)), "index." + std::to_string(rank));
}

std::string ContainerLayout::data_log_path_on(int rank, std::size_t backend) const {
  return path_join(subdir_path_on(subdir_of_rank(rank), backend),
                   "data." + std::to_string(rank));
}

std::string ContainerLayout::index_log_path_on(int rank, std::size_t backend) const {
  return path_join(subdir_path_on(subdir_of_rank(rank), backend),
                   "index." + std::to_string(rank));
}

std::string ContainerLayout::stale_marker_path(std::size_t k) const {
  return path_join(canonical_container(), "stale." + std::to_string(k));
}

std::string ContainerLayout::openhost_record_path(int rank) const {
  return path_join(openhosts_dir(), "host." + std::to_string(rank));
}

std::string ContainerLayout::meta_dropping_path(int rank, std::uint64_t logical_size) const {
  return path_join(meta_dir(),
                   str_printf("dropping.%d.%llu", rank,
                              static_cast<unsigned long long>(logical_size)));
}

bool parse_index_log_name(std::string_view name, std::uint32_t* writer) {
  if (!name.starts_with("index.")) return false;
  const std::string_view digits = name.substr(6);
  std::uint32_t value = 0;
  const auto [p, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || p != digits.data() + digits.size()) return false;
  *writer = value;
  return true;
}

bool parse_stale_marker_name(std::string_view name, std::size_t* k) {
  if (!name.starts_with("stale.")) return false;
  const std::string_view digits = name.substr(6);
  std::size_t value = 0;
  const auto [p, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || p != digits.data() + digits.size()) return false;
  *k = value;
  return true;
}

}  // namespace tio::plfs
