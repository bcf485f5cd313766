// Container path layout and federation hashing.
//
// A PLFS logical file /dir/name is physically a *container* directory
// /backendC/dir/name holding:
//   access          ownership/ACL record (also the container marker)
//   meta/           per-writer size droppings written at close
//   openhosts/      records of writers with the file open
//   subdir.K/       K in [0, num_subdirs): holds data.<rank>, index.<rank>
//   global.index    (optional) flattened global index
//
// The canonical backend C is chosen by hashing the logical path, and each
// subdir.K is hashed independently across backends
// ("shadow containers"), which is how PLFS federates one file's metadata
// load over multiple metadata servers (paper Fig. 6). All hashing is
// static, so every process resolves paths without coordination.
#pragma once

#include <cstdint>
#include <string>

#include "plfs/mount.h"

namespace tio::plfs {

class ContainerLayout {
 public:
  ContainerLayout(const PlfsMount& mount, std::string logical_path);

  const std::string& logical() const { return logical_; }

  std::size_t canonical_backend() const;
  std::size_t subdir_backend(std::size_t k) const;
  std::size_t subdir_of_rank(int rank) const;
  std::size_t num_subdirs() const { return mount_->num_subdirs; }
  std::size_t num_backends() const { return mount_->backends.size(); }

  // Physical container directory on backend b.
  std::string container_on(std::size_t backend) const;
  std::string canonical_container() const { return container_on(canonical_backend()); }
  std::string access_path() const;
  std::string meta_dir() const;
  std::string openhosts_dir() const;
  std::string global_index_path() const;
  // subdir.k on its (hashed) backend.
  std::string subdir_path(std::size_t k) const;
  // subdir.k placed on an explicit backend — used by MDS failover, which
  // ring-probes backends (subdir_backend(k) + j) % B when the hashed home
  // is unreachable.
  std::string subdir_path_on(std::size_t k, std::size_t backend) const;
  std::string data_log_path(int rank) const;
  std::string index_log_path(int rank) const;
  std::string data_log_path_on(int rank, std::size_t backend) const;
  std::string index_log_path_on(int rank, std::size_t backend) const;
  // Marker in the canonical container recording that subdir.k was placed
  // off its hashed home by failover; readers seeing it probe the ring.
  std::string stale_marker_path(std::size_t k) const;
  std::string openhost_record_path(int rank) const;
  std::string meta_dropping_path(int rank, std::uint64_t logical_size) const;

 private:
  std::uint64_t path_hash() const;

  const PlfsMount* mount_;
  std::string logical_;  // normalized
};

// True if `name` looks like an index log; extracts the writer id.
bool parse_index_log_name(std::string_view name, std::uint32_t* writer);
// True if `name` is a failover marker "stale.K"; extracts the subdir k.
bool parse_stale_marker_name(std::string_view name, std::size_t* k);

}  // namespace tio::plfs
