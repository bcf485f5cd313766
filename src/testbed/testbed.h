// Calibrated testbed presets and the Rig convenience bundle.
//
// Two presets mirror the paper's evaluation platforms:
//   * lanl_cluster — Sections IV/V: 64 nodes x 16 Opteron cores, 32 GB/node,
//     InfiniBand, 551 TB PanFS behind a 10GigE storage network whose
//     theoretical peak the paper quotes as 1.25 GB/s.
//   * cielo — Section VI: Cray XE6, Gemini interconnect, 10 PB PanFS;
//     we model the 4096-node slice that hosts up to 65,536 processes.
//
// Calibration constants live here on purpose: every number the simulator
// depends on is in one reviewable place.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "pfs/config.h"
#include "pfs/faulty_fs.h"
#include "pfs/sim_pfs.h"
#include "plfs/mount.h"
#include "plfs/plfs.h"

namespace tio::testbed {

net::ClusterConfig lanl_cluster();
pfs::PfsConfig lanl_pfs(std::size_t num_mds = 1);

net::ClusterConfig cielo();
pfs::PfsConfig cielo_pfs(std::size_t num_mds = 10);

// PLFS mount over `backends` volumes (/vol0/plfs ... /volB-1/plfs).
plfs::PlfsMount plfs_mount(std::size_t backends, std::size_t num_subdirs = 32);

// Everything a bench needs, wired together: engine, cluster, simulated PFS
// (with one volume per metadata server), and a PLFS mount across those
// volumes. Volume roots are pre-created ("mounted").
class Rig {
 public:
  struct Options {
    net::ClusterConfig cluster;
    pfs::PfsConfig pfs;
    std::size_t plfs_backends = 0;  // 0 = one backend per MDS
    std::size_t num_subdirs = 32;
    std::uint64_t seed = 0x7e57bed;
    // Deterministic fault injection between PLFS and the simulated PFS
    // (see pfs/faulty_fs.h). Disabled (all-zero plan) by default.
    pfs::FaultPlan fault_plan = {};
    // Retry/timeout policy handed to the PLFS mount.
    RetryPolicy retry = {};
  };

  explicit Rig(Options options);

  sim::Engine& engine() { return engine_; }
  net::Cluster& cluster() { return *cluster_; }
  pfs::SimPfs& pfs() { return *pfs_; }
  plfs::Plfs& plfs() { return *plfs_; }
  plfs::PlfsMount& mount() { return mount_; }
  // The FsClient PLFS actually talks to: the SimPfs itself, or the FaultyFs
  // wrapped around it when a fault plan is active.
  pfs::FsClient& fs() { return faulty_ ? static_cast<pfs::FsClient&>(*faulty_) : *pfs_; }
  // Path for direct (non-PLFS) access experiments, on volume 0.
  std::string direct_dir() const { return "/vol0/direct"; }

 private:
  sim::Engine engine_;
  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<pfs::SimPfs> pfs_;
  std::unique_ptr<pfs::FaultyFs> faulty_;
  plfs::PlfsMount mount_;
  std::unique_ptr<plfs::Plfs> plfs_;
};

}  // namespace tio::testbed
