// Compute-cluster model: nodes, the high-speed interconnect fabric, the
// (much slower) shared storage network, and per-node page caches.
//
// The paper's central resource asymmetry — an InfiniBand/Gemini fabric that
// is largely idle during I/O phases versus a thin 10GigE storage network —
// is what transformative middleware exploits, so the two networks are
// modeled as separate resources, each a max-min-shared FlowNet
// (net/topology.h):
//   * fabric: every inter-node message is one cut-through flow through the
//     preset's link graph, then the path's switch-hop latency. `flat` is a
//     single non-blocking switch (per-node full-duplex host links at
//     nic_bandwidth); `tor` and `fat_tree` add rack structure, so
//     oversubscribed uplinks and incast contention become visible.
//     Intra-node messages cost latency only.
//   * storage network: one global link with every flow capped at the
//     storage NIC rate (the 1.25 GB/s "theoretical peak").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "net/page_cache.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::net {

class StorageNet;
class Topology;

// Fabric preset. `flat` is one non-blocking switch; the others add rack
// structure (net/topology.h).
enum class TopologyKind : std::uint8_t { flat, tor, fat_tree };

struct ClusterConfig {
  std::size_t nodes = 64;
  std::size_t cores_per_node = 16;
  std::uint64_t memory_per_node = 32_GiB;

  // Interconnect (IB / Gemini class).
  double nic_bandwidth = 2.0e9;                       // bytes/s per direction
  Duration fabric_latency = Duration::us(2);

  // Fabric preset and rack geometry. `racks` must divide `nodes`;
  // `oversubscription` is the ToR uplink taper (4.0 means each rack's core
  // uplink carries a quarter of its hosts' aggregate NIC rate). Neither
  // affects the flat preset's routing — its one switch has no rack-visible
  // structure — but rack_of_node() still answers from the geometry so
  // placement layers can plan against it.
  TopologyKind topology = TopologyKind::flat;
  std::size_t racks = 1;
  double oversubscription = 1.0;

  // Storage network (10GigE class).
  double storage_net_bandwidth = 1.25e9;              // aggregate bytes/s
  double storage_nic_bandwidth = 1.25e9;              // per-flow cap
  Duration storage_net_latency = Duration::us(60);

  // Page cache devoted to file data per node.
  std::uint64_t page_cache_per_node = 8_GiB;
  std::uint64_t page_cache_block = 256_KiB;
  double page_cache_bandwidth = 4.0e9;                // cached-read service rate

  std::size_t total_cores() const { return nodes * cores_per_node; }
  std::size_t nodes_per_rack() const { return nodes / racks; }
  std::size_t rack_of_node(std::size_t node) const { return node / nodes_per_rack(); }

  // Latency of the shared-memory transport between co-resident ranks (no
  // NIC, no switch hop) — the cheapest interaction the fabric model has.
  Duration intra_node_latency() const { return fabric_latency / 4; }

  // Throws std::invalid_argument on zero, negative or non-finite
  // capacities or oversubscription, non-positive latencies, zero counts,
  // or rack geometry that does not divide the node count. Cluster's
  // constructor calls this.
  void validate() const;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterConfig config);
  ~Cluster();

  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  std::size_t nodes() const { return config_.nodes; }

  // One fabric message from node to node (intra-node messages cost only a
  // reduced latency). The awaiting process is blocked for the full
  // transfer, like a blocking MPI send-receive pair: one max-min-shared
  // flow through the preset's link graph (net/topology.h). Throws
  // std::out_of_range on a bad node index.
  sim::Task<void> fabric_transfer(std::size_t from_node, std::size_t to_node,
                                  std::uint64_t bytes);

  // The routed link graph (never null).
  Topology* topology() { return topo_.get(); }

  // The storage network (net/topology.h).
  StorageNet& storage_net() { return *storage_net_; }
  Duration storage_latency() const { return config_.storage_net_latency; }
  PageCache& page_cache(std::size_t node) { return *caches_[node]; }
  double cached_read_rate() const { return config_.page_cache_bandwidth; }

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  std::unique_ptr<StorageNet> storage_net_;
  std::vector<std::unique_ptr<PageCache>> caches_;
  std::unique_ptr<Topology> topo_;
};

}  // namespace tio::net
