#include "net/cluster.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "net/topology.h"

namespace tio::net {

namespace {

// `x <= 0` is false for NaN, so rates are checked for finiteness too.
void require_positive(double value, const char* what) {
  if (!(std::isfinite(value) && value > 0)) {
    throw std::invalid_argument(std::string("Cluster: ") + what + " must be finite and > 0");
  }
}

}  // namespace

void ClusterConfig::validate() const {
  if (nodes == 0) throw std::invalid_argument("Cluster: zero nodes");
  if (cores_per_node == 0) throw std::invalid_argument("Cluster: zero cores_per_node");
  require_positive(nic_bandwidth, "nic_bandwidth");
  require_positive(storage_net_bandwidth, "storage_net_bandwidth");
  require_positive(storage_nic_bandwidth, "storage_nic_bandwidth");
  require_positive(page_cache_bandwidth, "page_cache_bandwidth");
  if (!(fabric_latency > Duration::zero())) {
    throw std::invalid_argument("Cluster: fabric_latency must be > 0");
  }
  if (!(storage_net_latency > Duration::zero())) {
    throw std::invalid_argument("Cluster: storage_net_latency must be > 0");
  }
  if (racks == 0) throw std::invalid_argument("Cluster: zero racks");
  if (nodes % racks != 0) {
    throw std::invalid_argument("Cluster: racks must evenly divide nodes");
  }
  require_positive(oversubscription, "oversubscription");
}

Cluster::Cluster(sim::Engine& engine, ClusterConfig config)
    : engine_(engine), config_(config) {
  config_.validate();
  caches_.reserve(config_.nodes);
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    caches_.push_back(std::make_unique<PageCache>(config_.page_cache_per_node,
                                                  config_.page_cache_block));
  }
  storage_net_ = std::make_unique<StorageNet>(engine_, config_.storage_net_bandwidth,
                                              config_.storage_nic_bandwidth);
  topo_ = std::make_unique<Topology>(engine_, config_);
}

Cluster::~Cluster() = default;

sim::Task<void> Cluster::fabric_transfer(std::size_t from_node, std::size_t to_node,
                                         std::uint64_t bytes) {
  if (from_node >= config_.nodes || to_node >= config_.nodes) {
    throw std::out_of_range("Cluster::fabric_transfer: bad node index");
  }
  return topo_->transfer(from_node, to_node, bytes);
}

}  // namespace tio::net
