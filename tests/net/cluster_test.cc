#include "net/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "net/topology.h"
#include "testutil.h"

namespace tio::net {
namespace {

ClusterConfig small_config() {
  ClusterConfig c;
  c.nodes = 4;
  c.cores_per_node = 2;
  c.nic_bandwidth = 1e9;
  c.fabric_latency = Duration::us(2);
  c.storage_net_bandwidth = 1e8;
  c.storage_nic_bandwidth = 1e8;
  return c;
}

TEST(Cluster, ConfigSanity) {
  sim::Engine e;
  Cluster c(e, small_config());
  EXPECT_EQ(c.nodes(), 4u);
  EXPECT_EQ(c.config().total_cores(), 8u);
}

TEST(Cluster, ZeroNodesThrows) {
  sim::Engine e;
  ClusterConfig cfg;
  cfg.nodes = 0;
  EXPECT_THROW(Cluster(e, cfg), std::invalid_argument);
}

TEST(Cluster, FabricTransferChargesLatencyPlusBandwidth) {
  sim::Engine e;
  Cluster c(e, small_config());
  test::run_task(e, c.fabric_transfer(0, 1, 1000000));  // 1 MB at 1 GB/s
  // Cut-through: 1 ms on the host links, then 2 us of switch hop (the
  // flow rounds its completion up by <= 2 ns).
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()),
              static_cast<double>(Duration::ms(1).to_ns() + Duration::us(2).to_ns()), 10.0);
}

TEST(Cluster, IntraNodeTransferIsLatencyOnly) {
  sim::Engine e;
  Cluster c(e, small_config());
  test::run_task(e, c.fabric_transfer(2, 2, 1000000000));
  EXPECT_LT(e.now().to_ns(), Duration::us(1).to_ns());
}

TEST(Cluster, BadNodeIndexThrows) {
  sim::Engine e;
  Cluster c(e, small_config());
  bool threw = false;
  e.spawn([](Cluster& cl, bool& out) -> sim::Task<void> {
    try {
      co_await cl.fabric_transfer(0, 99, 10);
    } catch (const std::out_of_range&) {
      out = true;
    }
  }(c, threw));
  e.run();
  EXPECT_TRUE(threw);
}

TEST(Cluster, ConcurrentSendersShareSenderNic) {
  sim::Engine e;
  Cluster c(e, small_config());
  // Two 1 MB messages from node 0 to nodes 1 and 2 share node 0's uplink:
  // 2 MB through the 1 GB/s NIC = 2 ms (plus the 2 us hop).
  double done1 = 0, done2 = 0;
  auto send = [](Cluster& cl, std::size_t to, double* out) -> sim::Task<void> {
    co_await cl.fabric_transfer(0, to, 1000000);
    *out = cl.engine().now().to_seconds();
  };
  e.spawn(send(c, 1, &done1));
  e.spawn(send(c, 2, &done2));
  e.run();
  EXPECT_NEAR(done1, 0.002, 1e-4);
  EXPECT_NEAR(done2, 0.002, 1e-4);
}

TEST(Cluster, StorageNetIsSharedAcrossNodes) {
  sim::Engine e;
  Cluster c(e, small_config());
  // 4 streams of 25 MB into a 100 MB/s pipe: all finish at ~1 s.
  int finished = 0;
  auto push = [](Cluster& cl, int* n) -> sim::Task<void> {
    co_await cl.storage_net().transfer(25000000);
    ++*n;
  };
  for (int i = 0; i < 4; ++i) e.spawn(push(c, &finished));
  e.run();
  EXPECT_EQ(finished, 4);
  EXPECT_NEAR(e.now().to_seconds(), 1.0, 1e-3);
}

TEST(Cluster, PerNodePageCachesAreIndependent) {
  sim::Engine e;
  Cluster c(e, small_config());
  c.page_cache(0).fill(7, 0, 1_MiB);
  EXPECT_GT(c.page_cache(0).lookup(7, 0, 1_MiB), 0u);
  EXPECT_EQ(c.page_cache(1).lookup(7, 0, 1_MiB), 0u);
}

// --- ClusterConfig::validate — one rejection per constraint, so a config
// typo (a zeroed bandwidth, a rack count that leaves ragged racks) fails
// at construction instead of producing division-by-zero rates mid-run.

TEST(ClusterConfigValidate, AcceptsTheDefaultsAndSmallConfig) {
  EXPECT_NO_THROW(ClusterConfig{}.validate());
  EXPECT_NO_THROW(small_config().validate());
}

TEST(ClusterConfigValidate, RejectsZeroCoresPerNode) {
  ClusterConfig c = small_config();
  c.cores_per_node = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsNonPositiveNicBandwidth) {
  ClusterConfig c = small_config();
  c.nic_bandwidth = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.nic_bandwidth = -1e9;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsNonFiniteRates) {
  // `x <= 0` is false for NaN, so each rate needs an explicit finiteness
  // check; a NaN uplink would otherwise model a link with no limit.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    for (double ClusterConfig::*field :
         {&ClusterConfig::nic_bandwidth, &ClusterConfig::storage_net_bandwidth,
          &ClusterConfig::storage_nic_bandwidth, &ClusterConfig::page_cache_bandwidth,
          &ClusterConfig::oversubscription}) {
      ClusterConfig c = small_config();
      c.*field = bad;
      EXPECT_THROW(c.validate(), std::invalid_argument);
    }
  }
}

TEST(ClusterConfigValidate, RejectsNonPositiveStorageNetBandwidth) {
  ClusterConfig c = small_config();
  c.storage_net_bandwidth = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsNonPositiveStorageNicBandwidth) {
  ClusterConfig c = small_config();
  c.storage_nic_bandwidth = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsNonPositivePageCacheBandwidth) {
  ClusterConfig c = small_config();
  c.page_cache_bandwidth = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsNonPositiveLatencies) {
  ClusterConfig c = small_config();
  c.fabric_latency = Duration::zero();
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.storage_net_latency = Duration::ns(-5);
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsZeroRacks) {
  ClusterConfig c = small_config();
  c.racks = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, RejectsRaggedRackGeometry) {
  ClusterConfig c = small_config();  // 4 nodes
  c.racks = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.racks = 2;
  EXPECT_NO_THROW(c.validate());
}

TEST(ClusterConfigValidate, RejectsNonPositiveOversubscription) {
  ClusterConfig c = small_config();
  c.oversubscription = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.oversubscription = -2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ClusterConfigValidate, ClusterConstructorRunsValidation) {
  sim::Engine e;
  ClusterConfig c = small_config();
  c.nic_bandwidth = 0;
  EXPECT_THROW(Cluster(e, c), std::invalid_argument);
}

}  // namespace
}  // namespace tio::net
