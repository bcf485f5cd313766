#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tio::testbed {
namespace {

TEST(Presets, LanlClusterMatchesPaperTestbed) {
  const auto c = lanl_cluster();
  EXPECT_EQ(c.nodes, 64u);
  EXPECT_EQ(c.cores_per_node, 16u);
  EXPECT_EQ(c.total_cores(), 1024u);  // "64 nodes each with 16 AMD Opteron cores"
  EXPECT_DOUBLE_EQ(c.storage_net_bandwidth, 1.25e9);  // the quoted theoretical peak
  EXPECT_EQ(c.memory_per_node, 32_GiB);
}

TEST(Presets, CieloHostsTheLargeRuns) {
  const auto c = cielo();
  EXPECT_GE(c.total_cores(), 65536u);  // must fit the paper's largest job
  EXPECT_GT(c.storage_net_bandwidth, lanl_cluster().storage_net_bandwidth);
}

TEST(Presets, PfsConfigsParameterizeMds) {
  EXPECT_EQ(lanl_pfs(1).num_mds, 1u);
  EXPECT_EQ(lanl_pfs(9).num_mds, 9u);
  EXPECT_EQ(cielo_pfs().num_mds, 10u);  // the paper's federated default
  EXPECT_EQ(cielo_pfs(20).num_mds, 20u);
}

TEST(PlfsMountHelper, BackendsAndSpreadPolicies) {
  const auto single = plfs_mount(1);
  EXPECT_EQ(single.backends.size(), 1u);
  const auto ten = plfs_mount(10);
  EXPECT_EQ(ten.backends.size(), 10u);
  EXPECT_EQ(ten.backends[3], "/vol3/plfs");
  EXPECT_THROW(plfs_mount(0), std::invalid_argument);
}

TEST(Rig, MountsVolumesAndDirectDir) {
  Rig rig({.cluster = lanl_cluster(), .pfs = lanl_pfs(4)});
  EXPECT_EQ(rig.mount().backends.size(), 4u);  // one backend per MDS by default
  for (const auto& b : rig.mount().backends) {
    EXPECT_TRUE(rig.pfs().ns().exists(b)) << b;
  }
  EXPECT_TRUE(rig.pfs().ns().exists(rig.direct_dir()));
}

TEST(Rig, VolumesLandOnDistinctMds) {
  Rig rig({.cluster = lanl_cluster(), .pfs = lanl_pfs(4)});
  // /vol0../vol3 must map to 4 distinct metadata servers (glued realms).
  std::set<std::size_t> mds;
  for (const auto& b : rig.mount().backends) mds.insert(rig.pfs().mds_of_path(b));
  EXPECT_EQ(mds.size(), 4u);
}

TEST(Rig, ExplicitBackendCountOverridesDefault) {
  Rig rig({.cluster = lanl_cluster(), .pfs = lanl_pfs(4), .plfs_backends = 2});
  EXPECT_EQ(rig.mount().backends.size(), 2u);
}

// A server outage or partition must name a group and replica the rig has,
// in both replication modes: no silent wrap onto another group when
// replicated, no lowered "/volG" outage that matches no backend when not.
TEST(Rig, OutOfRangeFaultTargetsThrowInBothModes) {
  for (const auto replication : {pfs::MdsReplication::none, pfs::MdsReplication::raft}) {
    SCOPED_TRACE(std::string(pfs::mds_replication_name(replication)));
    const auto options = [replication](const char* spec) {
      Rig::Options o;
      o.cluster = lanl_cluster();
      o.pfs = lanl_pfs(3);
      o.pfs.mds_replication = replication;
      o.fault_plan = pfs::FaultPlan::parse(spec).value();
      return o;
    };
    for (const char* spec : {"server_outage=3:leader@1-2", "server_outage=0:3@1-2",
                             "partition=3@1-2"}) {
      EXPECT_THROW(Rig rig(options(spec)), std::invalid_argument) << spec;
    }
    EXPECT_NO_THROW(Rig rig(options("server_outage=2:2@1-2,partition=2@1-2")));
  }
}

}  // namespace
}  // namespace tio::testbed
