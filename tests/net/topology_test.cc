#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "net/cluster.h"
#include "sim/engine.h"
#include "testutil.h"

namespace tio::net {

// The max-min routine on its own: water_fill over hand-built routes, one
// flow per path.
struct FlowNetTestPeer {
  static std::vector<double> max_min_rates(
      const std::vector<double>& capacity, const std::vector<std::vector<std::uint32_t>>& paths,
      double flow_cap = std::numeric_limits<double>::infinity()) {
    std::vector<FlowNet::Route> routes(paths.size());
    for (std::size_t f = 0; f < paths.size(); ++f) {
      if (paths[f].size() > FlowNet::kMaxHops) throw std::length_error("path too long");
      routes[f].key.fill(~0u);
      std::copy(paths[f].begin(), paths[f].end(), routes[f].key.begin());
      routes[f].hops = static_cast<std::uint32_t>(paths[f].size());
      routes[f].members.resize(1);
    }
    FlowNet::FillScratch scratch;
    FlowNet::water_fill(capacity, routes, flow_cap, scratch);
    std::vector<double> rate;
    for (const FlowNet::Route& r : routes) rate.push_back(r.rate);
    return rate;
  }
};

namespace {

using Peer = FlowNetTestPeer;
constexpr double kUncapped = std::numeric_limits<double>::infinity();

// Every test flow is one trace span here.
const trace::SpanSite& test_site() {
  static const trace::SpanSite site("test", "test.flow", /*with_histogram=*/false);
  return site;
}

// 8 nodes in 2 racks, 1 GB/s NICs, 2:1 oversubscribed ToR uplinks
// (4 * 1 GB/s / 2 = 2 GB/s per rack, each direction).
ClusterConfig tor_config() {
  ClusterConfig c;
  c.nodes = 8;
  c.cores_per_node = 2;
  c.nic_bandwidth = 1e9;
  c.fabric_latency = Duration::us(2);
  c.topology = TopologyKind::tor;
  c.racks = 2;
  c.oversubscription = 2.0;
  return c;
}

// The textbook water-fill, one full scan of every flow and link per round,
// freezing one flow at a time: an independent oracle for FlowNet's
// bucketed, heap-ordered, route-grouped routine. Once no link's share is
// below the cap, every flow left takes the cap.
std::vector<double> scan_max_min(const std::vector<double>& capacity,
                                 const std::vector<std::vector<std::uint32_t>>& paths,
                                 double flow_cap) {
  std::vector<double> rate(paths.size(), flow_cap);
  std::vector<char> frozen(paths.size(), 0);
  std::vector<double> residual = capacity;
  for (std::size_t f = 0; f < paths.size(); ++f) frozen[f] = paths[f].empty();
  for (;;) {
    std::vector<std::uint32_t> load(capacity.size(), 0);
    for (std::size_t f = 0; f < paths.size(); ++f) {
      if (!frozen[f]) {
        for (const std::uint32_t l : paths[f]) ++load[l];
      }
    }
    std::size_t bottleneck = capacity.size();
    double share = 0;
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      if (load[l] == 0) continue;
      const double s = residual[l] / static_cast<double>(load[l]);
      if (bottleneck == capacity.size() || s < share) {
        bottleneck = l;
        share = s;
      }
    }
    if (bottleneck == capacity.size() || flow_cap <= share) return rate;
    for (std::size_t f = 0; f < paths.size(); ++f) {
      if (frozen[f] ||
          std::find(paths[f].begin(), paths[f].end(), bottleneck) == paths[f].end()) {
        continue;
      }
      rate[f] = share;
      frozen[f] = 1;
      for (const std::uint32_t l : paths[f]) residual[l] = std::max(0.0, residual[l] - share);
    }
  }
}

// --- max-min water-filling closed forms ---

TEST(MaxMin, EqualFlowsSplitOneLinkEvenly) {
  for (std::uint32_t n : {1u, 2u, 5u, 16u}) {
    const std::vector<std::vector<std::uint32_t>> paths(n, {0u});
    const auto rates = Peer::max_min_rates({8e9}, paths);
    ASSERT_EQ(rates.size(), n);
    for (double r : rates) EXPECT_DOUBLE_EQ(r, 8e9 / n);
  }
}

TEST(MaxMin, WaterFillingFreezesBottleneckThenRedistributes) {
  // Flow 0 crosses only link A (10); flow 1 crosses A and B (5); flow 2
  // crosses only B. B is the bottleneck (5 / 2 = 2.5 < 10 / 2): flows 1
  // and 2 freeze at 2.5, then flow 0 takes A's full residual 7.5.
  const auto rates = Peer::max_min_rates({10.0, 5.0}, {{0}, {0, 1}, {1}});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
  EXPECT_DOUBLE_EQ(rates[1], 2.5);
  EXPECT_DOUBLE_EQ(rates[2], 2.5);
}

TEST(MaxMin, EmptyPathIsUnconstrained) {
  const auto rates = Peer::max_min_rates({1e9}, {{}, {0}});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(rates[1], 1e9);
}

TEST(MaxMin, CapFreezesEveryFlowItBinds) {
  // WaterFillingFreezesBottleneckThenRedistributes's graph with a cap of
  // 4, plus a path with no links: flows 1 and 2 still freeze at
  // B's 2.5, flow 0, alone on A's residual 7.5, is held at the cap, and
  // the linkless flow takes the cap.
  const auto rates = Peer::max_min_rates({10.0, 5.0}, {{0}, {0, 1}, {1}, {}}, 4.0);
  EXPECT_EQ(rates, (std::vector<double>{4.0, 2.5, 2.5, 4.0}));
  // A cap at or below every share binds every flow.
  EXPECT_EQ(Peer::max_min_rates({10.0, 5.0}, {{0}, {0, 1}, {1}}, 2.5),
            (std::vector<double>{2.5, 2.5, 2.5}));
}

TEST(MaxMin, TiedBottlenecksAreDeterministic) {
  // Both links tie at 10 / 2 = 5; the lowest-index link freezes first.
  // Every flow ends at 5 either way — the invariant under test is that
  // repeated evaluation gives bit-identical output.
  const std::vector<double> caps = {10.0, 10.0};
  const std::vector<std::vector<std::uint32_t>> paths = {{0, 1}, {0}, {1}};
  const auto a = Peer::max_min_rates(caps, paths);
  const auto b = Peer::max_min_rates(caps, paths);
  EXPECT_EQ(a, b);
  for (double r : a) EXPECT_DOUBLE_EQ(r, 5.0);
}

// --- FlowNet virtual-time dynamics ---

TEST(FlowNet, SingleFlowRunsAtLinkCapacity) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  const std::uint32_t path[] = {link};
  test::run_task(e, [](FlowNet& n, std::span<const std::uint32_t> p) -> sim::Task<void> {
    co_await n.transfer(p, 1000000000, test_site());
  }(net, path));
  // 1 GB at 1 GB/s = 1 s, rounded up by <= 2 ns of event slack.
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()), 1e9, 10.0);
  EXPECT_EQ(net.stats().flows, 1u);
  EXPECT_EQ(net.link_bytes(link), 1000000000u);
}

TEST(FlowNet, LateArrivalSplitsTheLink) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  std::int64_t done_a = 0, done_b = 0;
  auto xfer = [](sim::Engine& eng, FlowNet& n, std::uint32_t l, std::uint64_t bytes,
                 Duration start, std::int64_t* out) -> sim::Task<void> {
    co_await eng.sleep(start);
    const std::uint32_t path[] = {l};
    co_await n.transfer(path, bytes, test_site());
    *out = eng.now().to_ns();
  };
  e.spawn(xfer(e, net, link, 1000000000, Duration::zero(), &done_a));
  e.spawn(xfer(e, net, link, 500000000, Duration::ms(500), &done_b));
  e.run();
  // A runs alone for 0.5 s (500 MB left); then A and B each hold 500 MB at
  // 0.5 GB/s — both complete together at 1.5 s.
  EXPECT_NEAR(static_cast<double>(done_a), 1.5e9, 10.0);
  EXPECT_NEAR(static_cast<double>(done_b), 1.5e9, 10.0);
  EXPECT_EQ(net.stats().max_concurrency, 2u);
}

TEST(FlowNet, ZeroByteTransferCompletesInline) {
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  const std::uint32_t path[] = {link};
  test::run_task(e, [](FlowNet& n, std::span<const std::uint32_t> p) -> sim::Task<void> {
    co_await n.transfer(p, 0, test_site());
  }(net, path));
  EXPECT_EQ(e.now().to_ns(), 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNet, RejectsNonPositiveCapacity) {
  sim::Engine e;
  FlowNet net(e);
  EXPECT_THROW(net.add_link(0.0), std::invalid_argument);
  EXPECT_THROW(net.add_link(-1.0), std::invalid_argument);
  EXPECT_THROW(net.add_link(std::nan("")), std::invalid_argument);
  EXPECT_THROW(net.add_link(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_EQ(net.num_links(), 0u);
  EXPECT_THROW(FlowNet(e, 0.0), std::invalid_argument);
  EXPECT_THROW(FlowNet(e, std::nan("")), std::invalid_argument);
}

TEST(FlowNet, PerFlowCapIsExactMaxMinOnTwoLinks) {
  // Links L0 = 100 MB/s and L1 = 40 MB/s, every flow capped at 30 MB/s.
  // a crosses L0 (45 MB), b crosses L0 and L1 (25 MB), c crosses L1 (10 MB).
  // Until 0.5 s L1 is the bottleneck: b and c get 20 each, and a, alone on
  // L0's residual 80, is held at the cap. c is done at 0.5 s. Then L1's
  // share for b is 40 and L0's is 50, so the cap holds both a and b: b's
  // last 15 MB take 0.5 s (1.0 s) and a's last 30 MB take 1 s (1.5 s).
  // Uncapped, b would finish at 0.875 s and a at 1.25 s.
  sim::Engine e;
  FlowNet net(e, 30e6);
  const std::uint32_t l0 = net.add_link(100e6);
  const std::uint32_t l1 = net.add_link(40e6);
  std::int64_t done_a = 0, done_b = 0, done_c = 0;
  auto xfer = [](sim::Engine& eng, FlowNet& n, std::vector<std::uint32_t> path,
                 std::uint64_t bytes, std::int64_t* out) -> sim::Task<void> {
    co_await n.transfer(path, bytes, test_site());
    *out = eng.now().to_ns();
  };
  e.spawn(xfer(e, net, {l0}, 45000000, &done_a));
  e.spawn(xfer(e, net, {l0, l1}, 25000000, &done_b));
  e.spawn(xfer(e, net, {l1}, 10000000, &done_c));
  while (e.step() && e.next_event_ns() == 0) {
  }
  EXPECT_DOUBLE_EQ(net.rate_of(0), 30e6);
  EXPECT_DOUBLE_EQ(net.rate_of(1), 20e6);
  EXPECT_DOUBLE_EQ(net.rate_of(2), 20e6);
  e.run();
  EXPECT_NEAR(static_cast<double>(done_c), 0.5e9, 10.0);
  EXPECT_NEAR(static_cast<double>(done_b), 1.0e9, 10.0);
  EXPECT_NEAR(static_cast<double>(done_a), 1.5e9, 10.0);
}

TEST(FlowNet, SameInstantBurstCostsOneWaterFill) {
  // 32 flows arrive at t = 0 on one link. They share one water-fill, run
  // at 1/32 of the link each and finish together (the drained set needs
  // no further pass).
  sim::Engine e;
  FlowNet net(e);
  const std::uint32_t link = net.add_link(1e9);
  constexpr int kFlows = 32;
  int done = 0;
  auto xfer = [](FlowNet& n, std::uint32_t l, int* out) -> sim::Task<void> {
    const std::uint32_t path[] = {l};
    co_await n.transfer(path, 1000000, test_site());
    ++*out;
  };
  for (int i = 0; i < kFlows; ++i) e.spawn(xfer(net, link, &done));
  e.run();
  EXPECT_EQ(done, kFlows);
  EXPECT_EQ(net.stats().recomputes, 1u);
  EXPECT_EQ(net.stats().max_concurrency, static_cast<std::size_t>(kFlows));
  // 32 MB through 1 GB/s, plus <= 2 ns of event slack.
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()), 32e6, 10.0);
}

// Random flows over a preset's link graph: arrival instants drawn from a
// few ticks so same-instant bursts are common, random endpoints and sizes,
// and on most seeds a per-flow cap (one that binds some flows and not
// others, one that binds every flow, or a third of a NIC, whose residuals
// round). Whenever an instant's events are done, every live flow's rate
// must equal the pure water-filling over the whole active set, and that
// must equal the full-scan oracle, bit for bit.
TEST(FlowNet, LiveRatesMatchMaxMinOnEverySeed) {
  constexpr std::uint64_t kSeeds = 240;
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    ClusterConfig cfg = tor_config();
    cfg.topology = std::array{TopologyKind::flat, TopologyKind::tor,
                              TopologyKind::fat_tree}[seed % 3];
    cfg.racks = std::array<std::size_t, 3>{1, 2, 4}[rng.below(3)];
    cfg.oversubscription = std::array{1.0, 2.0, 8.0}[rng.below(3)];
    const double flow_cap = std::array{kUncapped, 0.3e9, 0.05e9, 1e9 / 3}[rng.below(4)];
    sim::Engine e;
    Topology topo(e, cfg);
    // The preset's links, under the seed's cap.
    FlowNet net(e, flow_cap);
    std::vector<double> caps;
    for (std::uint32_t l = 0; l < topo.net().num_links(); ++l) {
      caps.push_back(topo.net().link_capacity(l));
      net.add_link(caps.back());
    }

    // paths[seq]: the route of the flow admitted seq-th (admission order
    // is the order the coroutines reach transfer()).
    std::vector<std::vector<std::uint32_t>> paths;
    auto flow = [](sim::Engine& eng, FlowNet& n, Topology::Route r, Duration start,
                   std::uint64_t bytes,
                   std::vector<std::vector<std::uint32_t>>* log) -> sim::Task<void> {
      co_await eng.sleep(start);
      const std::span<const std::uint32_t> links(r.links, r.num_links);
      log->emplace_back(links.begin(), links.end());
      co_await n.transfer(links, bytes, test_site());
    };
    const int flows = 4 + static_cast<int>(rng.below(28));
    for (int i = 0; i < flows; ++i) {
      const std::size_t from = rng.below(cfg.nodes);
      const std::size_t to = (from + 1 + rng.below(cfg.nodes - 1)) % cfg.nodes;
      e.spawn(flow(e, net, topo.route_of(from, to), Duration::us(rng.below(4) * 50),
                   1 + rng.below(200000), &paths));
    }
    while (e.step()) {
      if (e.next_event_ns() == e.now().to_ns()) continue;  // instant not finished
      std::vector<std::uint64_t> live;
      std::vector<std::vector<std::uint32_t>> live_paths;
      for (std::uint64_t seq = 0; seq < paths.size(); ++seq) {
        if (net.rate_of(seq) < 0) continue;
        live.push_back(seq);
        live_paths.push_back(paths[seq]);
      }
      const std::vector<double> expect = Peer::max_min_rates(caps, live_paths, flow_cap);
      ASSERT_EQ(expect, scan_max_min(caps, live_paths, flow_cap)) << "seed " << seed;
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_EQ(net.rate_of(live[i]), expect[i]) << "seed " << seed << " seq " << live[i];
      }
      checks += live.size();
    }
    ASSERT_EQ(net.active_flows(), 0u) << "seed " << seed;
    ASSERT_EQ(paths.size(), static_cast<std::size_t>(flows)) << "seed " << seed;
  }
  EXPECT_GT(checks, kSeeds);
}

// --- preset link graphs and routes ---

TEST(Topology, FlatIsOneSwitchOverHostLinks) {
  sim::Engine e;
  ClusterConfig cfg = tor_config();  // 2 racks, 2:1 — ignored by flat
  cfg.topology = TopologyKind::flat;
  Topology topo(e, cfg);
  ASSERT_EQ(topo.net().num_links(), 8u * 2);
  for (std::uint32_t l = 0; l < topo.net().num_links(); ++l) {
    EXPECT_DOUBLE_EQ(topo.net().link_capacity(l), 1e9);
  }
  // Same rack or not, a message crosses its two host links and one hop.
  for (const std::size_t to : {1u, 5u}) {
    const auto r = topo.route_of(0, to);
    EXPECT_EQ(r.klass, Topology::Route::Class::intra_rack);
    ASSERT_EQ(r.num_links, 2u);
    EXPECT_EQ(r.links[0], topo.host_up(0));
    EXPECT_EQ(r.links[1], topo.host_down(to));
    EXPECT_EQ(r.latency.to_ns(), Duration::us(2).to_ns());
  }
  const auto local = topo.route_of(4, 4);
  EXPECT_EQ(local.klass, Topology::Route::Class::intra_node);
  EXPECT_EQ(local.num_links, 0u);
  EXPECT_EQ(local.latency.to_ns(), (Duration::us(2) / 4).to_ns());
}

TEST(Topology, ClusterBuildsTopologyForEveryPreset) {
  sim::Engine e1, e2, e3;
  ClusterConfig flat = tor_config();
  flat.topology = TopologyKind::flat;
  Cluster c_flat(e1, flat);
  ASSERT_NE(c_flat.topology(), nullptr);
  EXPECT_EQ(c_flat.topology()->net().num_links(), 8u * 2);
  Cluster c_tor(e2, tor_config());
  ASSERT_NE(c_tor.topology(), nullptr);
  EXPECT_EQ(c_tor.topology()->config().racks, 2u);
  ClusterConfig fat = tor_config();
  fat.topology = TopologyKind::fat_tree;
  Cluster c_fat(e3, fat);
  ASSERT_NE(c_fat.topology(), nullptr);
  EXPECT_EQ(c_fat.topology()->config().topology, TopologyKind::fat_tree);
}

TEST(Topology, TorLinkCapacitiesFollowOversubscription) {
  sim::Engine e;
  Topology topo(e, tor_config());
  EXPECT_EQ(topo.spines(), 1u);
  // 2 host links per node + 2 uplink directions per rack.
  EXPECT_EQ(topo.net().num_links(), 8u * 2 + 2u * 2);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.host_up(0)), 1e9);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.host_down(7)), 1e9);
  // nodes_per_rack * nic / oversubscription = 4 * 1e9 / 2.
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0)), 2e9);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_down(1)), 2e9);
}

TEST(Topology, RoutesClassifyByLocality) {
  sim::Engine e;
  Topology topo(e, tor_config());

  const auto local = topo.route_of(3, 3);
  EXPECT_EQ(local.klass, Topology::Route::Class::intra_node);
  EXPECT_EQ(local.num_links, 0u);
  EXPECT_EQ(local.latency.to_ns(), (Duration::us(2) / 4).to_ns());

  // Nodes 0 and 1 share rack 0: host uplink -> ToR -> host downlink.
  const auto near = topo.route_of(0, 1);
  EXPECT_EQ(near.klass, Topology::Route::Class::intra_rack);
  ASSERT_EQ(near.num_links, 2u);
  EXPECT_EQ(near.links[0], topo.host_up(0));
  EXPECT_EQ(near.links[1], topo.host_down(1));
  EXPECT_EQ(near.latency.to_ns(), Duration::us(2).to_ns());

  // Node 0 (rack 0) to node 5 (rack 1) climbs through both ToRs.
  const auto far = topo.route_of(0, 5);
  EXPECT_EQ(far.klass, Topology::Route::Class::cross_rack);
  ASSERT_EQ(far.num_links, 4u);
  EXPECT_EQ(far.links[0], topo.host_up(0));
  EXPECT_EQ(far.links[1], topo.rack_up(0));
  EXPECT_EQ(far.links[2], topo.rack_down(1));
  EXPECT_EQ(far.links[3], topo.host_down(5));
  EXPECT_EQ(far.latency.to_ns(), (Duration::us(2) * 3).to_ns());
}

TEST(Topology, FatTreeSplitsUplinkAcrossSpinePlanes) {
  sim::Engine e;
  ClusterConfig cfg = tor_config();
  cfg.topology = TopologyKind::fat_tree;
  cfg.racks = 4;  // 2 nodes per rack -> 2 spine planes
  Topology topo(e, cfg);
  EXPECT_EQ(topo.spines(), 2u);
  // Per-plane capacity = nodes_per_rack * nic / oversub / spines.
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0, 0)), 2e9 / 2 / 2);
  EXPECT_DOUBLE_EQ(topo.net().link_capacity(topo.rack_up(0, 1)), 2e9 / 2 / 2);

  // ECMP spine choice is a pure function of the rack pair.
  const auto r1 = topo.route_of(0, 7);
  const auto r2 = topo.route_of(0, 7);
  ASSERT_EQ(r1.num_links, 4u);
  EXPECT_EQ(r1.links[1], r2.links[1]);
  const std::size_t spine = r1.links[1] - topo.rack_up(0, 0);
  EXPECT_LT(spine, topo.spines());
}

// --- Cluster dispatch and end-to-end timing ---

TEST(Topology, IntraRackTransferIsCutThrough) {
  sim::Engine e;
  Cluster c(e, tor_config());
  test::run_task(e, test::awaited(c.fabric_transfer(0, 1, 1000000)));
  // One 1 MB flow at the 1 GB/s host links = 1 ms, then one switch hop of
  // latency.
  EXPECT_NEAR(static_cast<double>(e.now().to_ns()),
              static_cast<double>(Duration::ms(1).to_ns() + Duration::us(2).to_ns()), 10.0);
}

// Completion instant of each message in `sends` (from, to, bytes, start),
// all run concurrently on one cluster.
struct Send {
  std::size_t from, to;
  std::uint64_t bytes;
  Duration start;
};
std::vector<std::int64_t> completion_instants(const ClusterConfig& cfg,
                                              const std::vector<Send>& sends) {
  sim::Engine e;
  Cluster c(e, cfg);
  std::vector<std::int64_t> done(sends.size(), -1);
  auto send = [](Cluster& cl, Send s, std::int64_t* out) -> sim::Task<void> {
    co_await cl.engine().sleep(s.start);
    co_await cl.fabric_transfer(s.from, s.to, s.bytes);
    *out = cl.engine().now().to_ns();
  };
  for (std::size_t i = 0; i < sends.size(); ++i) e.spawn(send(c, sends[i], &done[i]));
  e.run();
  return done;
}

TEST(Topology, FlatMatchesOneRackTorAtOneToOne) {
  // A single rack's ToR is flat's one switch: same host links, same hop,
  // so every message completes at the identical nanosecond.
  ClusterConfig flat = tor_config();
  flat.topology = TopologyKind::flat;
  ClusterConfig tor = tor_config();
  tor.racks = 1;
  tor.oversubscription = 1.0;
  Rng rng(7);
  std::vector<Send> sends;
  for (int i = 0; i < 64; ++i) {
    sends.push_back({rng.below(8), rng.below(8), 1 + rng.below(4000000),
                     Duration::us(rng.below(6) * 300)});
  }
  const auto a = completion_instants(flat, sends);
  const auto b = completion_instants(tor, sends);
  EXPECT_EQ(a, b);
  for (const std::int64_t t : a) EXPECT_GT(t, 0);
}

TEST(Topology, CrossRackTorCostsTwoHopsMoreThanFlat) {
  // Uncontended at 1:1 the rate is the host NIC's on both presets; the
  // cross-rack path adds the ToR -> core -> ToR hops.
  ClusterConfig flat = tor_config();
  flat.topology = TopologyKind::flat;
  ClusterConfig tor = tor_config();
  tor.oversubscription = 1.0;
  const std::vector<Send> one = {{0, 5, 3000000, Duration::zero()}};
  const auto a = completion_instants(flat, one);
  const auto b = completion_instants(tor, one);
  EXPECT_EQ(b[0] - a[0], (Duration::us(2) * 2).to_ns());
}

// With tracing on, every fabric flow is a span named by its locality: a
// route through the core is cross-rack, one inside a ToR intra-rack.
TEST(Topology, TracedFlowsAreNamedByLocality) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    sim::Engine e;
    Cluster c(e, tor_config());  // 8 nodes in 2 racks of 4
    test::run_task(e, test::awaited(c.fabric_transfer(0, 5, 1000000)));
    test::run_task(e, test::awaited(c.fabric_transfer(0, 1, 1000000)));
  }
  tracer.set_enabled(false);
  std::vector<std::string> names;
  for (const trace::SpanRecord& s : tracer.rank_spans(-1)) {
    const std::string& name = tracer.interned(s.name_id);
    if (name.starts_with("net.topo.flow.")) names.push_back(name);
  }
  tracer.clear();
  EXPECT_EQ(names, (std::vector<std::string>{"net.topo.flow.cross_rack",
                                             "net.topo.flow.intra_rack"}));
}

TEST(Topology, OversubscribedUplinkThrottlesCrossRackIncast) {
  // 4 nodes, 2 racks, 4:1 oversubscription: uplink = 2 * 1e9 / 4 = 0.5e9,
  // slower than a single NIC.
  ClusterConfig cfg = tor_config();
  cfg.nodes = 4;
  cfg.racks = 2;
  cfg.oversubscription = 4.0;

  // One cross-rack flow alone: bottleneck is the uplink.
  {
    sim::Engine e;
    Cluster c(e, cfg);
    test::run_task(e, test::awaited(c.fabric_transfer(0, 2, 1000000)));
    EXPECT_NEAR(static_cast<double>(e.now().to_ns()),
                static_cast<double>(Duration::ms(2).to_ns() + (Duration::us(2) * 3).to_ns()),
                10.0);
  }
  // Two concurrent flows from different hosts share the rack 0 uplink:
  // each gets 0.25e9 -> 4 ms.
  {
    sim::Engine e;
    Cluster c(e, cfg);
    std::int64_t done0 = 0, done1 = 0;
    auto send = [](Cluster& cl, std::size_t from, std::size_t to,
                   std::int64_t* out) -> sim::Task<void> {
      co_await cl.fabric_transfer(from, to, 1000000);
      *out = cl.engine().now().to_ns();
    };
    e.spawn(send(c, 0, 2, &done0));
    e.spawn(send(c, 1, 3, &done1));
    e.run();
    EXPECT_NEAR(static_cast<double>(done0),
                static_cast<double>(Duration::ms(4).to_ns() + (Duration::us(2) * 3).to_ns()),
                10.0);
    EXPECT_NEAR(static_cast<double>(done1), static_cast<double>(done0), 10.0);
  }
}

TEST(Topology, IntraNodeTransferNeverTouchesLinks) {
  sim::Engine e;
  Cluster c(e, tor_config());
  test::run_task(e, test::awaited(c.fabric_transfer(2, 2, 1000000000)));
  EXPECT_EQ(e.now().to_ns(), (Duration::us(2) / 4).to_ns());
  EXPECT_EQ(c.topology()->net().stats().flows, 0u);
}

// --- preset names ---

TEST(Topology, KindNamesRoundTrip) {
  for (auto kind : {TopologyKind::flat, TopologyKind::tor, TopologyKind::fat_tree}) {
    TopologyKind parsed;
    ASSERT_TRUE(parse_topology_kind(topology_kind_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  TopologyKind parsed;
  EXPECT_TRUE(parse_topology_kind("fat_tree", parsed));
  EXPECT_EQ(parsed, TopologyKind::fat_tree);
  EXPECT_FALSE(parse_topology_kind("dragonfly", parsed));
}

}  // namespace
}  // namespace tio::net
