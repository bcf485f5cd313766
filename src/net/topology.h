// The two networks: a multi-link flow network with per-flow max-min fair
// sharing, the preset fabric link graphs Cluster routes every message
// over, and the storage network.
//
//   * FlowNet — a set of capacitated links and a set of active flows, each
//     flow crossing an ordered list of links, plus an optional per-flow
//     rate cap (a private link of that capacity on every flow). Bandwidth
//     is allocated by max-min fairness: water-filling freezes the flows of
//     the most-contended link at its equal share, subtracts, and repeats.
//     Rates are recomputed once per virtual instant in which flows arrive
//     or depart; between membership changes all rates are constant, so
//     each flow's completion instant is exact. Flows on the same links
//     share one rate, so each route drains by virtual progress (bytes
//     delivered per member flow) and a flow finishes when its route's
//     progress reaches its admission progress plus its bytes. Advancing
//     time costs O(routes), whatever the flow count. Deterministic:
//     bottleneck ties break on the lowest link index (the cap first),
//     completions resume in flow-arrival order, and event times are
//     integer ns (ceil + 1 ns, with 1e-3-byte completion slack).
//
//   * Topology — builds the preset link graph from a ClusterConfig and
//     routes node-to-node transfers through it. Every preset has per-node
//     host up/down links at nic_bandwidth:
//       - flat:     one non-blocking switch; every inter-node message
//                   crosses its two host links and one switch hop. Rack
//                   geometry and oversubscription do not affect routing.
//       - tor:      hosts feed a per-rack ToR whose core uplink carries
//                   nodes_per_rack * nic_bandwidth / oversubscription in
//                   each direction; the core itself is non-blocking.
//       - fat_tree: 2-tier leaf-spine; each rack's uplink capacity is
//                   split over `spines()` parallel rack<->spine links and
//                   a flow picks its spine by a deterministic hash of the
//                   (src rack, dst rack) pair — ECMP, collisions included.
//     Intra-node messages never touch a link (latency-only,
//     fabric_latency / 4). Hop latency is fabric_latency per switch hop:
//     1 hop through one switch (flat, or within a rack), 3 hops
//     cross-rack. A transfer is one cut-through flow at the path's
//     max-min rate; the hop latency is charged after the last byte.
//
//   * StorageNet — a FlowNet of one link at storage_net_bandwidth whose
//     flows are capped at storage_nic_bandwidth: n concurrent PFS data
//     transfers each move at min(cap, capacity / n).
//
// Observability: net.topo.* counters (message/byte split by locality
// class, per-link-class bytes routed). Every flow is one trace span on the
// engine track, named by its owner: net.topo.flow.intra_rack /
// .cross_rack for fabric messages, sim.fairshare.wait for storage
// transfers; every link records its busy periods (net.topo.link.busy).
#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/trace.h"
#include "net/cluster.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace tio::net {

class FlowNet {
 public:
  // Longest route a flow may take (a cross-rack tor/fat-tree path).
  static constexpr std::size_t kMaxHops = 4;

  // `flow_cap` bounds every flow's rate (bytes/s); infinity means
  // uncapped. Throws std::invalid_argument unless it is > 0.
  explicit FlowNet(sim::Engine& engine,
                   double flow_cap = std::numeric_limits<double>::infinity());

  // Registers a link; returns its dense index. Capacity must be finite
  // and > 0.
  std::uint32_t add_link(double capacity_bytes_per_sec);
  std::size_t num_links() const { return capacity_.size(); }
  double link_capacity(std::uint32_t link) const { return capacity_[link]; }
  // Total bytes of flows routed over this link (counted at flow start).
  std::uint64_t link_bytes(std::uint32_t link) const { return links_[link].bytes; }

  // Awaitable: completes when `bytes` have moved along `path` (1 to
  // kMaxHops link indices) under global max-min sharing; the flow is one
  // trace span at `site` on the engine track. Zero-byte transfers
  // complete immediately.
  struct Awaiter {
    FlowNet* net;
    std::span<const std::uint32_t> path;
    std::uint64_t bytes;
    const trace::SpanSite* site;
    bool await_ready() const noexcept { return bytes == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(net->engine_.is_current() && "FlowNet awaited off its engine's shard");
      net->start_transfer(path, bytes, *site, h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter transfer(std::span<const std::uint32_t> path, std::uint64_t bytes,
                   const trace::SpanSite& site) {
    return Awaiter{this, path, bytes, &site};
  }

  std::size_t active_flows() const { return active_flows_; }
  // Current max-min rate of the flow admitted `seq`-th (tests); -1 when
  // that flow is no longer active. Rates are settled once per virtual
  // instant, so a flow admitted at now() may read a stale rate until the
  // instant's recompute has run.
  double rate_of(std::uint64_t seq) const;

  struct Stats {
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    std::uint64_t recomputes = 0;  // water-filling passes
    std::size_t max_concurrency = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Link {
    std::uint64_t bytes = 0;
    std::uint32_t active = 0;       // flows currently crossing the link
    std::uint32_t busy_rec = trace::kNoRecord;  // open busy-period span
  };
  struct Flow {
    double finish;  // route progress at which the flow is done
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::uint32_t trace_rec = trace::kNoRecord;
  };
  using RouteKey = std::array<std::uint32_t, kMaxHops>;  // unused hops = ~0u
  struct RouteKeyHash {
    std::size_t operator()(const RouteKey& k) const;
  };
  // The active flows that cross one exact link list. Max-min gives flows
  // on the same links the same rate, so water-filling runs over routes
  // weighted by their flow count. Every member drains at that one rate,
  // so the route keeps one progress figure for all of them, and the
  // members form a heap whose front (least finish) is done first.
  struct Route {
    RouteKey key;
    std::uint32_t hops = 0;
    double rate = 0;      // current max-min allocation per flow, bytes/s
    double progress = 0;  // bytes delivered per member since the route opened
    std::vector<Flow> members;  // min-heap on finish
    std::span<const std::uint32_t> links() const { return {key.data(), hops}; }
  };
  // A finished flow, held until the event's flows resume in arrival order.
  struct Done {
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::uint32_t trace_rec;
    std::uint32_t hops;
    RouteKey links;
  };
  // The candidate bottlenecks of a water-filling pass: a binary min-heap
  // on (share, link) holding one entry per link that still has unfrozen
  // flows. An entry is re-keyed in place when its link's share moves and
  // removed when the link's last unfrozen flow freezes.
  class LinkHeap {
   public:
    using Entry = std::pair<double, std::uint32_t>;  // (share, link)
    // Drops every entry; `num_links` bounds the link indices to come.
    void clear(std::size_t num_links);
    // Adds an entry out of heap order; heapify() restores the order.
    void append(double share, std::uint32_t link);
    void heapify();
    bool empty() const { return entries_.empty(); }
    const Entry& top() const { return entries_.front(); }
    void update(std::uint32_t link, double share);
    void erase(std::uint32_t link);

   private:
    void place(std::size_t i, const Entry& e);
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> pos_;  // link -> index into entries_
  };
  // Water-filling scratch, reused across passes. Only links some flow
  // crosses are touched; `load` and `pending` are all zeros again when a
  // pass ends.
  struct FillScratch {
    std::vector<double> residual;
    std::vector<std::uint64_t> load;      // unfrozen flows crossing a link
    std::vector<std::uint64_t> pending;   // flows frozen this round, per link
    std::vector<std::uint32_t> slot;      // link -> index into `touched`
    std::vector<std::uint32_t> touched;   // links crossed by some flow
    std::vector<std::uint32_t> dirty;     // links whose residual moved this round
    std::vector<std::uint32_t> start;     // per touched link: first entry in `members`
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> members;   // items crossing each touched link
    std::vector<char> frozen;
    LinkHeap heap;
  };

  // The one max-min routine: sets each route's per-flow rate for its
  // members.size() flows crossing links(). Repeatedly finds the
  // bottleneck link (smallest residual capacity / unfrozen flow count;
  // ties on the lowest link index), freezes its flows at that equal
  // share, and subtracts them from every link they cross. Shares never
  // fall from one round to the next, so once the smallest reaches
  // `flow_cap`, every flow left is frozen at the cap: its private cap
  // link is its bottleneck. A route with no links gets the cap.
  static void water_fill(std::span<const double> capacity, std::span<Route> routes,
                         double flow_cap, FillScratch& s);

  void start_transfer(std::span<const std::uint32_t> path, std::uint64_t bytes,
                      const trace::SpanSite& site, std::coroutine_handle<> h);
  // Moves every route's progress forward to now() at its rate.
  void advance();
  // The flow set changed: invalidates the scheduled completion and, once
  // per virtual instant, queues settle() behind the events already due now.
  void membership_changed();
  // Water-fills rates for the current routes and schedules the next
  // completion event (generation-guarded).
  void settle();
  void on_completion_event(std::uint64_t generation);
  void link_started(std::uint32_t link);
  void link_finished(std::uint32_t link);

  // Closed-form tests run water_fill on hand-built routes.
  friend struct FlowNetTestPeer;

  sim::Engine& engine_;
  double flow_cap_;
  std::vector<double> capacity_;
  std::vector<Link> links_;
  std::vector<Route> routes_;  // routes with active flows, in no particular order
  FlatMap<RouteKey, std::uint32_t, RouteKeyHash> route_index_;  // key -> index + 1
  std::size_t active_flows_ = 0;
  TimePoint last_update_;
  std::uint64_t seq_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale completion events
  bool settle_pending_ = false;
  Stats stats_;
  FillScratch scratch_;
  std::vector<Done> done_;
  std::vector<std::vector<Flow>> spare_members_;  // drained routes' storage
};

// Preset link graphs over a ClusterConfig.
class Topology {
 public:
  Topology(sim::Engine& engine, const ClusterConfig& config);

  // One node-to-node message routed through the preset's links; the
  // behavior Cluster::fabric_transfer delegates to.
  sim::Task<void> transfer(std::size_t from_node, std::size_t to_node, std::uint64_t bytes);

  // The links and latency a (from, to) message uses; exposed for tests.
  struct Route {
    enum class Class { intra_node, intra_rack, cross_rack };
    Class klass = Class::intra_node;
    std::uint32_t links[4] = {0, 0, 0, 0};
    std::size_t num_links = 0;
    Duration latency = Duration::zero();
  };
  Route route_of(std::size_t from_node, std::size_t to_node) const;

  FlowNet& net() { return net_; }
  const ClusterConfig& config() const { return config_; }
  // Fat-tree spine count: racks / 2, at least 1 (1 for flat and tor).
  std::size_t spines() const { return spines_; }

  // Link-index accessors (tests and utilization dumps). The flat preset
  // has host links only.
  std::uint32_t host_up(std::size_t node) const;
  std::uint32_t host_down(std::size_t node) const;
  std::uint32_t rack_up(std::size_t rack, std::size_t spine = 0) const;
  std::uint32_t rack_down(std::size_t rack, std::size_t spine = 0) const;

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  FlowNet net_;
  std::size_t spines_ = 1;  // parallel uplink planes per rack (fat_tree > 1)
};

// The storage network: every PFS data transfer is one flow over a single
// link of `capacity` bytes/s, capped at `flow_cap`.
class StorageNet {
 public:
  // Throws std::invalid_argument on a capacity that is not finite and
  // > 0, or a cap that is not > 0.
  StorageNet(sim::Engine& engine, double capacity, double flow_cap);

  // Awaitable: completes when `bytes` have crossed the storage network,
  // one sim.fairshare.wait span on the engine track.
  FlowNet::Awaiter transfer(std::uint64_t bytes);

  struct Stats {
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    std::size_t max_concurrency = 0;
  };
  Stats stats() const {
    const FlowNet::Stats& s = net_.stats();
    return Stats{s.flows, s.bytes, s.max_concurrency};
  }
  FlowNet& net() { return net_; }

 private:
  FlowNet net_;
  std::uint32_t link_;
};

// Preset names for flags and tables: "flat" | "tor" | "fat-tree".
std::string topology_kind_name(TopologyKind kind);
bool parse_topology_kind(const std::string& name, TopologyKind& out);

}  // namespace tio::net
