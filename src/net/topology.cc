#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"

namespace tio::net {

namespace {

// Virtual slack (bytes) absorbing integer-ns rounding of event times;
// flows within this of done are taken as complete.
constexpr double kSlackBytes = 1e-3;

// Flow spans sit on the engine track (the network does not know which rank
// awaits it). Trace-only: one histogram entry per message would swamp the
// registry at full scale. Fabric flows are named by locality class.
const trace::SpanSite& intra_rack_site() {
  static const trace::SpanSite site("net.topo", "net.topo.flow.intra_rack",
                                    /*with_histogram=*/false);
  return site;
}
const trace::SpanSite& cross_rack_site() {
  static const trace::SpanSite site("net.topo", "net.topo.flow.cross_rack",
                                    /*with_histogram=*/false);
  return site;
}
// Storage-network transfers.
const trace::SpanSite& storage_wait_site() {
  static const trace::SpanSite site("sim.fairshare", "sim.fairshare.wait",
                                    /*with_histogram=*/false);
  return site;
}
// Per-link busy periods (first flow arrives -> last flow drains).
const trace::SpanSite& link_busy_site() {
  static const trace::SpanSite site("net.topo", "net.topo.link.busy",
                                    /*with_histogram=*/false);
  return site;
}

}  // namespace

FlowNet::FlowNet(sim::Engine& engine, double flow_cap)
    : engine_(engine), flow_cap_(flow_cap), last_update_(engine.now()) {
  if (!(flow_cap > 0)) throw std::invalid_argument("FlowNet: flow cap must be > 0");
}

std::uint32_t FlowNet::add_link(double capacity_bytes_per_sec) {
  if (!(std::isfinite(capacity_bytes_per_sec) && capacity_bytes_per_sec > 0)) {
    throw std::invalid_argument("FlowNet: link capacity must be finite and > 0");
  }
  capacity_.push_back(capacity_bytes_per_sec);
  links_.emplace_back();
  return static_cast<std::uint32_t>(links_.size() - 1);
}

double FlowNet::rate_of(std::uint64_t seq) const {
  for (const Route& r : routes_) {
    for (const Flow& f : r.members) {
      if (f.seq == seq) return r.rate;
    }
  }
  return -1;
}

std::size_t FlowNet::RouteKeyHash::operator()(const RouteKey& k) const {
  return static_cast<std::size_t>(
      hash_combine(hash_combine(k[0], k[1]), hash_combine(k[2], k[3])));
}

void FlowNet::LinkHeap::clear(std::size_t num_links) {
  entries_.clear();
  pos_.resize(num_links);
}

void FlowNet::LinkHeap::append(double share, std::uint32_t link) {
  pos_[link] = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(share, link);
}

void FlowNet::LinkHeap::heapify() {
  for (std::size_t i = entries_.size() / 2; i-- > 0;) sift_down(i);
}

void FlowNet::LinkHeap::update(std::uint32_t link, double share) {
  const std::size_t i = pos_[link];
  const double old = entries_[i].first;
  entries_[i].first = share;
  if (share < old) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void FlowNet::LinkHeap::erase(std::uint32_t link) {
  const std::size_t i = pos_[link];
  const Entry removed = entries_[i];
  const Entry last = entries_.back();
  entries_.pop_back();
  if (i == entries_.size()) return;
  place(i, last);
  if (last < removed) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void FlowNet::LinkHeap::place(std::size_t i, const Entry& e) {
  entries_[i] = e;
  pos_[e.second] = static_cast<std::uint32_t>(i);
}

void FlowNet::LinkHeap::sift_up(std::size_t i) {
  const Entry e = entries_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e < entries_[parent])) break;
    place(i, entries_[parent]);
    i = parent;
  }
  place(i, e);
}

void FlowNet::LinkHeap::sift_down(std::size_t i) {
  const Entry e = entries_[i];
  const std::size_t n = entries_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entries_[child + 1] < entries_[child]) ++child;
    if (!(entries_[child] < e)) break;
    place(i, entries_[child]);
    i = child;
  }
  place(i, e);
}

// Each round freezes the flows of one bottleneck link, so a scan over every
// link and flow per round would cost O(rounds x (flows + links)). Instead
// the items crossing each link are bucketed once, and the candidate
// bottlenecks sit in an indexed min-heap (LinkHeap) keyed on (share, link
// index) — the same order the scan's "smallest share, lowest index" rule
// picks. Each loaded link has exactly one entry: a round re-keys, in place,
// every link whose residual and load it changed, and removes the links it
// left without unfrozen flows (the bottleneck among them). The keys are
// unique, so the heap pops the bottlenecks in the scan's order. Every flow
// a round freezes takes the same share off each of its links, so the order
// flows freeze in, and how they are grouped into items, cannot change a
// residual: the rates are bit-identical to the textbook scan that freezes
// one flow at a time.
void FlowNet::water_fill(std::span<const double> capacity, std::span<Route> routes,
                         double flow_cap, FillScratch& s) {
  const std::size_t num_items = routes.size();
  const auto path_of = [routes](std::size_t i) { return routes[i].links(); };
  const auto weight_of = [routes](std::size_t i) {
    return static_cast<std::uint64_t>(routes[i].members.size());
  };
  s.residual.resize(capacity.size());
  s.load.resize(capacity.size(), 0);
  s.pending.resize(capacity.size(), 0);
  s.slot.resize(capacity.size());
  s.touched.clear();
  s.frozen.assign(num_items, 0);
  std::size_t unfrozen = 0;
  for (std::size_t i = 0; i < num_items; ++i) {
    const std::span<const std::uint32_t> path = path_of(i);
    if (path.empty()) {
      routes[i].rate = flow_cap;
      s.frozen[i] = 1;
      continue;
    }
    ++unfrozen;
    for (const std::uint32_t l : path) {
      if (s.load[l] == 0) {
        s.slot[l] = static_cast<std::uint32_t>(s.touched.size());
        s.touched.push_back(l);
        s.residual[l] = capacity[l];
        s.pending[l] = 0;  // counts items here until the buckets are cut
      }
      s.load[l] += weight_of(i);
      ++s.pending[l];
    }
  }
  s.start.resize(s.touched.size() + 1);
  s.start[0] = 0;
  for (std::size_t t = 0; t < s.touched.size(); ++t) {
    s.start[t + 1] = s.start[t] + static_cast<std::uint32_t>(s.pending[s.touched[t]]);
    s.pending[s.touched[t]] = 0;
  }
  s.cursor.assign(s.start.begin(), s.start.end() - 1);
  s.members.resize(s.start.back());
  for (std::size_t i = 0; i < num_items; ++i) {
    if (s.frozen[i]) continue;
    for (const std::uint32_t l : path_of(i)) {
      s.members[s.cursor[s.slot[l]]++] = static_cast<std::uint32_t>(i);
    }
  }

  s.heap.clear(capacity.size());
  for (const std::uint32_t l : s.touched) {
    s.heap.append(s.residual[l] / static_cast<double>(s.load[l]), l);
  }
  s.heap.heapify();
  while (unfrozen > 0) {
    assert(!s.heap.empty() && "every unfrozen flow crosses a loaded link");
    const auto [share, bottleneck] = s.heap.top();
    assert(share > 0 && "max-min share must stay positive on positive capacities");
    if (flow_cap <= share) {  // every flow left is held by its cap
      for (std::size_t i = 0; i < num_items; ++i) {
        if (!s.frozen[i]) routes[i].rate = flow_cap;
      }
      for (const std::uint32_t l : s.touched) s.load[l] = 0;
      break;
    }
    const std::uint32_t slot = s.slot[bottleneck];
    for (std::uint32_t k = s.start[slot]; k < s.start[slot + 1]; ++k) {
      const std::uint32_t i = s.members[k];
      if (s.frozen[i]) continue;
      routes[i].rate = share;
      s.frozen[i] = 1;
      --unfrozen;
      for (const std::uint32_t l : path_of(i)) {
        if (s.pending[l] == 0) s.dirty.push_back(l);
        s.pending[l] += weight_of(i);
      }
    }
    for (const std::uint32_t l : s.dirty) {
      s.load[l] -= s.pending[l];
      if (s.load[l] > 0) {
        // One subtraction per frozen flow, as freezing them one at a time
        // rounds; a link left without unfrozen flows is never read again.
        for (std::uint64_t k = s.pending[l]; k > 0 && s.residual[l] > 0; --k) {
          s.residual[l] = std::max(0.0, s.residual[l] - share);
        }
        s.heap.update(l, s.residual[l] / static_cast<double>(s.load[l]));
      } else if (unfrozen > 0) {  // after the last round the heap is never read
        s.heap.erase(l);
      }
      s.pending[l] = 0;
    }
    s.dirty.clear();
  }
}

namespace {

// Min-heap order for a route's members: least finish first.
struct FinishesLater {
  template <class F>
  bool operator()(const F& a, const F& b) const {
    return a.finish > b.finish;
  }
};

}  // namespace

void FlowNet::start_transfer(std::span<const std::uint32_t> path, std::uint64_t bytes,
                             const trace::SpanSite& site, Duration latency,
                             std::coroutine_handle<> h) {
  assert(!path.empty() && path.size() <= kMaxHops && "FlowNet flows cross 1..kMaxHops links");
  advance();
  RouteKey key;
  key.fill(~0u);
  std::copy(path.begin(), path.end(), key.begin());
  std::uint32_t& index = route_index_[key];
  if (index == 0) {  // FlatMap default-constructs absent values; store index + 1
    Route route;
    route.key = key;
    route.hops = static_cast<std::uint32_t>(path.size());
    if (!spare_members_.empty()) {  // reuse a drained route's allocation
      route.members = std::move(spare_members_.back());
      spare_members_.pop_back();
    }
    routes_.push_back(std::move(route));
    index = static_cast<std::uint32_t>(routes_.size());
  }
  Route& route = routes_[index - 1];
  Flow flow{route.progress + static_cast<double>(bytes), seq_++, h, latency};
  trace::Tracer& tracer = trace::Tracer::instance();
  if (tracer.enabled()) {
    flow.trace_rec =
        tracer.begin_span(-1, site.name_id, site.cat_id, engine_.trace_pid(), engine_.now().to_ns());
  }
  for (const std::uint32_t l : path) {
    links_[l].bytes += bytes;
    link_started(l);
  }
  route.members.push_back(flow);
  std::push_heap(route.members.begin(), route.members.end(), FinishesLater{});
  ++active_flows_;
  ++stats_.flows;
  stats_.bytes += bytes;
  stats_.max_concurrency = std::max(stats_.max_concurrency, active_flows_);
  membership_changed();
}

void FlowNet::advance() {
  const TimePoint now = engine_.now();
  const double dt = (now - last_update_).to_seconds();
  if (dt > 0) {
    for (Route& r : routes_) r.progress += r.rate * dt;
  }
  last_update_ = now;
}

void FlowNet::membership_changed() {
  ++generation_;  // the scheduled completion assumed the old flow set
  if (settle_pending_) return;
  // Arrivals and departures at one virtual instant share one water-fill:
  // no time passes before settle() runs, so the rates it computes are the
  // ones a recompute after every change would have ended the instant with.
  settle_pending_ = true;
  engine_.after(Duration::zero(), [this] { settle(); });
}

void FlowNet::settle() {
  settle_pending_ = false;
  if (routes_.empty()) return;
  ++stats_.recomputes;
  water_fill(capacity_, routes_, flow_cap_, scratch_);

  // Next completion: the earliest finish over all routes at the new rates.
  double next_s = std::numeric_limits<double>::infinity();
  for (const Route& r : routes_) {
    next_s = std::min(next_s, std::max(0.0, r.members.front().finish - r.progress) / r.rate);
  }
  // Round up and add 1 ns so the event never fires short of the target.
  const auto ns = static_cast<std::int64_t>(std::ceil(next_s * 1e9)) + 1;
  const std::uint64_t expect = generation_;
  engine_.after(Duration::ns(ns), [this, expect] { on_completion_event(expect); });
}

void FlowNet::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by membership change
  advance();
  for (std::size_t r = 0; r < routes_.size();) {
    Route& route = routes_[r];
    while (!route.members.empty() &&
           route.members.front().finish <= route.progress + kSlackBytes) {
      const Flow& f = route.members.front();
      done_.push_back(Done{f.seq, f.handle, f.latency, f.trace_rec, route.hops, route.key});
      std::pop_heap(route.members.begin(), route.members.end(), FinishesLater{});
      route.members.pop_back();
      --active_flows_;
    }
    if (!route.members.empty()) {
      ++r;
      continue;
    }
    // Drained: drop the route (swap-remove, re-pointing the moved one).
    route_index_.erase(route.key);
    spare_members_.push_back(std::move(route.members));
    if (r + 1 != routes_.size()) {
      route = std::move(routes_.back());
      route_index_[route.key] = static_cast<std::uint32_t>(r + 1);
    }
    routes_.pop_back();
  }
  // Finished flows resume in arrival order; resumption is deferred through
  // the engine queue, so their handles can leave the heaps right away.
  std::sort(done_.begin(), done_.end(),
            [](const Done& a, const Done& b) { return a.seq < b.seq; });
  trace::Tracer& tracer = trace::Tracer::instance();
  for (const Done& d : done_) {
    if (d.trace_rec != trace::kNoRecord) tracer.end_span(-1, d.trace_rec, engine_.now().to_ns());
    for (std::uint32_t k = 0; k < d.hops; ++k) link_finished(d.links[k]);
    const auto h = d.handle;
    if (d.latency == Duration::zero()) {
      engine_.after(Duration::zero(), [h] { h.resume(); });
    } else {
      // The wake after the hop latency is posted by this zero-delay event,
      // where a coroutine resumed here would have started its sleep.
      engine_.after(Duration::zero(), [engine = &engine_, h, latency = d.latency] {
        engine->after(latency, [h] { h.resume(); });
      });
    }
  }
  done_.clear();
  membership_changed();
}

void FlowNet::link_started(std::uint32_t link) {
  Link& l = links_[link];
  if (l.active++ == 0) {
    trace::Tracer& tracer = trace::Tracer::instance();
    if (tracer.enabled()) {
      const trace::SpanSite& site = link_busy_site();
      l.busy_rec = tracer.begin_span(-1, site.name_id, site.cat_id, engine_.trace_pid(),
                                     engine_.now().to_ns());
    }
  }
}

void FlowNet::link_finished(std::uint32_t link) {
  Link& l = links_[link];
  if (--l.active == 0 && l.busy_rec != trace::kNoRecord) {
    trace::Tracer::instance().end_span(-1, l.busy_rec, engine_.now().to_ns());
    l.busy_rec = trace::kNoRecord;
  }
}

Topology::Topology(sim::Engine& engine, const ClusterConfig& config)
    : engine_(engine), config_(config), net_(engine) {
  config_.validate();
  const std::size_t nodes = config_.nodes;
  const std::size_t racks = config_.racks;
  spines_ = config_.topology == TopologyKind::fat_tree ? std::max<std::size_t>(1, racks / 2) : 1;
  // Link layout: [host_up x nodes][host_down x nodes]
  //              [rack_up x racks*spines][rack_down x racks*spines];
  // flat is one switch and stops after the host links.
  for (std::size_t n = 0; n < 2 * nodes; ++n) net_.add_link(config_.nic_bandwidth);
  if (config_.topology == TopologyKind::flat) return;
  const double rack_uplink = static_cast<double>(config_.nodes_per_rack()) *
                             config_.nic_bandwidth / config_.oversubscription;
  const double plane = rack_uplink / static_cast<double>(spines_);
  for (std::size_t r = 0; r < 2 * racks * spines_; ++r) net_.add_link(plane);
}

std::uint32_t Topology::host_up(std::size_t node) const {
  return static_cast<std::uint32_t>(node);
}
std::uint32_t Topology::host_down(std::size_t node) const {
  return static_cast<std::uint32_t>(config_.nodes + node);
}
std::uint32_t Topology::rack_up(std::size_t rack, std::size_t spine) const {
  return static_cast<std::uint32_t>(2 * config_.nodes + rack * spines_ + spine);
}
std::uint32_t Topology::rack_down(std::size_t rack, std::size_t spine) const {
  return static_cast<std::uint32_t>(2 * config_.nodes + config_.racks * spines_ +
                                    rack * spines_ + spine);
}

Topology::Route Topology::route_of(std::size_t from_node, std::size_t to_node) const {
  Route r;
  if (from_node == to_node) {
    r.klass = Route::Class::intra_node;
    r.latency = config_.intra_node_latency();
    return r;
  }
  const std::size_t from_rack = config_.rack_of_node(from_node);
  const std::size_t to_rack = config_.rack_of_node(to_node);
  r.links[r.num_links++] = host_up(from_node);
  if (config_.topology == TopologyKind::flat || from_rack == to_rack) {
    r.klass = Route::Class::intra_rack;
    r.latency = config_.fabric_latency;  // one switch hop (flat's switch or the shared ToR)
  } else {
    r.klass = Route::Class::cross_rack;
    r.latency = config_.fabric_latency * 3;  // ToR -> core -> ToR
    // ECMP: the flow's uplink plane is a deterministic hash of the rack
    // pair, so repeated rack pairs collide on the same spine (fat_tree
    // spines_ > 1) exactly as static per-destination hashing would.
    const std::size_t spine =
        static_cast<std::size_t>(hash_combine(from_rack, to_rack)) % spines_;
    r.links[r.num_links++] = rack_up(from_rack, spine);
    r.links[r.num_links++] = rack_down(to_rack, spine);
  }
  r.links[r.num_links++] = host_down(to_node);
  return r;
}

void Topology::start(std::size_t from_node, std::size_t to_node, std::uint64_t bytes,
                     std::coroutine_handle<> h) {
  static Counter& msgs_intra_node = counter("net.topo.msgs.intra_node");
  static Counter& msgs_intra_rack = counter("net.topo.msgs.intra_rack");
  static Counter& msgs_cross_rack = counter("net.topo.msgs.cross_rack");
  static Counter& bytes_intra_node = counter("net.topo.bytes.intra_node");
  static Counter& bytes_intra_rack = counter("net.topo.bytes.intra_rack");
  static Counter& bytes_cross_rack = counter("net.topo.bytes.cross_rack");
  static Counter& link_bytes_host = counter("net.topo.link_bytes.host");
  static Counter& link_bytes_rack = counter("net.topo.link_bytes.rack");

  const Route r = route_of(from_node, to_node);
  switch (r.klass) {
    case Route::Class::intra_node:
      msgs_intra_node.add(1);
      bytes_intra_node.add(bytes);
      // Shared-memory transport: latency only, no link involvement.
      engine_.after(r.latency, [h] { h.resume(); });
      return;
    case Route::Class::intra_rack:
      msgs_intra_rack.add(1);
      bytes_intra_rack.add(bytes);
      link_bytes_host.add(2 * bytes);
      break;
    case Route::Class::cross_rack:
      msgs_cross_rack.add(1);
      bytes_cross_rack.add(bytes);
      link_bytes_host.add(2 * bytes);
      link_bytes_rack.add(2 * bytes);
      break;
  }
  const trace::SpanSite& site =
      r.klass == Route::Class::cross_rack ? cross_rack_site() : intra_rack_site();
  net_.transfer(std::span<const std::uint32_t>(r.links, r.num_links), bytes, site, r.latency)
      .await_suspend(h);
}

StorageNet::StorageNet(sim::Engine& engine, double capacity, double flow_cap)
    : net_(engine, flow_cap), link_(net_.add_link(capacity)) {}

FlowNet::Awaiter StorageNet::transfer(std::uint64_t bytes) {
  return net_.transfer(std::span<const std::uint32_t>(&link_, 1), bytes, storage_wait_site());
}

std::string topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::flat:
      return "flat";
    case TopologyKind::tor:
      return "tor";
    case TopologyKind::fat_tree:
      return "fat-tree";
  }
  return "?";
}

bool parse_topology_kind(const std::string& name, TopologyKind& out) {
  if (name == "flat") {
    out = TopologyKind::flat;
  } else if (name == "tor") {
    out = TopologyKind::tor;
  } else if (name == "fat-tree" || name == "fat_tree") {
    out = TopologyKind::fat_tree;
  } else {
    return false;
  }
  return true;
}

}  // namespace tio::net
