#include "mpisim/comm.h"

#include <algorithm>
#include <numeric>

namespace tio::mpi {

Comm Comm::world(Runtime& rt, int rank) {
  // The world group is identical on every rank; build it once per runtime.
  if (rt.world_group_ == nullptr) {
    auto group = std::make_shared<Group>();
    group->context = 1;
    group->members.resize(rt.nprocs());
    for (int i = 0; i < rt.nprocs(); ++i) group->members[i] = i;
    rt.world_group_ = std::move(group);
  }
  return Comm(rt, std::static_pointer_cast<const Group>(rt.world_group_), rank);
}

sim::Task<void> Comm::send_any(int dest, int tag, std::any payload, std::uint64_t bytes) {
  check_rank(dest);
  co_await engine().sleep(rt_->send_overhead());
  co_await rt_->cluster().fabric_transfer(my_node(), rt_->node_of(group_->members[dest]), bytes);
  rt_->mailbox({group_->context, dest, my_index_, tag}).push(std::move(payload));
}

sim::Task<std::any> Comm::recv_any(int src, int tag) {
  check_rank(src);
  const Runtime::MailboxKey key{group_->context, my_index_, src, tag};
  std::any payload = co_await rt_->mailbox(key).pop();
  rt_->gc_mailbox(key);
  co_return payload;
}

sim::Task<void> Comm::barrier() {
  const int tag = next_op_tag();
  const int n = size();
  // Dissemination barrier: ceil(log2 n) rounds of shifted exchanges.
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    const int to = (rank() + dist) % n;
    const int from = (rank() - dist + n) % n;
    co_await send_any(to, tag + round, std::any(0), 8);
    (void)co_await recv_any(from, tag + round);
  }
}

std::shared_ptr<const RankGroups> Comm::rank_groups(bool by_node) const {
  auto& slot = by_node ? group_->node_groups : group_->single_groups;
  if (slot != nullptr) return slot;
  auto groups = std::make_shared<RankGroups>();
  const int n = size();
  groups->group_of.resize(static_cast<std::size_t>(n));
  std::vector<int> dense;  // node -> group id, -1 until seen
  if (by_node) dense.assign(rt_->cluster().config().nodes, -1);
  for (int r = 0; r < n; ++r) {
    int g = r;
    if (by_node) {
      int& id = dense[node_of_rank(r)];
      if (id < 0) id = static_cast<int>(groups->members.size());
      g = id;
    }
    if (g == static_cast<int>(groups->members.size())) groups->members.emplace_back();
    groups->group_of[static_cast<std::size_t>(r)] = g;
    groups->members[static_cast<std::size_t>(g)].push_back(r);
  }
  slot = std::move(groups);
  return slot;
}

Comm::SplitResult Comm::partition(const std::vector<SplitEntry>& entries,
                                  std::uint32_t op) const {
  const int n = size();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&entries](int a, int b) {
    const SplitEntry& x = entries[static_cast<std::size_t>(a)];
    const SplitEntry& y = entries[static_cast<std::size_t>(b)];
    if (x.color != y.color) return x.color < y.color;
    if (x.key != y.key) return x.key < y.key;
    return a < b;
  });
  SplitResult result;
  result.place.resize(static_cast<std::size_t>(n));
  result.pending = n;
  std::shared_ptr<Group> group;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int r = order[i];
    const int color = entries[static_cast<std::size_t>(r)].color;
    if (i == 0 || color != entries[static_cast<std::size_t>(order[i - 1])].color) {
      group = std::make_shared<Group>();
      // Context derivation must be collision-free across sibling subcomms
      // or their mailboxes cross-talk: pack (op, color) injectively, then
      // mix the whole thing through splitmix64 (hash_combine alone has
      // systematic collisions between adjacent op counters).
      const std::uint64_t packed =
          (static_cast<std::uint64_t>(op) << 32) ^ static_cast<std::uint32_t>(color);
      group->context =
          splitmix64(group_->context ^ splitmix64(packed ^ 0x9e3779b97f4a7c15ull));
      result.groups.push_back(group);
    }
    result.place[static_cast<std::size_t>(r)] = {static_cast<int>(result.groups.size()) - 1,
                                                 static_cast<int>(group->members.size())};
    group->members.push_back(group_->members[static_cast<std::size_t>(r)]);
  }
  return result;
}

sim::Task<Comm> Comm::split(int color, int key) {
  // An allgather of (color, key), costed as gather + bcast like any other;
  // the bcast carries one shared vector instead of a copy per rank.
  const SplitEntry mine{color, key};
  auto gathered = co_await gather(0, mine, sizeof(SplitEntry));
  std::shared_ptr<const std::vector<SplitEntry>> entries;
  if (rank() == 0) entries = std::make_shared<const std::vector<SplitEntry>>(std::move(gathered));
  entries = co_await bcast(0, std::move(entries),
                           sizeof(SplitEntry) * static_cast<std::uint64_t>(size()));
  // The first rank out of the exchange partitions the whole comm once;
  // everyone adopts their slot from the parent's memo.
  auto it = group_->splits.find(op_counter_);
  if (it == group_->splits.end()) {
    it = group_->splits.emplace(op_counter_, partition(*entries, op_counter_)).first;
  }
  SplitResult& result = it->second;
  const auto [g, index] = result.place[static_cast<std::size_t>(rank())];
  Comm sub(*rt_, result.groups[static_cast<std::size_t>(g)], index);
  if (--result.pending == 0) group_->splits.erase(it);
  co_return sub;
}

}  // namespace tio::mpi
