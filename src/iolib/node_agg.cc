#include "iolib/node_agg.h"

#include <unordered_map>

namespace tio::iolib {

NodePlan NodePlan::build(const mpi::Comm& comm, bool by_node) {
  NodePlan plan;
  const int n = comm.size();
  plan.group_of.resize(n);
  std::unordered_map<std::size_t, int> dense;  // group key -> dense id
  dense.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const std::size_t key = by_node ? comm.node_of_rank(r) : static_cast<std::size_t>(r);
    auto [it, inserted] = dense.emplace(key, static_cast<int>(plan.members.size()));
    if (inserted) plan.members.emplace_back();
    plan.group_of[r] = it->second;
    plan.members[it->second].push_back(r);
  }
  plan.my_group = plan.group_of[comm.rank()];
  return plan;
}

}  // namespace tio::iolib
