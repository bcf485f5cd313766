// Request grouping for the collective-buffering exchange.
//
// Kang et al. ("Improving MPI Collective I/O Performance With Intra-node
// Request Aggregation") observe that classic two-phase I/O ships every
// process's request list across the fabric even though most co-resident
// processes could have combined them for free: intra-node transport is
// orders of magnitude cheaper than a NIC crossing. Their fix is a grouping
// step in front of the ordinary exchange — each node elects a leader that
// coalesces its co-residents' requests, so the fabric then carries
// `nodes x aggregators` messages instead of `ranks x aggregators`.
//
// The collective layer runs one exchange over a NodePlan: the grouping is
// either by physical node (the Kang et al. step) or per rank, where every
// rank leads a group of one and the exchange degenerates to classic
// two-phase's direct point-to-point sends (ROMIO). The layout comes purely
// from the communicator's placement knowledge, with no communication. It
// spans the whole communicator, so it is built once per communicator
// (mpi::Comm::rank_groups) and shared by all of its ranks; a plan adds only
// the caller's own group.
#pragma once

#include <memory>
#include <vector>

#include "mpisim/comm.h"

namespace tio::iolib {

// Grouping view of a communicator. Group ids are dense indices, in order
// of first appearance by comm rank (with node grouping under block
// placement that is ascending physical node order; per rank, group id ==
// comm rank). The leader of a group is its lowest comm rank.
struct NodePlan {
  std::shared_ptr<const mpi::RankGroups> layout;  // shared by the comm's ranks
  int my_group = 0;                               // dense group id of the caller

  // Groups ranks by physical node when `by_node`, else one group per rank.
  static NodePlan of(const mpi::Comm& comm, bool by_node);

  int num_groups() const { return static_cast<int>(layout->members.size()); }
  const std::vector<int>& members(int group) const { return layout->members[group]; }
  int leader_of(int group) const { return members(group)[0]; }
  int leader_of_rank(int rank) const { return leader_of(layout->group_of[rank]); }
  bool is_leader(int rank) const { return leader_of_rank(rank) == rank; }
};

}  // namespace tio::iolib
