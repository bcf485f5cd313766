#include "iolib/node_agg.h"

namespace tio::iolib {

NodePlan NodePlan::of(const mpi::Comm& comm, bool by_node) {
  NodePlan plan;
  plan.layout = comm.rank_groups(by_node);
  plan.my_group = plan.layout->group_of[comm.rank()];
  return plan;
}

}  // namespace tio::iolib
