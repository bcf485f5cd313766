#include "mpisim/runtime.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "mpisim/comm.h"

namespace tio::mpi {

Runtime::Runtime(net::Cluster& cluster, int nprocs) : cluster_(cluster), nprocs_(nprocs) {
  if (nprocs <= 0) throw std::invalid_argument("Runtime: nprocs must be positive");
}

std::size_t Runtime::node_of(int rank) const {
  const auto& cfg = cluster_.config();
  return (static_cast<std::size_t>(rank) / cfg.cores_per_node) % cfg.nodes;
}

std::size_t Runtime::rack_of(int rank) const {
  return cluster_.config().rack_of_node(node_of(rank));
}

sim::Queue<std::any>& Runtime::mailbox(const MailboxKey& key) {
  // Mailboxes (and their recycling lists) belong to one engine and are
  // unsynchronized; all ranks of a runtime must run on that engine's shard.
  assert(engine().is_current() && "Runtime::mailbox used off its engine's shard");
  auto& slot = mailboxes_[key];
  if (slot == nullptr) {
    if (!idle_queues_.empty()) {
      slot = idle_queues_.back();
      idle_queues_.pop_back();
    } else {
      all_queues_.push_back(std::make_unique<sim::Queue<std::any>>(engine()));
      slot = all_queues_.back().get();
    }
  }
  return *slot;
}

void Runtime::gc_mailbox(const MailboxKey& key) {
  sim::Queue<std::any>* const* slot = mailboxes_.find(key);
  if (slot != nullptr && (*slot)->idle()) {
    idle_queues_.push_back(*slot);
    mailboxes_.erase(key);
  }
}

void run_spmd(net::Cluster& cluster, int nprocs,
              const std::function<sim::Task<void>(Comm)>& rank_main) {
  Runtime rt(cluster, nprocs);
  std::vector<char> finished(static_cast<std::size_t>(nprocs), 0);
  for (int r = 0; r < nprocs; ++r) {
    cluster.engine().spawn([](sim::Task<void> main, char& done) -> sim::Task<void> {
      co_await std::move(main);
      done = 1;
    }(rank_main(Comm::world(rt, r)), finished[static_cast<std::size_t>(r)]));
  }
  cluster.engine().run();
  // The queue is empty, so nothing can resume a rank still suspended: it
  // waits on a peer that returned without meeting it.
  constexpr int kNamed = 8;
  int stranded = 0;
  std::string names;
  for (int r = 0; r < nprocs; ++r) {
    if (finished[static_cast<std::size_t>(r)]) continue;
    if (++stranded <= kNamed) names += (stranded == 1 ? "" : ", ") + std::to_string(r);
  }
  if (stranded == 0) return;
  throw std::runtime_error("run_spmd: " + std::to_string(stranded) + " of " +
                           std::to_string(nprocs) +
                           " ranks never returned (stranded in a collective or receive): " +
                           names + (stranded > kNamed ? ", ..." : ""));
}

}  // namespace tio::mpi
