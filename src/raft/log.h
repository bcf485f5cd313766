// Raft replicated log with snapshot-based compaction.
//
// Entries are held as shared_ptr<const LogEntry> so that replication
// fan-out and the apply path on every replica reference the same immutable
// record without copies: a follower appends the leader's pointer, so every
// replica holding a committed index holds the same LogEntry object. A
// compacted entry stays alive as long as any in-flight AppendEntries still
// carries it. Indices are 1-based as in the paper; index 0 is the (empty)
// snapshot point of a fresh log.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pfs/types.h"

namespace tio::raft {

using Term = std::uint64_t;
using Index = std::uint64_t;

struct Reply;  // a submitting client's wait slot (raft.cc)

struct LogEntry {
  Term term = 0;
  std::optional<pfs::MetaBatch> cmd;  // nullopt = leader no-op barrier entry
  std::uint64_t bytes = 0;            // simulated serialized size on the wire
  std::int64_t append_ns = -1;        // leader-side append time (replication span)
  // The submitting client's wait slot, created by the leader before it
  // appends. Whichever replica applies the entry group-wide writes the
  // result there. Weak: the slot lives only as long as its waiter (the
  // client and the leader's waiter table), so no log keeps a result alive.
  std::weak_ptr<Reply> reply;
};

class Log {
 public:
  Index snapshot_index() const { return snap_index_; }
  Term snapshot_term() const { return snap_term_; }
  Index first_index() const { return snap_index_ + 1; }
  Index last_index() const { return snap_index_ + entries_.size(); }
  Term last_term() const { return entries_.empty() ? snap_term_ : entries_.back()->term; }
  std::size_t size() const { return entries_.size(); }

  bool has(Index i) const { return i > snap_index_ && i <= last_index(); }

  Term term_at(Index i) const {
    if (i == snap_index_) return snap_term_;
    if (!has(i)) throw std::out_of_range("raft::Log::term_at");
    return entries_[i - snap_index_ - 1]->term;
  }

  const std::shared_ptr<const LogEntry>& at(Index i) const {
    if (!has(i)) throw std::out_of_range("raft::Log::at");
    return entries_[i - snap_index_ - 1];
  }

  void append(std::shared_ptr<const LogEntry> e) { entries_.push_back(std::move(e)); }

  // Drops [i, last_index]; used when a follower finds a term conflict.
  void truncate_from(Index i) {
    if (i <= snap_index_) throw std::logic_error("raft::Log: truncating into snapshot");
    if (i > last_index()) return;
    entries_.resize(i - snap_index_ - 1);
  }

  // Drops entries up to and including `i`; `i` becomes the snapshot point.
  void compact_to(Index i, Term t) {
    if (i <= snap_index_) return;
    if (i > last_index()) throw std::logic_error("raft::Log: compacting past the log");
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(i - snap_index_));
    snap_index_ = i;
    snap_term_ = t;
  }

  // InstallSnapshot on a follower whose log conflicts with (or predates)
  // the snapshot: discard everything and adopt the snapshot point.
  void reset_to_snapshot(Index i, Term t) {
    entries_.clear();
    snap_index_ = i;
    snap_term_ = t;
  }

 private:
  Index snap_index_ = 0;
  Term snap_term_ = 0;
  std::vector<std::shared_ptr<const LogEntry>> entries_;
};

}  // namespace tio::raft
