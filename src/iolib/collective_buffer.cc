#include "iolib/collective_buffer.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/stats.h"
#include "common/trace.h"
#include "iolib/node_agg.h"
#include "mpisim/tag_registry.h"
#include "pfs/extent_map.h"

namespace tio::iolib {

namespace {

// Tags come from the central registry (mpisim/tag_registry.h), which
// statically asserts the blocks are pairwise disjoint and stay below the
// collective-tag base. Successive collective-buffer operations are
// separated by their trailing barrier, so tag reuse across operations can
// never cross-match.
constexpr int kCbTagIntraW = mpi::kCbIntraTags.base;     // member -> leader, write chunks
constexpr int kCbTagIntraR = mpi::kCbIntraTags.base + 1; // member -> leader, read pieces
constexpr int kCbTagShipW = mpi::kCbShipWriteTags.base;  // leader -> aggregator, merged chunks (+ j)
constexpr int kCbTagShipR = mpi::kCbShipReadTags.base;   // leader -> aggregator, merged ranges (+ j)
constexpr int kCbTagAggReply = mpi::kCbAggReplyTags.base;  // aggregator -> leader, run data (+ j)
constexpr int kCbTagFanout = mpi::kCbFanoutTags.base;    // leader -> member, piece slices

// Observability (PR idiom: resolve the registry once, count relaxed).
// fabric_msgs/local_msgs census every payload message this layer moves,
// classified at the send site; bytes_shipped counts file data (+16-byte
// chunk headers on the write path) whose source and consumer sit on
// different nodes — the volume that must cross a NIC at least once.
struct CbCounters {
  Counter& writes = counter("iolib.cb.writes");
  Counter& reads = counter("iolib.cb.reads");
  Counter& fabric_msgs = counter("iolib.cb.fabric_msgs");
  Counter& local_msgs = counter("iolib.cb.local_msgs");
  Counter& bytes_shipped = counter("iolib.cb.bytes_shipped");
  Counter& write_runs = counter("iolib.cb.write.runs");
  Counter& read_runs = counter("iolib.cb.read.runs");
  Counter& pfs_ops = counter("iolib.cb.pfs_ops");
  Counter& sieve_joins = counter("iolib.cb.sieve_joins");
  Counter& sieve_hole_bytes = counter("iolib.cb.sieve_hole_bytes");
  Counter& node_reqs_in = counter("iolib.cb.node_reqs_in");
  Counter& node_reqs_out = counter("iolib.cb.node_reqs_out");
};

CbCounters& cbc() {
  static CbCounters counters;
  return counters;
}

struct Extent {
  std::uint64_t lo = ~0ull;
  std::uint64_t hi = 0;
};

sim::Task<Extent> global_extent(mpi::Comm& comm, Extent mine) {
  co_return co_await comm.allreduce(mine, 16, [](Extent a, Extent b) {
    return Extent{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  });
}

// Domain of aggregator j: an even split of [lo, hi).
std::pair<std::uint64_t, std::uint64_t> domain_of(const Extent& e, int j, int num) {
  const std::uint64_t span = e.hi - e.lo;
  const std::uint64_t start = e.lo + span * static_cast<std::uint64_t>(j) / num;
  const std::uint64_t end = e.lo + span * (static_cast<std::uint64_t>(j) + 1) / num;
  return {start, end};
}

// Splits [offset, offset+len) across aggregator domains, invoking
// fn(j, piece_offset, piece_len) for each piece in order.
template <typename Fn>
void split_over_domains(const Extent& ext, int num_aggs, std::uint64_t offset,
                        std::uint64_t len, Fn&& fn) {
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;
  while (pos < end) {
    int j = static_cast<int>(static_cast<unsigned __int128>(pos - ext.lo) * num_aggs /
                             (ext.hi - ext.lo));
    j = std::min(j, num_aggs - 1);
    auto [d_lo, d_hi] = domain_of(ext, j, num_aggs);
    while (pos >= d_hi && j + 1 < num_aggs) {  // guard integer-division edges
      ++j;
      std::tie(d_lo, d_hi) = domain_of(ext, j, num_aggs);
    }
    const std::uint64_t take = std::min(end, d_hi) - pos;
    fn(j, pos, take);
    pos += take;
  }
}

// Per-aggregator lists in one flat buffer: aggregator j's items are
// items[start[j], start[j + 1]), in the order they were split.
template <class T>
struct PerAgg {
  std::vector<std::uint32_t> start;  // num_aggs + 1 offsets into items
  std::vector<T> items;
  std::span<T> of(int j) {
    return {items.data() + start[j], items.data() + start[j + 1]};
  }
  std::span<const T> of(int j) const {
    return {items.data() + start[j], items.data() + start[j + 1]};
  }
};

// Splits each of `n` requests over the aggregator domains: range_of(i)
// gives request i's (offset, len), make(i, pos, take) builds one piece. A
// counting pass sizes the buffer, then a second pass fills it, so the
// pieces of one aggregator keep request order.
template <class T, class RangeOf, class Make>
PerAgg<T> split_all(const Extent& ext, int num_aggs, std::size_t n, RangeOf range_of,
                    Make make) {
  PerAgg<T> out;
  out.start.assign(static_cast<std::size_t>(num_aggs) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [off, len] = range_of(i);
    split_over_domains(ext, num_aggs, off, len,
                       [&](int j, std::uint64_t, std::uint64_t) { ++out.start[j + 1]; });
  }
  for (int j = 0; j < num_aggs; ++j) out.start[j + 1] += out.start[j];
  std::vector<std::uint32_t> cursor(out.start.begin(), out.start.end() - 1);
  out.items.resize(out.start.back());
  for (std::size_t i = 0; i < n; ++i) {
    const auto [off, len] = range_of(i);
    split_over_domains(ext, num_aggs, off, len, [&](int j, std::uint64_t pos, std::uint64_t take) {
      out.items[cursor[j]++] = make(i, pos, take);
    });
  }
  return out;
}

// Sorts `ranges` by offset and merges overlapping or touching ones: the
// union as sorted, disjoint, non-adjacent runs.
void coalesce(std::vector<CbRange>& ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const CbRange& a, const CbRange& b) { return a.offset < b.offset; });
  std::size_t n = 0;
  for (const CbRange& r : ranges) {
    if (n > 0 && ranges[n - 1].offset + ranges[n - 1].len >= r.offset) {
      CbRange& last = ranges[n - 1];
      last.len = std::max(last.offset + last.len, r.offset + r.len) - last.offset;
    } else {
      ranges[n++] = r;
    }
  }
  ranges.resize(n);
}

// Drains an extent map into its coalesced runs as chunks.
std::vector<CbChunk> chunks_of(pfs::ExtentMap& map) {
  std::vector<CbChunk> out;
  out.reserve(map.extent_count());
  for (const auto& leaf : map.leaves()) {
    for (const pfs::Extent& e : leaf) out.push_back(CbChunk{e.offset, e.data});
  }
  return out;
}

// Who does what in one exchange. Pure placement arithmetic: the group
// layout is shared by the comm's ranks, the rest is O(aggregators) per rank.
struct Roles {
  int num_aggs = 0;
  std::vector<int> aggs;  // aggregator slot j -> comm rank
  NodePlan plan;          // request groups: per node or per rank
  int leader = 0;         // the caller's group leader
  int my_j = -1;          // the slot the caller aggregates, or -1
};

Roles roles_of(const mpi::Comm& comm, const CbConfig& config) {
  Roles r;
  r.num_aggs = cb_num_aggregators(config, comm);
  r.aggs.resize(static_cast<std::size_t>(r.num_aggs));
  for (int j = 0; j < r.num_aggs; ++j) {
    r.aggs[static_cast<std::size_t>(j)] = cb_aggregator_rank(j, r.num_aggs, comm.size());
    if (r.aggs[static_cast<std::size_t>(j)] == comm.rank()) r.my_j = j;
  }
  r.plan = NodePlan::of(comm, config.node_aggregation);
  r.leader = r.plan.leader_of(r.plan.my_group);
  return r;
}

// Classifies and counts one payload message from the caller to `dst`;
// `data_bytes` feeds bytes_shipped when the hop crosses nodes.
void note_msg(const mpi::Comm& comm, int dst, std::uint64_t data_bytes) {
  if (comm.my_node() == comm.node_of_rank(dst)) {
    cbc().local_msgs.add();
  } else {
    cbc().fabric_msgs.add();
    cbc().bytes_shipped.add(data_bytes);
  }
}

// Aggregator read staging: sieve the requested runs (sorted, disjoint,
// non-adjacent, as coalesce() leaves them), read each group in
// buffer_bytes-capped operations, stage into `staged` (short reads leave
// holes; ExtentMap zero-fills them on read).
sim::Task<Status> stage_runs(const std::vector<CbRange>& runs, const CbConfig& config,
                             const ReadFn& read_at, pfs::ExtentMap* staged) {
  cbc().read_runs.add(runs.size());
  CbSieveStats sieve;
  const std::vector<CbRange> groups = cb_sieve_groups(runs, config.sieve_threshold, &sieve);
  cbc().sieve_joins.add(sieve.joins);
  cbc().sieve_hole_bytes.add(sieve.hole_bytes);
  for (const auto& g : groups) {
    std::uint64_t pos = g.offset;
    const std::uint64_t end = g.offset + g.len;
    while (pos < end) {
      const std::uint64_t take = std::min<std::uint64_t>(config.buffer_bytes, end - pos);
      cbc().pfs_ops.add();
      auto data = co_await read_at(pos, take);
      if (!data.ok()) co_return data.status();
      std::uint64_t at = pos;
      for (const auto& frag : data->fragments()) {
        staged->write(at, frag);
        at += frag.size();
      }
      // Short read (EOF): the remainder stays as holes (zeros).
      pos += take;
    }
  }
  co_return Status::Ok();
}

}  // namespace

int cb_aggregator_rank(int j, int num_aggregators, int comm_size) {
  return static_cast<int>(static_cast<std::int64_t>(j) * comm_size / num_aggregators);
}

int cb_num_aggregators(const CbConfig& config, const mpi::Comm& comm) {
  if (config.aggregators > 0) return std::min(config.aggregators, comm.size());
  const auto per_node =
      static_cast<int>(comm.runtime().cluster().config().cores_per_node);
  return std::max(1, comm.size() / std::max(1, per_node));
}

Status cb_validate(const CbConfig& config) {
  if (config.buffer_bytes == 0) return error(Errc::invalid, "cb: buffer_bytes must be > 0");
  if (config.aggregators < 0) return error(Errc::invalid, "cb: aggregators must be >= 0");
  if (!std::isfinite(config.sieve_threshold) || config.sieve_threshold < 0) {
    return error(Errc::invalid, "cb: sieve_threshold must be finite and >= 0");
  }
  return Status::Ok();
}

std::vector<CbRange> cb_sieve_groups(const std::vector<CbRange>& runs, double threshold,
                                     CbSieveStats* stats) {
  if (threshold <= 0 || runs.size() < 2) return runs;
  std::vector<CbRange> out;
  out.reserve(runs.size());
  CbRange cur = runs[0];
  std::uint64_t holes = 0;   // hole bytes inside the current group
  std::uint64_t useful = runs[0].len;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const CbRange& next = runs[i];
    const std::uint64_t hole = next.offset - (cur.offset + cur.len);
    const std::uint64_t joined_holes = holes + hole;
    const std::uint64_t joined_useful = useful + next.len;
    if (static_cast<double>(joined_holes) <=
        threshold * static_cast<double>(joined_useful)) {
      cur.len = next.offset + next.len - cur.offset;
      holes = joined_holes;
      useful = joined_useful;
      if (stats != nullptr) {
        ++stats->joins;
        stats->hole_bytes += hole;
      }
    } else {
      out.push_back(cur);
      cur = next;
      holes = 0;
      useful = next.len;
    }
  }
  out.push_back(cur);
  return out;
}

sim::Task<Status> cb_write(mpi::Comm& comm, const CbConfig& config, std::vector<CbChunk> mine,
                           const WriteFn& write_at) {
  static const trace::SpanSite kWindow("iolib.cb", "cb.write");
  static const trace::SpanSite kMeta("iolib.cb.phase", "cb.write.meta");
  static const trace::SpanSite kGather("iolib.cb.phase", "cb.write.gather");
  static const trace::SpanSite kShuffle("iolib.cb.phase", "cb.write.shuffle");
  static const trace::SpanSite kPfs("iolib.cb.phase", "cb.write.pfs");
  static const trace::SpanSite kSync("iolib.cb.phase", "cb.write.sync");
  TIO_CO_RETURN_IF_ERROR(cb_validate(config));
  sim::Engine& engine = comm.engine();
  const int grank = comm.global_rank();
  trace::Span window(engine, kWindow, grank);
  if (comm.rank() == 0) cbc().writes.add();

  Extent local;
  for (const auto& c : mine) {
    local.lo = std::min(local.lo, c.offset);
    local.hi = std::max(local.hi, c.offset + c.data.size());
  }
  Extent ext;
  {
    trace::Span meta(engine, kMeta, grank);
    ext = co_await global_extent(comm, local);
  }
  if (ext.hi <= ext.lo) {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
    co_return Status::Ok();
  }
  const auto [num_aggs, aggs, plan, leader, my_j] = roles_of(comm, config);
  const int me = comm.rank();

  // Split my chunks across aggregator domains.
  PerAgg<CbChunk> split = split_all<CbChunk>(
      ext, num_aggs, mine.size(),
      [&mine](std::size_t i) { return std::pair(mine[i].offset, mine[i].data.size()); },
      [&mine](std::size_t i, std::uint64_t pos, std::uint64_t take) {
        return CbChunk{pos, mine[i].data.slice(pos - mine[i].offset, take)};
      });
  mine = {};  // the pieces hold their own views
  std::vector<std::vector<CbChunk>> outgoing(num_aggs);  // leader only: merged, per aggregator

  pfs::ExtentMap staged;

  // Phase 0: group members hand their per-aggregator chunk lists to the
  // group leader over the latency-only intra-node transport; the leader
  // coalesces them per aggregator domain (members merge in comm-rank
  // order, preserving last-writer-wins for overlapping records under
  // block placement). A per-rank group has no members: nothing moves.
  {
    trace::Span gather(engine, kGather, grank);
    if (me != leader) {
      std::uint64_t bytes = 0;
      for (const auto& c : split.items) bytes += c.data.size() + 16;
      note_msg(comm, leader, bytes);
      co_await comm.send(leader, kCbTagIntraW, std::move(split), bytes);
    } else {
      std::vector<pfs::ExtentMap> merged(num_aggs);
      std::uint64_t chunks_in = 0;
      const auto merge = [&merged, &chunks_in, num_aggs](PerAgg<CbChunk>& part) {
        chunks_in += part.items.size();
        for (int j = 0; j < num_aggs; ++j) {
          for (auto& c : part.of(j)) merged[j].write(c.offset, std::move(c.data));
        }
      };
      merge(split);
      const std::vector<int>& residents = plan.members(plan.my_group);
      for (std::size_t i = 1; i < residents.size(); ++i) {
        auto theirs = co_await comm.recv<PerAgg<CbChunk>>(residents[i], kCbTagIntraW);
        merge(theirs);
      }
      cbc().node_reqs_in.add(chunks_in);
      for (int j = 0; j < num_aggs; ++j) {
        outgoing[j] = chunks_of(merged[j]);
        cbc().node_reqs_out.add(outgoing[j].size());
      }
    }
  }

  // Phase 1: the exchange — exactly groups x aggregators messages
  // (leaders always send, so aggregators know what to expect).
  {
    trace::Span shuffle(engine, kShuffle, grank);
    if (me == leader) {
      for (int j = 0; j < num_aggs; ++j) {
        const int dst = aggs[static_cast<std::size_t>(j)];
        std::uint64_t bytes = 0;
        for (const auto& c : outgoing[j]) bytes += c.data.size() + 16;
        note_msg(comm, dst, bytes);
        co_await comm.send(dst, kCbTagShipW + j, std::move(outgoing[j]), bytes);
      }
    }
    if (my_j >= 0) {
      for (int group = 0; group < plan.num_groups(); ++group) {
        auto part = co_await comm.recv<std::vector<CbChunk>>(plan.leader_of(group),
                                                             kCbTagShipW + my_j);
        for (auto& c : part) staged.write(c.offset, std::move(c.data));
      }
    }
  }

  // Phase 2: aggregators issue large contiguous writes, capped at
  // buffer_bytes per operation. A failed write ends the aggregator's
  // writes but not its part in the barrier, so no peer waits on it; each
  // rank returns its own status.
  Status st = Status::Ok();
  {
    trace::Span pfs(engine, kPfs, grank);
    if (my_j >= 0) {
      for (const auto& leaf : staged.leaves()) {
        for (const pfs::Extent& run : leaf) {
          if (!st.ok()) break;
          cbc().write_runs.add();
          std::uint64_t pos = 0;
          while (st.ok() && pos < run.data.size()) {
            const std::uint64_t take = std::min<std::uint64_t>(config.buffer_bytes,
                                                               run.data.size() - pos);
            cbc().pfs_ops.add();
            st = co_await write_at(run.offset + pos, run.data.slice(pos, take));
            pos += take;
          }
        }
      }
    }
  }
  {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
  }
  co_return st;
}

sim::Task<Status> cb_read(mpi::Comm& comm, const CbConfig& config, std::vector<CbRange> wants,
                          const ReadFn& read_at, std::vector<FragmentList>* out) {
  static const trace::SpanSite kWindow("iolib.cb", "cb.read");
  static const trace::SpanSite kMeta("iolib.cb.phase", "cb.read.meta");
  static const trace::SpanSite kGather("iolib.cb.phase", "cb.read.gather");
  static const trace::SpanSite kShuffle("iolib.cb.phase", "cb.read.shuffle");
  static const trace::SpanSite kPfs("iolib.cb.phase", "cb.read.pfs");
  static const trace::SpanSite kReply("iolib.cb.phase", "cb.read.reply");
  static const trace::SpanSite kSync("iolib.cb.phase", "cb.read.sync");
  TIO_CO_RETURN_IF_ERROR(cb_validate(config));
  sim::Engine& engine = comm.engine();
  const int grank = comm.global_rank();
  trace::Span window(engine, kWindow, grank);
  if (comm.rank() == 0) cbc().reads.add();

  out->assign(wants.size(), FragmentList{});
  Extent local;
  for (const auto& w : wants) {
    local.lo = std::min(local.lo, w.offset);
    local.hi = std::max(local.hi, w.offset + w.len);
  }
  Extent ext;
  {
    trace::Span meta(engine, kMeta, grank);
    ext = co_await global_extent(comm, local);
  }
  if (ext.hi <= ext.lo) {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
    co_return Status::Ok();
  }
  const auto [num_aggs, aggs, plan, leader, my_j] = roles_of(comm, config);
  const int me = comm.rank();

  // A request piece as shipped to an aggregator.
  struct Piece {
    std::uint32_t want;  // index into the requester's `wants`
    std::uint64_t offset;
    std::uint64_t len;
  };
  // A reply or fan-out: one slice per run or piece, and the status of the
  // aggregator read that staged them.
  struct Slices {
    Status status;
    std::vector<FragmentList> data;
  };
  PerAgg<Piece> outgoing = split_all<Piece>(
      ext, num_aggs, wants.size(),
      [&wants](std::size_t i) { return std::pair(wants[i].offset, wants[i].len); },
      [](std::size_t i, std::uint64_t pos, std::uint64_t take) {
        return Piece{static_cast<std::uint32_t>(i), pos, take};
      });

  // A failed aggregator read still answers every requester: its status
  // rides the replies and the leaders' fan-outs, so every rank reaches the
  // barrier, and each rank in a group that asked it for data returns the
  // failure.
  Status st = Status::Ok();
  // The exchange's buffers live in this block and are released before the
  // trailing barrier; holding them through it raises the peak footprint.
  {
    // Members keep their piece lists: the leader replies with slices in the
    // same flattened (j-ascending, then list) order.
    const PerAgg<Piece> my_pieces = me != leader ? outgoing : PerAgg<Piece>{};
    // Reassembles one rank's (piece, data) pairs into `out`: one sort by
    // (want, offset), zero-padding pieces the aggregator could not fully
    // satisfy. A want's first piece moves in whole.
    const auto assemble = [out](std::vector<std::pair<Piece, FragmentList>>& pieces) {
      std::sort(pieces.begin(), pieces.end(), [](const auto& a, const auto& b) {
        return a.first.want != b.first.want ? a.first.want < b.first.want
                                            : a.first.offset < b.first.offset;
      });
      for (auto& [p, fl] : pieces) {
        FragmentList& dst = (*out)[p.want];
        const std::uint64_t got = fl.size();
        if (dst.empty()) {
          dst = std::move(fl);
        } else {
          for (const auto& frag : fl.fragments()) dst.append(frag);
        }
        if (got < p.len) dst.append(DataView::zeros(p.len - got));
      }
    };

    // Phase 0: group members hand piece lists to the group leader, which
    // coalesces them into per-aggregator run lists.
    std::vector<PerAgg<Piece>> member_pieces;               // leader only
    std::vector<std::vector<CbRange>> group_runs(num_aggs);  // leader only
    {
      trace::Span gather(engine, kGather, grank);
      if (me != leader) {
        const std::uint64_t pieces = outgoing.items.size();
        note_msg(comm, leader, 0);
        co_await comm.send(leader, kCbTagIntraR, std::move(outgoing), pieces * 24);
      } else {
        const std::vector<int>& residents = plan.members(plan.my_group);
        member_pieces.resize(residents.size());
        member_pieces[0] = std::move(outgoing);
        for (std::size_t i = 1; i < residents.size(); ++i) {
          member_pieces[i] = co_await comm.recv<PerAgg<Piece>>(residents[i], kCbTagIntraR);
        }
        std::uint64_t pieces_in = 0;
        std::vector<CbRange> runs;  // scratch, reused per aggregator
        for (int j = 0; j < num_aggs; ++j) {
          runs.clear();
          for (const auto& member : member_pieces) {
            for (const Piece& p : member.of(j)) runs.push_back(CbRange{p.offset, p.len});
          }
          pieces_in += runs.size();
          coalesce(runs);
          group_runs[j].assign(runs.begin(), runs.end());
          cbc().node_reqs_out.add(runs.size());
        }
        cbc().node_reqs_in.add(pieces_in);
      }
    }

    // Phase 1: leaders ship merged run lists — exactly groups x aggregators
    // request messages; aggregators merge and stage the union.
    std::vector<std::vector<CbRange>> agg_requests;  // aggregator only, per group
    {
      trace::Span shuffle(engine, kShuffle, grank);
      if (me == leader) {
        for (int j = 0; j < num_aggs; ++j) {
          const int dst = aggs[static_cast<std::size_t>(j)];
          note_msg(comm, dst, 0);
          co_await comm.send(dst, kCbTagShipR + j, group_runs[j], group_runs[j].size() * 24);
        }
      }
      if (my_j >= 0) {
        agg_requests.resize(plan.num_groups());
        for (int group = 0; group < plan.num_groups(); ++group) {
          agg_requests[group] = co_await comm.recv<std::vector<CbRange>>(
              plan.leader_of(group), kCbTagShipR + my_j);
        }
      }
    }

    pfs::ExtentMap staged;  // aggregator only
    if (my_j >= 0) {
      std::size_t total = 0;
      for (const auto& per_group : agg_requests) total += per_group.size();
      std::vector<CbRange> runs;
      runs.reserve(total);
      for (const auto& per_group : agg_requests) {
        runs.insert(runs.end(), per_group.begin(), per_group.end());
      }
      coalesce(runs);
      trace::Span pfs(engine, kPfs, grank);
      st = co_await stage_runs(runs, config, read_at, &staged);
    }

    // Phase 2: aggregators answer each requesting leader with data for its
    // runs; leaders restage and fan slices out to their members.
    {
      trace::Span reply_span(engine, kReply, grank);
      if (my_j >= 0) {
        for (int group = 0; group < plan.num_groups(); ++group) {
          if (agg_requests[group].empty()) continue;
          Slices reply{st, {}};
          reply.data.reserve(agg_requests[group].size());
          std::uint64_t reply_bytes = 0;
          for (const auto& r : agg_requests[group]) {
            reply.data.push_back(staged.read(r.offset, r.len));
            reply_bytes += reply.data.back().size();
          }
          note_msg(comm, plan.leader_of(group), reply_bytes);
          co_await comm.send(plan.leader_of(group), kCbTagAggReply + my_j, std::move(reply),
                             reply_bytes);
        }
      }
      if (me == leader) {
        pfs::ExtentMap restaged;
        for (int j = 0; j < num_aggs; ++j) {
          if (group_runs[j].empty()) continue;
          const int root = aggs[static_cast<std::size_t>(j)];
          auto reply = co_await comm.recv<Slices>(root, kCbTagAggReply + j);
          if (st.ok()) st = reply.status;
          for (std::size_t i = 0; i < group_runs[j].size(); ++i) {
            std::uint64_t at = group_runs[j][i].offset;
            for (const auto& frag : reply.data[i].fragments()) {
              restaged.write(at, frag);
              at += frag.size();
            }
          }
        }
        const std::vector<int>& residents = plan.members(plan.my_group);
        for (std::size_t i = 1; i < residents.size(); ++i) {
          Slices slices{st, {}};
          slices.data.reserve(member_pieces[i].items.size());
          std::uint64_t bytes = 0;
          for (const Piece& p : member_pieces[i].items) {
            slices.data.push_back(restaged.read(p.offset, p.len));
            bytes += slices.data.back().size();
          }
          note_msg(comm, residents[i], bytes);
          co_await comm.send(residents[i], kCbTagFanout, std::move(slices), bytes);
        }
        // The leader's own pieces, straight out of the restaged map.
        std::vector<std::pair<Piece, FragmentList>> mine;
        mine.reserve(member_pieces[0].items.size());
        for (const Piece& p : member_pieces[0].items) {
          mine.emplace_back(p, restaged.read(p.offset, p.len));
        }
        assemble(mine);
      } else {
        auto slices = co_await comm.recv<Slices>(leader, kCbTagFanout);
        if (st.ok()) st = slices.status;
        std::vector<std::pair<Piece, FragmentList>> mine;
        mine.reserve(my_pieces.items.size());
        for (std::size_t k = 0; k < my_pieces.items.size(); ++k) {
          mine.emplace_back(my_pieces.items[k], std::move(slices.data[k]));
        }
        assemble(mine);
      }
    }
  }
  {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
  }
  co_return st;
}

}  // namespace tio::iolib
