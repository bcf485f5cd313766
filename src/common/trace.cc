#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>

#include "common/jsonfmt.h"

namespace tio::trace {

namespace {

// This thread's active PidScope block; see PidScope.
struct TlsPidBlock {
  std::uint32_t next = 0;
  std::uint32_t end = 0;
  bool active = false;
};
thread_local TlsPidBlock t_pid_block;

}  // namespace

Tracer& Tracer::instance() {
  static auto* t = new Tracer();  // leaked: spans may outlive static dtors
  return *t;
}

void Tracer::clear() {
  for (Shard& shard : shards_) {
    shard.buffers.clear();
    shard.next_seq = 0;
  }
  pid_counter_.store(0, std::memory_order_relaxed);
}

std::uint32_t Tracer::intern(std::string_view s) {
  // Linear scan: interning happens once per call site (SpanSite is static
  // at the call site), and the set of distinct span names is small.
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == s) return i;
  }
  names_.emplace_back(s);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

const std::string& Tracer::interned(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_[id];  // deque element: the reference outlives the lock
}

Tracer::RankBuffer& Tracer::buffer_for(Shard& shard, int rank) {
  const auto idx = static_cast<std::size_t>(rank < 0 ? 0 : rank + 1);
  if (idx >= shard.buffers.size()) shard.buffers.resize(idx + 1);
  return shard.buffers[idx];
}

std::uint32_t Tracer::begin_span(int rank, std::uint32_t name_id, std::uint32_t cat_id,
                                 std::uint32_t pid, std::int64_t start_ns) {
  Shard& shard = shards_[stat_shard()];
  RankBuffer& buf = buffer_for(shard, rank);
  SpanRecord rec;
  rec.name_id = name_id;
  rec.cat_id = cat_id;
  rec.start_ns = start_ns;
  rec.pid = pid;
  rec.seq = shard.next_seq++;
  // Parent = innermost span of the same rank that is still open *on the
  // same engine*: a fresh rig reuses rank numbers, and its spans must not
  // nest under a finished rig's leftovers.
  rec.parent = 0;
  rec.depth = 0;
  if (!buf.open.empty()) {
    const SpanRecord& top = buf.spans[buf.open.back()];
    if (top.pid == pid) {
      rec.parent = buf.open.back() + 1;
      rec.depth = top.depth + 1;
    }
  }
  const auto index = static_cast<std::uint32_t>(buf.spans.size());
  buf.spans.push_back(rec);
  buf.open.push_back(index);
  return index;
}

void Tracer::end_span(int rank, std::uint32_t record, std::int64_t end_ns) {
  RankBuffer& buf = buffer_for(shards_[stat_shard()], rank);
  if (record >= buf.spans.size()) return;
  buf.spans[record].end_ns = end_ns;
  // Spans close LIFO per rank in well-formed code; tolerate out-of-order
  // ends (e.g. a moved-from span) by erasing wherever the record sits.
  for (auto it = buf.open.rbegin(); it != buf.open.rend(); ++it) {
    if (*it == record) {
      buf.open.erase(std::next(it).base());
      break;
    }
  }
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    for (const RankBuffer& b : shard.buffers) n += b.spans.size();
  }
  return n;
}

const std::vector<SpanRecord>& Tracer::rank_spans(int rank) const {
  static const std::vector<SpanRecord> empty;
  const Shard& shard = shards_[stat_shard()];
  const auto idx = static_cast<std::size_t>(rank < 0 ? 0 : rank + 1);
  if (idx >= shard.buffers.size()) return empty;
  return shard.buffers[idx].spans;
}

std::uint32_t Tracer::next_pid() {
  if (t_pid_block.active) {
    if (t_pid_block.next >= t_pid_block.end) {
      throw std::length_error("Tracer::next_pid: PidScope block exhausted");
    }
    return t_pid_block.next++;
  }
  return pid_counter_.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t Tracer::reserve_pids(std::uint32_t count) {
  return pid_counter_.fetch_add(count, std::memory_order_relaxed);
}

PidScope::PidScope(std::uint32_t base, std::uint32_t count)
    : prev_next_(t_pid_block.next), prev_end_(t_pid_block.end),
      prev_active_(t_pid_block.active) {
  t_pid_block = {base, base + count, true};
}

PidScope::~PidScope() { t_pid_block = {prev_next_, prev_end_, prev_active_}; }

std::string Tracer::to_chrome_json() const {
  // Complete ("ph":"X") events; ts/dur are microseconds by the format's
  // definition, emitted with ns resolution. Locale-independent throughout.
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    out += "\n";
    out += ev;
    first = false;
  };
  // Name the rank tracks once per (pid, tid) so Perfetto labels them.
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> named;
  const auto emit_name = [&](std::uint32_t pid, std::uint32_t tid) {
    if (named[{pid, tid}]) return;
    named[{pid, tid}] = true;
    const std::string track =
        tid == 0 ? std::string("engine") : "rank " + std::to_string(tid - 1);
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":" + json_quote(track) +
         "}}");
  };
  const auto emit_event = [&](const SpanRecord& rec, std::uint32_t tid) {
    emit("{\"name\":" + json_quote(names_[rec.name_id]) +
         ",\"cat\":" + json_quote(names_[rec.cat_id]) +
         ",\"ph\":\"X\",\"ts\":" + json_double(static_cast<double>(rec.start_ns) / 1e3, 3) +
         ",\"dur\":" + json_double(static_cast<double>(rec.end_ns - rec.start_ns) / 1e3, 3) +
         ",\"pid\":" + std::to_string(rec.pid) + ",\"tid\":" + std::to_string(tid) + "}");
  };

  // Merge every shard's buffers under a total order that does not depend
  // on shard placement or host-thread timing. (pid, tid) pairs are unique
  // to one shard (an engine runs on one thread), so the shard-local seq is
  // a complete tie-break within a track.
  struct Entry {
    const SpanRecord* rec;
    std::uint32_t tid;
  };
  std::vector<Entry> entries;
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < shard.buffers.size(); ++b) {
      const auto tid = static_cast<std::uint32_t>(b);
      for (const SpanRecord& rec : shard.buffers[b].spans) {
        if (rec.end_ns < rec.start_ns) continue;  // never closed
        entries.push_back({&rec, tid});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tuple(a.rec->pid, a.tid, a.rec->start_ns, a.rec->seq) <
           std::tuple(b.rec->pid, b.tid, b.rec->start_ns, b.rec->seq);
  });
  for (const Entry& e : entries) {
    emit_name(e.rec->pid, e.tid);
    emit_event(*e.rec, e.tid);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace tio::trace
