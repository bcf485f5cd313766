#include "pfs/faulty_fs.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/stats.h"
#include "common/strutil.h"

namespace tio::pfs {

namespace {

// Bytes of trailer/record destroyed by a crash-on-close of an index file —
// enough to guarantee the integrity trailer cannot verify.
constexpr std::uint64_t kCrashTearBytes = 24;

bool is_global_index_path(std::string_view path) {
  return path.ends_with("/global.index");
}

bool prefix_covers(std::string_view prefix, std::string_view path) {
  if (!path.starts_with(prefix)) return false;
  return prefix.empty() || prefix.back() == '/' || path.size() == prefix.size() ||
         path[prefix.size()] == '/';
}

// inject() runs on every simulated backend op; resolve its counters once
// instead of paying the registry mutex + map lookup per op.
struct FaultCounters {
  Counter& ops = counter("plfs.fault.ops");
  Counter& outage_hits = counter("plfs.fault.outage_hits");
  Counter& spikes = counter("plfs.fault.spikes");
  Counter& io_error = counter("plfs.fault.io_error");
  Counter& busy = counter("plfs.fault.busy");
  Counter& stale = counter("plfs.fault.stale");
};
FaultCounters& fault_counters() {
  static FaultCounters c;
  return c;
}

}  // namespace

std::string_view op_class_name(OpClass c) {
  switch (c) {
    case OpClass::open: return "open";
    case OpClass::close: return "close";
    case OpClass::read: return "read";
    case OpClass::write: return "write";
    case OpClass::meta: return "meta";
  }
  return "unknown";
}

bool FaultPlan::enabled() const {
  if (p_torn_write > 0 || crash_close_index || !outages.empty()) return true;
  if (!server_outages.empty() || !partitions.empty()) return true;
  for (const auto& spec : ops) {
    if (spec.any()) return true;
  }
  return false;
}

FaultPlan FaultPlan::lowered_for_unreplicated() const {
  FaultPlan lowered = *this;
  for (const auto& so : lowered.server_outages) {
    lowered.outages.push_back(
        OutageWindow{"/vol" + std::to_string(so.mds), so.begin, so.end});
  }
  for (const auto& pw : lowered.partitions) {
    lowered.outages.push_back(
        OutageWindow{"/vol" + std::to_string(pw.mds), pw.begin, pw.end});
  }
  lowered.server_outages.clear();
  lowered.partitions.clear();
  return lowered;
}

Status FaultPlan::check_targets(std::size_t groups, std::size_t replicas) const {
  const auto bad_group = [groups](int g) { return static_cast<std::size_t>(g) >= groups; };
  for (const auto& so : server_outages) {
    if (bad_group(so.mds)) {
      return error(Errc::invalid, str_printf("server_outage group %d out of range (%zu groups)",
                                             so.mds, groups));
    }
    if (so.replica >= 0 && static_cast<std::size_t>(so.replica) >= replicas) {
      return error(Errc::invalid,
                   str_printf("server_outage replica %d out of range (%zu replicas)",
                              so.replica, replicas));
    }
  }
  for (const auto& pw : partitions) {
    if (bad_group(pw.mds)) {
      return error(Errc::invalid,
                   str_printf("partition group %d out of range (%zu groups)", pw.mds, groups));
    }
  }
  return Status::Ok();
}

bool FaultyFs::in_outage(const std::string& path) const {
  const TimePoint now = base_.engine().now();
  for (const auto& w : plan_.outages) {
    if (now >= w.begin && now < w.end && prefix_covers(w.path_prefix, path)) return true;
  }
  return false;
}

sim::Task<Status> FaultyFs::inject(OpClass c, const std::string& path) {
  FaultCounters& fc = fault_counters();
  fc.ops.add(1);
  if (!plan_.outages.empty() && in_outage(path)) {
    fc.outage_hits.add(1);
    co_return error(Errc::busy, "injected: MDS outage on " + path);
  }
  const FaultSpec& spec = plan_.spec(c);
  if (!spec.any()) co_return Status::Ok();
  // Draws happen in a fixed order (spike, io, busy, stale) so the consumed
  // stream depends only on the op sequence, not on which rates are set.
  if (rng_.chance(spec.p_spike)) {
    fc.spikes.add(1);
    co_await base_.engine().sleep(spec.spike);
  }
  if (rng_.chance(spec.p_io_error)) {
    fc.io_error.add(1);
    co_return error(Errc::io_error, std::string("injected: transient EIO on ") +
                                        std::string(op_class_name(c)));
  }
  if (rng_.chance(spec.p_busy)) {
    fc.busy.add(1);
    co_return error(Errc::busy, std::string("injected: transient EBUSY on ") +
                                    std::string(op_class_name(c)));
  }
  if (rng_.chance(spec.p_stale)) {
    fc.stale.add(1);
    co_return error(Errc::stale, std::string("injected: transient ESTALE on ") +
                                     std::string(op_class_name(c)));
  }
  co_return Status::Ok();
}

sim::Task<Result<FileId>> FaultyFs::open(IoCtx ctx, std::string path, OpenFlags flags) {
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::open, path));
  auto fd = co_await base_.open(ctx, path, flags);
  if (fd.ok()) tracked_[*fd] = Tracked{path, 0};
  co_return fd;
}

sim::Task<Status> FaultyFs::close(IoCtx ctx, FileId file) {
  const auto it = tracked_.find(file);
  const std::string path = it != tracked_.end() ? it->second.path : std::string();
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::close, path));
  // Crash during the close-time flush of a flattened index: the file's tail
  // never reaches stable storage. One-shot per path — a rewritten index
  // closes cleanly, so recovery by rewrite works.
  if (plan_.crash_close_index && it != tracked_.end() && it->second.write_high > 0 &&
      is_global_index_path(path) &&
      std::find(crashed_.begin(), crashed_.end(), path) == crashed_.end()) {
    crashed_.push_back(path);
    counter("plfs.fault.crash_close").add(1);
    const std::uint64_t tear = std::min(it->second.write_high, kCrashTearBytes);
    auto wrote = co_await base_.write(ctx, file, it->second.write_high - tear,
                                      DataView::zeros(tear));
    (void)wrote;
    TIO_CO_RETURN_IF_ERROR(co_await base_.close(ctx, file));
    tracked_.erase(file);
    co_return error(Errc::io_error, "injected: crash during close of " + path);
  }
  const Status st = co_await base_.close(ctx, file);
  if (st.ok()) tracked_.erase(file);
  co_return st;
}

sim::Task<Result<std::uint64_t>> FaultyFs::write(IoCtx ctx, FileId file, std::uint64_t offset,
                                                 DataView data) {
  const auto it = tracked_.find(file);
  const std::string path = it != tracked_.end() ? it->second.path : std::string();
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::write, path));
  const std::uint64_t n = data.size();
  if (n > 1 && plan_.p_torn_write > 0 && rng_.chance(plan_.p_torn_write)) {
    // Torn write: a strict prefix reaches the backend; the short count is
    // reported so the caller can resume from where the tear happened.
    const std::uint64_t k = 1 + rng_.below(n - 1);
    counter("plfs.fault.torn_writes").add(1);
    auto wrote = co_await base_.write(ctx, file, offset, data.slice(0, k));
    if (!wrote.ok()) co_return wrote;
    if (it != tracked_.end()) {
      it->second.write_high = std::max(it->second.write_high, offset + *wrote);
    }
    co_return *wrote;
  }
  auto wrote = co_await base_.write(ctx, file, offset, std::move(data));
  if (wrote.ok() && it != tracked_.end()) {
    it->second.write_high = std::max(it->second.write_high, offset + *wrote);
  }
  co_return wrote;
}

sim::Task<Result<FragmentList>> FaultyFs::read(IoCtx ctx, FileId file, std::uint64_t offset,
                                               std::uint64_t len) {
  const auto it = tracked_.find(file);
  const std::string path = it != tracked_.end() ? it->second.path : std::string();
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::read, path));
  co_return co_await base_.read(ctx, file, offset, len);
}

sim::Task<Status> FaultyFs::mkdir(IoCtx ctx, std::string path) {
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::meta, path));
  co_return co_await base_.mkdir(ctx, std::move(path));
}

sim::Task<Status> FaultyFs::unlink(IoCtx ctx, std::string path) {
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::meta, path));
  co_return co_await base_.unlink(ctx, std::move(path));
}

sim::Task<Result<StatInfo>> FaultyFs::stat(IoCtx ctx, std::string path) {
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::meta, path));
  co_return co_await base_.stat(ctx, std::move(path));
}

sim::Task<Result<std::vector<DirEntry>>> FaultyFs::readdir(IoCtx ctx, std::string path) {
  TIO_CO_RETURN_IF_ERROR(co_await inject(OpClass::meta, path));
  co_return co_await base_.readdir(ctx, std::move(path));
}

// --- plan parsing ---

namespace {

bool parse_f64(std::string_view v, double* out) {
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc{} && p == v.data() + v.size() && *out >= 0.0;
}

bool parse_u64(std::string_view v, std::uint64_t* out) {
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc{} && p == v.data() + v.size();
}

bool parse_op_class(std::string_view name, OpClass* out) {
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    if (name == op_class_name(static_cast<OpClass>(i))) {
      *out = static_cast<OpClass>(i);
      return true;
    }
  }
  return false;
}

void set_all(FaultPlan& plan, double FaultSpec::* field, double p) {
  for (auto& spec : plan.ops) spec.*field = p;
}

bool apply_preset(std::string_view name, FaultPlan& plan) {
  if (name == "none") {
    plan = FaultPlan{};
    return true;
  }
  if (name == "transient1") {
    // 1% total transient failure rate on every operation class.
    set_all(plan, &FaultSpec::p_io_error, 0.005);
    set_all(plan, &FaultSpec::p_busy, 0.005);
    return true;
  }
  if (name == "stress") {
    // Metadata-storm stress: random transients on everything, latency
    // spikes, torn writes, a crash-on-close of the flattened index, and a
    // 150 ms outage of the /vol1 namespace starting at t=100 ms. The
    // window is shorter than the default retry policy's cumulative
    // backoff, so a patient client rides it out.
    set_all(plan, &FaultSpec::p_io_error, 0.002);
    set_all(plan, &FaultSpec::p_busy, 0.005);
    set_all(plan, &FaultSpec::p_stale, 0.001);
    set_all(plan, &FaultSpec::p_spike, 0.002);
    for (auto& spec : plan.ops) spec.spike = Duration::ms(20);
    plan.p_torn_write = 0.01;
    plan.crash_close_index = true;
    plan.outages.push_back(OutageWindow{"/vol1", TimePoint::from_ns(Duration::ms(100).to_ns()),
                                        TimePoint::from_ns(Duration::ms(250).to_ns())});
    return true;
  }
  if (name == "failover") {
    // Crash the leader of metadata group 1 for 150 ms starting at
    // t=100 ms — the "leader crash at create-storm peak" scenario. Under
    // --mds_replication=none the testbed lowers it to a /vol1 outage.
    plan.server_outages.push_back(ServerOutage{1, -1,
                                               TimePoint::from_ns(Duration::ms(100).to_ns()),
                                               TimePoint::from_ns(Duration::ms(250).to_ns())});
    return true;
  }
  if (name == "partition") {
    // Isolate (rather than crash) the leader of group 1 for the same
    // window: the group must elect around a live-but-unreachable leader,
    // which rejoins and steps down when the partition heals.
    plan.partitions.push_back(PartitionWindow{1,
                                              TimePoint::from_ns(Duration::ms(100).to_ns()),
                                              TimePoint::from_ns(Duration::ms(250).to_ns())});
    return true;
  }
  return false;
}

// Parses the "@START-END" window suffix (virtual milliseconds) shared by
// the outage grammars. `value` is everything after the '@'.
bool parse_window(std::string_view value, TimePoint* begin, TimePoint* end) {
  const std::size_t dash = value.find('-');
  if (dash == std::string_view::npos) return false;
  double begin_ms = 0.0;
  double end_ms = 0.0;
  if (!parse_f64(value.substr(0, dash), &begin_ms) ||
      !parse_f64(value.substr(dash + 1), &end_ms) || end_ms < begin_ms) {
    return false;
  }
  *begin = TimePoint::from_ns(Duration::seconds(begin_ms * 1e-3).to_ns());
  *end = TimePoint::from_ns(Duration::seconds(end_ms * 1e-3).to_ns());
  return true;
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  double spike_ms = -1.0;
  for (const auto item : split(spec, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      if (!apply_preset(item, plan)) {
        return error(Errc::invalid, "fault plan: unknown preset '" + std::string(item) + "'");
      }
      continue;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    const auto bad = [&] {
      return error(Errc::invalid, "fault plan: bad value for '" + std::string(key) +
                                      "': " + std::string(value));
    };
    double p = 0.0;
    std::uint64_t u = 0;
    if (key == "seed") {
      if (!parse_u64(value, &u)) return bad();
      plan.seed = u;
    } else if (key == "io") {
      if (!parse_f64(value, &p)) return bad();
      set_all(plan, &FaultSpec::p_io_error, p);
    } else if (key == "busy") {
      if (!parse_f64(value, &p)) return bad();
      set_all(plan, &FaultSpec::p_busy, p);
    } else if (key == "stale") {
      if (!parse_f64(value, &p)) return bad();
      set_all(plan, &FaultSpec::p_stale, p);
    } else if (key == "spike") {
      if (!parse_f64(value, &p)) return bad();
      set_all(plan, &FaultSpec::p_spike, p);
    } else if (key == "spike_ms") {
      if (!parse_f64(value, &p)) return bad();
      spike_ms = p;
    } else if (key == "torn") {
      if (!parse_f64(value, &p)) return bad();
      plan.p_torn_write = p;
    } else if (key == "crash_close_index") {
      if (!parse_u64(value, &u) || u > 1) return bad();
      plan.crash_close_index = u == 1;
    } else if (key == "outage") {
      // PREFIX@START-END in virtual milliseconds.
      const std::size_t at = value.find('@');
      const std::size_t dash = value.find('-', at == std::string_view::npos ? 0 : at);
      if (at == std::string_view::npos || dash == std::string_view::npos) return bad();
      double begin_ms = 0.0;
      double end_ms = 0.0;
      if (!parse_f64(value.substr(at + 1, dash - at - 1), &begin_ms) ||
          !parse_f64(value.substr(dash + 1), &end_ms) || end_ms < begin_ms) {
        return bad();
      }
      plan.outages.push_back(OutageWindow{
          std::string(value.substr(0, at)),
          TimePoint::from_ns(Duration::seconds(begin_ms * 1e-3).to_ns()),
          TimePoint::from_ns(Duration::seconds(end_ms * 1e-3).to_ns())});
    } else if (key == "server_outage") {
      // G:R@START-END; R is a replica index or "leader".
      const std::size_t colon = value.find(':');
      const std::size_t at = value.find('@');
      if (colon == std::string_view::npos || at == std::string_view::npos || at < colon) {
        return bad();
      }
      ServerOutage so;
      if (!parse_u64(value.substr(0, colon), &u)) return bad();
      so.mds = static_cast<int>(u);
      const std::string_view rep = value.substr(colon + 1, at - colon - 1);
      if (rep == "leader") {
        so.replica = -1;
      } else {
        if (!parse_u64(rep, &u)) return bad();
        so.replica = static_cast<int>(u);
      }
      if (!parse_window(value.substr(at + 1), &so.begin, &so.end)) return bad();
      plan.server_outages.push_back(so);
    } else if (key == "partition") {
      // G@START-END.
      const std::size_t at = value.find('@');
      if (at == std::string_view::npos) return bad();
      PartitionWindow pw;
      if (!parse_u64(value.substr(0, at), &u)) return bad();
      pw.mds = static_cast<int>(u);
      if (!parse_window(value.substr(at + 1), &pw.begin, &pw.end)) return bad();
      plan.partitions.push_back(pw);
    } else {
      OpClass c;
      const std::size_t dot = key.find('.');
      if (dot == std::string_view::npos || !parse_op_class(key.substr(0, dot), &c)) {
        return error(Errc::invalid, "fault plan: unknown key '" + std::string(key) + "'");
      }
      const std::string_view field = key.substr(dot + 1);
      if (!parse_f64(value, &p)) return bad();
      FaultSpec& s = plan.spec(c);
      if (field == "io") {
        s.p_io_error = p;
      } else if (field == "busy") {
        s.p_busy = p;
      } else if (field == "stale") {
        s.p_stale = p;
      } else if (field == "spike") {
        s.p_spike = p;
      } else {
        return error(Errc::invalid, "fault plan: unknown field '" + std::string(field) + "'");
      }
    }
  }
  if (spike_ms >= 0.0) {
    for (auto& s : plan.ops) s.spike = Duration::seconds(spike_ms * 1e-3);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  // Emits the same key=value grammar parse() accepts, so a plan can be
  // logged and replayed verbatim. The grammar only expresses one spike
  // duration (spike_ms applies to every class), which matches everything
  // the presets and the flag syntax can produce.
  std::string out = str_printf("seed=%llu", static_cast<unsigned long long>(seed));
  double spike_ms = -1.0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    const FaultSpec& s = ops[i];
    if (!s.any()) continue;
    const std::string c(op_class_name(static_cast<OpClass>(i)));
    if (s.p_io_error > 0) out += str_printf(",%s.io=%g", c.c_str(), s.p_io_error);
    if (s.p_busy > 0) out += str_printf(",%s.busy=%g", c.c_str(), s.p_busy);
    if (s.p_stale > 0) out += str_printf(",%s.stale=%g", c.c_str(), s.p_stale);
    if (s.p_spike > 0) {
      out += str_printf(",%s.spike=%g", c.c_str(), s.p_spike);
      spike_ms = s.spike.to_ms();
    }
  }
  if (spike_ms >= 0.0) out += str_printf(",spike_ms=%g", spike_ms);
  if (p_torn_write > 0) out += str_printf(",torn=%g", p_torn_write);
  if (crash_close_index) out += ",crash_close_index=1";
  for (const auto& w : outages) {
    out += str_printf(",outage=%s@%.0f-%.0f", w.path_prefix.c_str(),
                      (w.begin - TimePoint()).to_ms(), (w.end - TimePoint()).to_ms());
  }
  for (const auto& so : server_outages) {
    const std::string rep = so.replica < 0 ? "leader" : std::to_string(so.replica);
    out += str_printf(",server_outage=%d:%s@%.0f-%.0f", so.mds, rep.c_str(),
                      (so.begin - TimePoint()).to_ms(), (so.end - TimePoint()).to_ms());
  }
  for (const auto& pw : partitions) {
    out += str_printf(",partition=%d@%.0f-%.0f", pw.mds,
                      (pw.begin - TimePoint()).to_ms(), (pw.end - TimePoint()).to_ms());
  }
  return out;
}

}  // namespace tio::pfs
