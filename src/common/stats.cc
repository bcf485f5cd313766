#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace tio {

namespace {

thread_local unsigned t_stat_shard = 0;

// Shared nearest-rank index computation: for n samples and p in [0, 100],
// the nearest-rank of p is ceil(p/100 * n) (1-based), clamped to [1, n] so
// p = 0 picks the first sorted sample and p = 100 the last — exact for
// every n including n = 1.
std::size_t nearest_rank_index(double p, std::size_t n) {
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

}  // namespace

void set_stat_shard(unsigned shard) {
  if (shard >= kMaxShards) {
    throw std::invalid_argument("set_stat_shard: shard id out of range");
  }
  t_stat_shard = shard;
}

unsigned stat_shard() { return t_stat_shard; }

void Counter::raise_to(std::uint64_t v) {
  std::atomic<std::uint64_t>& max = cells_[0].v;
  std::uint64_t cur = max.load(std::memory_order_relaxed);
  while (v > cur && !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.samples.size();
  return n;
}

std::int64_t Histogram::sum() const {
  std::int64_t s = 0;
  for (const Cell& c : cells_) {
    for (const std::int64_t v : c.samples) s += v;
  }
  return s;
}

const std::vector<std::int64_t>& Histogram::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = count();
  if (sorted_count_ != n) {
    sorted_cache_.clear();
    sorted_cache_.reserve(n);
    for (const Cell& c : cells_) {
      sorted_cache_.insert(sorted_cache_.end(), c.samples.begin(), c.samples.end());
    }
    // A sorted multiset is placement-independent: the merged view is the
    // same whichever shard recorded which sample.
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_count_ = n;
  }
  return sorted_cache_;
}

std::int64_t Histogram::min() const {
  const auto& xs = merged();
  return xs.empty() ? 0 : xs.front();
}

std::int64_t Histogram::max() const {
  const auto& xs = merged();
  return xs.empty() ? 0 : xs.back();
}

std::int64_t Histogram::percentile(double p) const {
  const auto& xs = merged();
  if (xs.empty()) return 0;
  return xs[nearest_rank_index(p, xs.size())];
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Cell& c : cells_) c.samples.clear();
  sorted_cache_.clear();
  sorted_count_ = ~std::uint64_t{0};
}

bool name_in_group(std::string_view name, std::string_view prefix) {
  if (prefix.empty()) return true;
  if (!name.starts_with(prefix)) return false;
  if (name.size() == prefix.size()) return true;
  return prefix.back() == '.' || name[prefix.size()] == '.';
}

namespace {

struct Registries {
  std::mutex mu;
  // std::map: stable addresses for the registered objects and sorted
  // snapshots.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registries& registry() {
  static auto* r = new Registries();  // leaked: registrations outlive everything
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot(std::string_view prefix) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, c] : r.counters) {
    if (name_in_group(name, prefix)) out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> histogram_snapshot(
    std::string_view prefix) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& [name, h] : r.histograms) {
    if (name_in_group(name, prefix)) out.emplace_back(name, h.get());
  }
  return out;
}

}  // namespace tio
