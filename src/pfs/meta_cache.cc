#include "pfs/meta_cache.h"

#include "common/stats.h"

namespace tio::pfs {

namespace {

struct MetaCacheCounters {
  Counter& hits = counter("pfs.meta_cache.hits");
  Counter& misses = counter("pfs.meta_cache.misses");
  Counter& inserts = counter("pfs.meta_cache.inserts");
  Counter& invalidations = counter("pfs.meta_cache.invalidations");
  Counter& expired = counter("pfs.meta_cache.expired");
  Counter& epoch_revoked = counter("pfs.meta_cache.epoch_revoked");
};

MetaCacheCounters& mc() {
  static MetaCacheCounters counters;
  return counters;
}

}  // namespace

const MetaCache::Entry* MetaCache::lookup(std::size_t node, PathId path,
                                          std::uint64_t group_epoch) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) {
    mc().misses.add();
    return nullptr;
  }
  const auto nit = it->second.find(node);
  if (nit == it->second.end()) {
    mc().misses.add();
    return nullptr;
  }
  Entry& e = nit->second;
  if (e.epoch != group_epoch) {
    // The serving group crashed/restarted/partitioned since this lease was
    // issued: wholesale revocation, the entry is untrustworthy.
    mc().epoch_revoked.add();
    it->second.erase(nit);
    if (it->second.empty()) entries_.erase(it);
    mc().misses.add();
    return nullptr;
  }
  if (engine_.now() >= e.expires) {
    mc().expired.add();
    it->second.erase(nit);
    if (it->second.empty()) entries_.erase(it);
    mc().misses.add();
    return nullptr;
  }
  mc().hits.add();
  return &e;
}

void MetaCache::insert(std::size_t node, PathId path, ObjectId oid, bool is_dir,
                       std::uint64_t group_epoch) {
  if (!enabled()) return;
  mc().inserts.add();
  entries_[path][node] = Entry{oid, is_dir, engine_.now() + lease_, group_epoch};
}

void MetaCache::invalidate(PathId path) {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return;
  mc().invalidations.add(it->second.size());
  entries_.erase(it);
}

}  // namespace tio::pfs
