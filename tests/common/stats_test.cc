#include "common/stats.h"

#include <gtest/gtest.h>

namespace tio {
namespace {

TEST(Counters, RegistryIsNamedAndPersistent) {
  Counter& c = counter("test.stats.alpha");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same counter.
  EXPECT_EQ(&counter("test.stats.alpha"), &c);
  EXPECT_EQ(counter("test.stats.alpha").value(), 42u);
}

TEST(Counters, SnapshotFiltersByPrefixAndSortsByName) {
  counter("test.snap.b").reset();
  counter("test.snap.a").reset();
  counter("test.snap.a").add(1);
  counter("test.snap.b").add(2);
  const auto snap = counter_snapshot("test.snap.");
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "test.snap.a");
  EXPECT_EQ(snap[0].second, 1u);
  EXPECT_EQ(snap[1].first, "test.snap.b");
  EXPECT_EQ(snap[1].second, 2u);
  // Unmatched prefix -> empty.
  EXPECT_TRUE(counter_snapshot("test.snap.nothing").empty());
}

TEST(Grouping, NameInGroupIsDotBoundaryAware) {
  EXPECT_TRUE(name_in_group("plfs.index.builds", "plfs.index"));
  EXPECT_TRUE(name_in_group("plfs.index", "plfs.index"));  // exact match
  // The regression this API exists for: "plfs.index" must not swallow the
  // sibling group "plfs.index_cache".
  EXPECT_FALSE(name_in_group("plfs.index_cache.hits", "plfs.index"));
  EXPECT_FALSE(name_in_group("plfs.indexing", "plfs.index"));
  // A trailing dot requests a raw prefix match (legacy callers).
  EXPECT_TRUE(name_in_group("plfs.index_cache.hits", "plfs.index_cache."));
  EXPECT_FALSE(name_in_group("plfs.index_cache.hits", "plfs.index."));
  // Empty prefix matches everything.
  EXPECT_TRUE(name_in_group("anything.at.all", ""));
}

TEST(Grouping, CounterSnapshotUsesDotBoundaries) {
  counter("test.group.a").reset();
  counter("test.group.a").add(1);
  counter("test.group_extra.b").reset();
  counter("test.group_extra.b").add(2);
  const auto snap = counter_snapshot("test.group");
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "test.group.a");
  const auto both = counter_snapshot("test.group_extra");
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].first, "test.group_extra.b");
}

TEST(Histograms, RecordAndExactPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.percentile(0), 1);
  EXPECT_EQ(h.percentile(50), 50);
  EXPECT_EQ(h.percentile(90), 90);
  EXPECT_EQ(h.percentile(99), 99);
  EXPECT_EQ(h.percentile(100), 100);
}

TEST(Histograms, SingleSampleAndEmpty) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0);  // empty -> 0, not a crash
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.record(7);
  EXPECT_EQ(h.percentile(0), 7);
  EXPECT_EQ(h.percentile(100), 7);
}

TEST(Histograms, NegativeSamplesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(Histograms, RegistryAndSnapshotAndReset) {
  Histogram& h = histogram("test.hist.alpha");
  h.reset();
  h.record(5);
  EXPECT_EQ(&histogram("test.hist.alpha"), &h);
  const auto snap = histogram_snapshot("test.hist");
  ASSERT_GE(snap.size(), 1u);
  bool found = false;
  for (const auto& [name, hp] : snap) {
    if (name == "test.hist.alpha") {
      found = true;
      EXPECT_EQ(hp->count(), 1u);
    }
  }
  EXPECT_TRUE(found);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
}

}  // namespace
}  // namespace tio
