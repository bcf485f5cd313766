#include "common/stats.h"

#include <gtest/gtest.h>

namespace tio {
namespace {

TEST(Series, MeanAndSum) {
  Series s;
  s.add(1);
  s.add(2);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Series, StddevOfConstantIsZero) {
  Series s;
  for (int i = 0; i < 5; ++i) s.add(7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Series, SampleStddev) {
  Series s;  // {2, 4, 4, 4, 5, 5, 7, 9}: sample stddev = sqrt(32/7)
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.stddev(), 2.138089935, 1e-9);
}

TEST(Series, StddevOfSingleSampleIsZero) {
  Series s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Series, MinMax) {
  Series s;
  for (double v : {5.0, -1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Series, Percentiles) {
  Series s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Series, PercentileEdgeCases) {
  // n = 1: every percentile is the lone sample.
  Series one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 42.0);
  // Out-of-range p clamps instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(one.percentile(-10), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(1000), 42.0);
  // n = 2: nearest-rank p50 is the lower sample, p51 the upper.
  Series two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(two.percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(two.percentile(51), 20.0);
  EXPECT_DOUBLE_EQ(two.percentile(100), 20.0);
}

TEST(Series, PercentileCacheInvalidatedByAdd) {
  Series s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);  // builds the sorted cache
  s.add(10.0);                               // must invalidate it
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Series, EmptyThrows) {
  Series s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

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
  EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(Histograms, BucketBoundaries) {
  // bucket_of: 0 -> 0; v in [2^(b-1), 2^b) -> b.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of((std::int64_t{1} << 62)), 63);
  // bucket_min is the left edge bucket_of maps back to. Bucket 64 is
  // excluded: its left edge (2^63) is not representable as int64, so no
  // int64 sample can land there.
  for (int b = 1; b < Histogram::kBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_min(b)), b) << "bucket " << b;
    if (b > 1) {
      EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_min(b) - 1), b - 1) << "bucket " << b;
    }
  }
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
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
