// Differential tests: pfs::Namespace (the path table) against
// TreeNamespace (the string-keyed tree it replaced). Seeded random
// sequences of every operation over a small alphabet, so paths collide,
// directories fill and empty, files sit where directories are expected,
// parents go missing and unlinked paths come back; raw paths carry "//",
// "/./" and trailing slashes. Every result must match the oracle: status
// code, ObjectId and created flag, readdir list (names in byte order) and
// entry count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "pfs/namespace.h"
#include "tree_namespace.h"

namespace tio::pfs {
namespace {

// A raw path of 0-4 components from a colliding alphabet, spelled with the
// separators path_normalize folds away.
std::string random_path(Rng& rng) {
  static const char* const kNames[] = {"a", "b", "B", "vol1", "vol2", "d.0", "a0", "zz"};
  const auto depth = rng.below(5);
  std::string out = rng.below(4) == 0 ? "//" : "/";
  for (std::uint64_t i = 0; i < depth; ++i) {
    if (i > 0) out += rng.below(6) == 0 ? "/./" : (rng.below(6) == 0 ? "//" : "/");
    out += kNames[rng.below(std::size(kNames))];
  }
  if (depth > 0 && rng.below(5) == 0) out += "/";
  return out;
}

void run_sequence(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Namespace ns;
  test::TreeNamespace tree;
  for (int i = 0; i < ops; ++i) {
    const std::string path = random_path(rng);
    const auto op = rng.below(10);
    SCOPED_TRACE("seed " + std::to_string(seed) + " op " + std::to_string(i) + " kind " +
                 std::to_string(op) + " path " + path);
    switch (op) {
      case 0:
      case 1: {
        const bool excl = rng.below(2) == 0;
        const auto got = ns.create_file(path, excl);
        const auto want = tree.create_file(path, excl);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) {
          EXPECT_EQ(got->oid, want->oid);
          EXPECT_EQ(got->created, want->created);
        }
        break;
      }
      case 2:
        ASSERT_EQ(ns.mkdir(path).code(), tree.mkdir(path).code());
        break;
      case 3:
        ASSERT_EQ(ns.mkdir_all(path).code(), tree.mkdir_all(path).code());
        break;
      case 4:
      case 5: {
        const auto got = ns.unlink(path);
        const auto want = tree.unlink(path);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) {
          EXPECT_EQ(got.value(), want.value());
        }
        break;
      }
      case 6: {
        const auto got = ns.lookup(path);
        const auto want = tree.lookup(path);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) {
          EXPECT_EQ(got->is_dir, want->is_dir);
          EXPECT_EQ(got->oid, want->oid);
        }
        break;
      }
      case 7:
        ASSERT_EQ(ns.exists(path), tree.exists(path));
        break;
      case 8: {
        const auto got = ns.readdir(path);
        const auto want = tree.readdir(path);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) {
          EXPECT_EQ(*got, *want);
        }
        break;
      }
      default:
        ASSERT_EQ(ns.dir_entry_count(path), tree.dir_entry_count(path));
        break;
    }
    // An interned path's cached length and reconstructed spelling are the
    // normalized path's.
    const PathId id = ns.find(path);
    if (id != kNoPath) {
      EXPECT_EQ(ns.path_of(id), path_normalize(path));
      EXPECT_EQ(ns.path_length(id), path_normalize(path).size());
    }
  }
  EXPECT_EQ(ns.next_object_id(), tree.create_file("/__probe__", true)->oid);
}

TEST(NamespaceDiff, RandomSequencesMatchTheTree) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_sequence(seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(NamespaceDiff, LongSequenceMatchesTheTree) { run_sequence(0xdecafbad, 20000); }

// The cases the random walk reaches only by luck, spelled out.
TEST(NamespaceDiff, IntermediateFileAndMissingParentErrors) {
  Namespace ns;
  test::TreeNamespace tree;
  for (const char* p : {"/d", "/d/sub"}) {
    ASSERT_TRUE(ns.mkdir(p).ok());
    ASSERT_TRUE(tree.mkdir(p).ok());
  }
  ASSERT_TRUE(ns.create_file("/d/f", true).ok());
  ASSERT_TRUE(tree.create_file("/d/f", true).ok());
  // A file used as a directory is not_a_directory; a missing parent is
  // not_found, whichever comes first on the way down.
  EXPECT_EQ(ns.create_file("/d/f/x", false).status().code(), Errc::not_a_directory);
  EXPECT_EQ(ns.create_file("/d/f/x/y", false).status().code(), Errc::not_a_directory);
  EXPECT_EQ(ns.mkdir("/d/f/x/y").code(), Errc::not_a_directory);
  EXPECT_EQ(ns.create_file("/d/missing/x", false).status().code(), Errc::not_found);
  EXPECT_EQ(ns.unlink("/missing/f/x").status().code(), Errc::not_found);
  for (const char* p : {"/d/f/x", "/d/f/x/y", "/d/missing/x", "/missing/f/x", "/d/f", "/",
                        "//d//sub/./new", "/d/sub/"}) {
    SCOPED_TRACE(p);
    EXPECT_EQ(ns.create_file(p, false).status().code(),
              tree.create_file(p, false).status().code());
    EXPECT_EQ(ns.mkdir(p).code(), tree.mkdir(p).code());
    EXPECT_EQ(ns.mkdir_all(p).code(), tree.mkdir_all(p).code());
    EXPECT_EQ(ns.unlink(p).status().code(), tree.unlink(p).status().code());
    EXPECT_EQ(ns.readdir(p).status().code(), tree.readdir(p).status().code());
  }
}

TEST(NamespaceDiff, UnlinkedPathKeepsItsIdAndComesBackWithAFreshOid) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  const auto first = ns.create_file("/d/f", true);
  ASSERT_TRUE(first.ok());
  const PathId id = ns.find("/d/f");
  ASSERT_TRUE(ns.unlink("/d/f").ok());
  EXPECT_FALSE(ns.exists("/d/f"));
  EXPECT_EQ(ns.find("/d/f"), id);  // ids are never reused or dropped
  EXPECT_EQ(ns.dir_entry_count("/d"), 0u);
  const auto again = ns.create_file("/d/f", true);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->oid, first->oid);
  EXPECT_EQ(ns.find("/d/f"), id);
  EXPECT_EQ(ns.dir_entry_count(ns.find("/d")), 1u);
}

TEST(NamespaceDiff, LookupsNeverIntern) {
  Namespace ns;
  const std::size_t before = ns.interned();
  EXPECT_FALSE(ns.exists("/a/b/c"));
  EXPECT_FALSE(ns.lookup("/a/b").ok());
  EXPECT_FALSE(ns.readdir("/a").ok());
  EXPECT_EQ(ns.dir_entry_count("/a"), 0u);
  EXPECT_EQ(ns.find("/a"), kNoPath);
  EXPECT_EQ(ns.interned(), before);
}

}  // namespace
}  // namespace tio::pfs
