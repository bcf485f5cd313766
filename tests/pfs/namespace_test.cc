#include "pfs/namespace.h"

#include <gtest/gtest.h>

namespace tio::pfs {
namespace {

TEST(Namespace, RootExistsAndIsEmpty) {
  Namespace ns;
  EXPECT_TRUE(ns.exists("/"));
  auto entries = ns.readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(Namespace, MkdirAndLookup) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.mkdir("/a/b").ok());
  auto e = ns.lookup("/a/b");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->is_dir);
}

TEST(Namespace, MkdirMissingParentFails) {
  Namespace ns;
  EXPECT_EQ(ns.mkdir("/a/b").code(), Errc::not_found);
}

TEST(Namespace, MkdirExistingFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  EXPECT_EQ(ns.mkdir("/a").code(), Errc::exists);
}

TEST(Namespace, MkdirAllCreatesChain) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir_all("/x/y/z").ok());
  EXPECT_TRUE(ns.exists("/x/y/z"));
  // Idempotent.
  ASSERT_TRUE(ns.mkdir_all("/x/y/z").ok());
}

TEST(Namespace, MkdirAllThroughFileFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.mkdir_all("/f/sub").code(), Errc::not_a_directory);
}

TEST(Namespace, CreateFileAllocatesDistinctObjectIds) {
  Namespace ns;
  auto a = ns.create_file("/a", true);
  auto b = ns.create_file("/b", true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->created);
  EXPECT_NE(a->oid, b->oid);
  EXPECT_NE(a->oid, kNoObject);
}

TEST(Namespace, CreateExistingExclFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/a", true).ok());
  EXPECT_EQ(ns.create_file("/a", true).status().code(), Errc::exists);
}

TEST(Namespace, CreateExistingNonExclReturnsSameOid) {
  Namespace ns;
  auto first = ns.create_file("/a", false);
  auto again = ns.create_file("/a", false);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->created);
  EXPECT_EQ(again->oid, first->oid);
}

TEST(Namespace, CreateOverDirectoryFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.create_file("/d", false).status().code(), Errc::is_a_directory);
}

TEST(Namespace, LookupMissingIsNotFound) {
  Namespace ns;
  EXPECT_EQ(ns.lookup("/nope").status().code(), Errc::not_found);
  EXPECT_EQ(ns.lookup("/a/b/c").status().code(), Errc::not_found);
}

TEST(Namespace, LookupThroughFileIsNotFound) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_FALSE(ns.lookup("/f/x").ok());
}

TEST(Namespace, UnlinkSemantics) {
  Namespace ns;
  auto created = ns.create_file("/f", true);
  auto removed = ns.unlink("/f");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), created->oid);
  EXPECT_EQ(ns.unlink("/f").status().code(), Errc::not_found);
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.unlink("/d").status().code(), Errc::is_a_directory);
}

TEST(Namespace, ReaddirListsSortedEntries) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  ASSERT_TRUE(ns.create_file("/d/b", true).ok());
  ASSERT_TRUE(ns.create_file("/d/a", true).ok());
  ASSERT_TRUE(ns.mkdir("/d/c").ok());
  auto entries = ns.readdir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0], (DirEntry{"a", false}));
  EXPECT_EQ((*entries)[1], (DirEntry{"b", false}));
  EXPECT_EQ((*entries)[2], (DirEntry{"c", true}));
}

TEST(Namespace, ReaddirOnFileFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.readdir("/f").status().code(), Errc::not_a_directory);
}

TEST(Namespace, DirEntryCount) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.dir_entry_count("/d"), 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ns.create_file("/d/f" + std::to_string(i), true).ok());
  }
  EXPECT_EQ(ns.dir_entry_count("/d"), 5u);
  EXPECT_EQ(ns.dir_entry_count("/missing"), 0u);
}

TEST(Namespace, DeepTreeStress) {
  Namespace ns;
  std::string path;
  for (int i = 0; i < 50; ++i) {
    path += "/d" + std::to_string(i);
    ASSERT_TRUE(ns.mkdir(path).ok());
  }
  EXPECT_TRUE(ns.exists(path));
  ASSERT_TRUE(ns.create_file(path + "/leaf", true).ok());
  EXPECT_TRUE(ns.lookup(path + "/leaf").ok());
}

}  // namespace
}  // namespace tio::pfs
