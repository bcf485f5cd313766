#include "plfs/container.h"

#include <gtest/gtest.h>

#include <set>

namespace tio::plfs {
namespace {

PlfsMount mount_with(std::size_t backends) {
  PlfsMount m;
  for (std::size_t i = 0; i < backends; ++i) {
    m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
  }
  m.num_subdirs = 16;
  return m;
}

TEST(ContainerLayout, RequiresBackendsAndSubdirs) {
  PlfsMount empty;
  EXPECT_THROW(ContainerLayout(empty, "/f"), std::invalid_argument);
  PlfsMount no_subdirs = mount_with(1);
  no_subdirs.num_subdirs = 0;
  EXPECT_THROW(ContainerLayout(no_subdirs, "/f"), std::invalid_argument);
}

TEST(ContainerLayout, PathsLiveUnderTheirBackend) {
  const PlfsMount m = mount_with(1);
  const ContainerLayout lay(m, "/ckpt/file1");
  EXPECT_EQ(lay.canonical_container(), "/vol0/plfs/ckpt/file1");
  EXPECT_EQ(lay.access_path(), "/vol0/plfs/ckpt/file1/access");
  EXPECT_EQ(lay.meta_dir(), "/vol0/plfs/ckpt/file1/meta");
  EXPECT_EQ(lay.openhosts_dir(), "/vol0/plfs/ckpt/file1/openhosts");
  EXPECT_EQ(lay.global_index_path(), "/vol0/plfs/ckpt/file1/global.index");
}

TEST(ContainerLayout, LogicalPathIsNormalized) {
  const PlfsMount m = mount_with(1);
  const ContainerLayout lay(m, "ckpt//file1/");
  EXPECT_EQ(lay.logical(), "/ckpt/file1");
}

TEST(ContainerLayout, DataAndIndexLogsShareTheRankSubdir) {
  const PlfsMount m = mount_with(1);
  const ContainerLayout lay(m, "/f");
  const auto k = lay.subdir_of_rank(37);
  EXPECT_EQ(k, 37u % 16);
  EXPECT_EQ(lay.data_log_path(37), lay.subdir_path(k) + "/data.37");
  EXPECT_EQ(lay.index_log_path(37), lay.subdir_path(k) + "/index.37");
}

TEST(ContainerLayout, SingleBackendPutsEverythingTogether) {
  const PlfsMount m = mount_with(1);
  const ContainerLayout lay(m, "/f");
  for (std::size_t k = 0; k < 16; ++k) EXPECT_EQ(lay.subdir_backend(k), 0u);
}

TEST(ContainerLayout, SubdirSpreadingUsesMultipleBackends) {
  const PlfsMount m = mount_with(8);
  const ContainerLayout lay(m, "/f");
  std::set<std::size_t> used;
  for (std::size_t k = 0; k < 16; ++k) used.insert(lay.subdir_backend(k));
  EXPECT_GE(used.size(), 4u);  // statically hashed, should hit most backends
}

TEST(ContainerLayout, ContainerSpreadingDistributesContainers) {
  const PlfsMount m = mount_with(8);
  std::set<std::size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(ContainerLayout(m, "/file" + std::to_string(i)).canonical_backend());
  }
  EXPECT_GE(used.size(), 6u);
}

TEST(ContainerLayout, HashingIsDeterministic) {
  const PlfsMount m = mount_with(8);
  const ContainerLayout a(m, "/some/file");
  const ContainerLayout b(m, "/some/file");
  EXPECT_EQ(a.canonical_backend(), b.canonical_backend());
  for (std::size_t k = 0; k < 16; ++k) EXPECT_EQ(a.subdir_backend(k), b.subdir_backend(k));
}

TEST(ContainerLayout, BalanceOfContainerHashing) {
  const PlfsMount m = mount_with(4);
  std::vector<int> counts(4, 0);
  const int kFiles = 4000;
  for (int i = 0; i < kFiles; ++i) {
    ++counts[ContainerLayout(m, "/dir/f" + std::to_string(i)).canonical_backend()];
  }
  for (const int c : counts) {
    EXPECT_GT(c, kFiles / 4 * 0.8);
    EXPECT_LT(c, kFiles / 4 * 1.2);
  }
}

TEST(ContainerLayout, BalanceOfSubdirHashingAcrossContainers) {
  const PlfsMount m = mount_with(4);
  std::vector<int> counts(4, 0);
  for (int f = 0; f < 250; ++f) {
    const ContainerLayout lay(m, "/f" + std::to_string(f));
    for (std::size_t k = 0; k < 16; ++k) ++counts[lay.subdir_backend(k)];
  }
  const int total = 250 * 16;
  for (const int c : counts) {
    EXPECT_GT(c, total / 4 * 0.8);
    EXPECT_LT(c, total / 4 * 1.2);
  }
}

TEST(ParseIndexLogName, AcceptsValidRejectsInvalid) {
  std::uint32_t w = 0;
  EXPECT_TRUE(parse_index_log_name("index.0", &w));
  EXPECT_EQ(w, 0u);
  EXPECT_TRUE(parse_index_log_name("index.65535", &w));
  EXPECT_EQ(w, 65535u);
  EXPECT_FALSE(parse_index_log_name("data.5", &w));
  EXPECT_FALSE(parse_index_log_name("index.", &w));
  EXPECT_FALSE(parse_index_log_name("index.5x", &w));
  EXPECT_FALSE(parse_index_log_name("index", &w));
}

}  // namespace
}  // namespace tio::plfs
