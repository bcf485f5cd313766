#include "localfs/local_fs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <filesystem>

#include "testutil.h"

namespace tio::localfs {
namespace {

using pfs::IoCtx;
using pfs::OpenFlags;

class LocalFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("tio_localfs_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(root_);
    fs_ = std::make_unique<LocalFs>(engine_, root_.string());
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  sim::Engine engine_;
  std::filesystem::path root_;
  std::unique_ptr<LocalFs> fs_;
  IoCtx ctx_{0, 0};
};

TEST_F(LocalFsTest, RejectsMissingRoot) {
  EXPECT_THROW(LocalFs(engine_, "/no/such/root/dir"), std::invalid_argument);
}

TEST_F(LocalFsTest, WriteReadRoundTripOnDisk) {
  test::run_task(engine_, [](LocalFs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok()) << fd.status();
    const auto data = DataView::pattern(5, 0, 10000);
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, data)).ok());
    auto fl = co_await fs.read(ctx, *fd, 0, 10000);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(data));
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
  }(*fs_, ctx_));
  // The file is really on disk.
  EXPECT_TRUE(std::filesystem::exists(root_ / "f"));
  EXPECT_EQ(std::filesystem::file_size(root_ / "f"), 10000u);
}

TEST_F(LocalFsTest, MkdirCreatesRealDirectory) {
  test::run_task(engine_, [](LocalFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/container")).ok());
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/container/subdir")).ok());
  }(*fs_, ctx_));
  EXPECT_TRUE(std::filesystem::is_directory(root_ / "container" / "subdir"));
}

TEST_F(LocalFsTest, ErrnoMapping) {
  test::run_task(engine_, [](LocalFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_EQ((co_await fs.open(ctx, "/missing", OpenFlags::ro())).status().code(),
              Errc::not_found);
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    EXPECT_EQ((co_await fs.mkdir(ctx, "/d")).code(), Errc::exists);
    auto fd = co_await fs.open(ctx, "/d/f", OpenFlags::wr_create_excl());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    EXPECT_EQ((co_await fs.open(ctx, "/d/f", OpenFlags::wr_create_excl())).status().code(),
              Errc::exists);
  }(*fs_, ctx_));
}

TEST_F(LocalFsTest, ReaddirStatsAndUnlink) {
  test::run_task(engine_, [](LocalFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    for (const char* name : {"/d/b", "/d/a"}) {
      auto fd = co_await fs.open(ctx, name, OpenFlags::wr_create());
      EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::literal_string("xyz"))).ok());
      EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    }
    auto entries = co_await fs.readdir(ctx, "/d");
    EXPECT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 2u);
    EXPECT_EQ((*entries)[0].name, "a");  // sorted
    auto st = co_await fs.stat(ctx, "/d/a");
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(st->size, 3u);
    EXPECT_FALSE(st->is_dir);
    EXPECT_TRUE((co_await fs.unlink(ctx, "/d/a")).ok());
    entries = co_await fs.readdir(ctx, "/d");
    EXPECT_EQ(entries->size(), 1u);
  }(*fs_, ctx_));
}

TEST_F(LocalFsTest, SparseWriteReadsBackZeros) {
  test::run_task(engine_, [](LocalFs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 5000, DataView::literal_string("tail"))).ok());
    auto fl = co_await fs.read(ctx, *fd, 0, 5004);
    EXPECT_EQ(fl->size(), 5004u);
    EXPECT_EQ(fl->at(0), std::byte{0});
    EXPECT_EQ(fl->at(5000), std::byte{'t'});
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
  }(*fs_, ctx_));
}

TEST_F(LocalFsTest, WholeFileReadRequestIsClampedToEof) {
  // Callers may ask for "the whole file" with a huge length; the backend
  // must clamp before allocating (regression: bad_alloc on 2^62 request).
  test::run_task(engine_, [](LocalFs& fs, pfs::IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", pfs::OpenFlags{.read = true, .write = true,
                                                         .create = true});
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 1000))).ok());
    auto fl = co_await fs.read(ctx, *fd, 0, std::numeric_limits<std::int64_t>::max());
    EXPECT_TRUE(fl.ok());
    EXPECT_EQ(fl->size(), 1000u);
    auto past = co_await fs.read(ctx, *fd, 5000, 10);
    EXPECT_TRUE(past.ok());
    EXPECT_TRUE(past->empty());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
  }(*fs_, ctx_));
}

}  // namespace
}  // namespace tio::localfs
