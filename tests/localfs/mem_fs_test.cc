#include "localfs/mem_fs.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace tio::localfs {
namespace {

using pfs::IoCtx;
using pfs::OpenFlags;

class MemFsTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  MemFs fs_{engine_};
  IoCtx ctx_{0, 0};
};

TEST_F(MemFsTest, WriteReadRoundTripCostsNoVirtualTime) {
  test::run_task(engine_, [](MemFs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE(fd.ok());
    const auto data = DataView::pattern(9, 0, 4096);
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, data)).ok());
    auto fl = co_await fs.read(ctx, *fd, 0, 4096);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(data));
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
  }(fs_, ctx_));
  EXPECT_EQ(engine_.now().to_ns(), 0);
}

TEST_F(MemFsTest, PosixErrorSemantics) {
  test::run_task(engine_, [](MemFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_EQ((co_await fs.open(ctx, "/missing", OpenFlags::ro())).status().code(),
              Errc::not_found);
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    EXPECT_EQ((co_await fs.mkdir(ctx, "/d")).code(), Errc::exists);
    EXPECT_EQ((co_await fs.open(ctx, "/d", OpenFlags::ro())).status().code(),
              Errc::is_a_directory);
    EXPECT_EQ((co_await fs.open(ctx, "/nodir/f", OpenFlags::wr_create())).status().code(),
              Errc::not_found);
    EXPECT_EQ((co_await fs.unlink(ctx, "/d")).code(), Errc::is_a_directory);
    EXPECT_EQ((co_await fs.close(ctx, 1234)).code(), Errc::bad_handle);
  }(fs_, ctx_));
}

TEST_F(MemFsTest, TruncAndStat) {
  test::run_task(engine_, [](MemFs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags::wr_create());
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::zeros(500))).ok());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    auto st = co_await fs.stat(ctx, "/f");
    EXPECT_EQ(st->size, 500u);
    auto fd2 = co_await fs.open(ctx, "/f", OpenFlags::wr_trunc());
    EXPECT_TRUE((co_await fs.close(ctx, *fd2)).ok());
    st = co_await fs.stat(ctx, "/f");
    EXPECT_EQ(st->size, 0u);
  }(fs_, ctx_));
}

TEST_F(MemFsTest, Readdir) {
  test::run_task(engine_, [](MemFs& fs, IoCtx ctx) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.mkdir(ctx, "/d")).ok());
    auto fd = co_await fs.open(ctx, "/d/a", OpenFlags::wr_create());
    EXPECT_TRUE((co_await fs.close(ctx, *fd)).ok());
    auto entries = co_await fs.readdir(ctx, "/d");
    EXPECT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "a");
  }(fs_, ctx_));
}

TEST_F(MemFsTest, ShortReadAtEof) {
  test::run_task(engine_, [](MemFs& fs, IoCtx ctx) -> sim::Task<void> {
    auto fd = co_await fs.open(ctx, "/f", OpenFlags{.read = true, .write = true, .create = true});
    EXPECT_TRUE((co_await fs.write(ctx, *fd, 0, DataView::pattern(1, 0, 64))).ok());
    auto fl = co_await fs.read(ctx, *fd, 32, 1000);
    EXPECT_EQ(fl->size(), 32u);
  }(fs_, ctx_));
}

}  // namespace
}  // namespace tio::localfs
