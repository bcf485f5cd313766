// Functional tests of the PLFS core over the zero-cost in-memory backend.
#include "plfs/plfs.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "localfs/mem_fs.h"
#include "testutil.h"

namespace tio::plfs {
namespace {

using pfs::IoCtx;

PlfsMount mount_with(std::size_t backends) {
  PlfsMount m;
  for (std::size_t i = 0; i < backends; ++i) {
    m.backends.push_back("/vol" + std::to_string(i) + "/plfs");
  }
  m.num_subdirs = 4;
  m.index_flush_every = 4;
  return m;
}

class PlfsCoreTest : public ::testing::Test {
 protected:
  PlfsCoreTest() : PlfsCoreTest(2) {}
  explicit PlfsCoreTest(std::size_t backends)
      : fs_(engine_), mount_(mount_with(backends)), plfs_(fs_, mount_) {
    // "Mount" the backends: the roots exist up front.
    for (const auto& b : mount_.backends) {
      if (!fs_.ns().mkdir_all(b).ok()) std::abort();
    }
  }

  sim::Engine engine_;
  localfs::MemFs fs_;
  PlfsMount mount_;
  Plfs plfs_;
};

TEST_F(PlfsCoreTest, SingleWriterRoundTrip) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/ckpt/f", 0);
    EXPECT_TRUE(wh.ok()) << wh.status();
    const auto data = DataView::pattern(0, 0, 100000);
    EXPECT_TRUE((co_await (*wh)->write(0, data)).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());

    auto rh = co_await plfs.open_read(ctx, "/ckpt/f");
    EXPECT_TRUE(rh.ok()) << rh.status();
    auto fl = co_await (*rh)->read(0, 100000);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(data));
    EXPECT_EQ((*rh)->logical_size(), 100000u);
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

TEST_F(PlfsCoreTest, StridedNto1RoundTrip) {
  // 8 writers, strided records: the canonical checkpoint pattern.
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    constexpr int kWriters = 8;
    constexpr std::uint64_t kRecord = 4096;
    constexpr int kRounds = 16;
    for (int w = 0; w < kWriters; ++w) {
      IoCtx ctx{static_cast<std::size_t>(w), w};
      auto wh = co_await plfs.open_write(ctx, "/f", w);
      EXPECT_TRUE(wh.ok());
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t off = (static_cast<std::uint64_t>(r) * kWriters + w) * kRecord;
        // Content encodes the absolute logical offset, so any misplacement
        // is detected.
        EXPECT_TRUE((co_await (*wh)->write(off, DataView::pattern(99, off, kRecord))).ok());
      }
      EXPECT_TRUE((co_await (*wh)->close()).ok());
    }
    auto rh = co_await plfs.open_read(IoCtx{0, 0}, "/f");
    EXPECT_TRUE(rh.ok());
    const std::uint64_t total = kWriters * kRounds * kRecord;
    EXPECT_EQ((*rh)->logical_size(), total);
    auto fl = co_await (*rh)->read(0, total);
    EXPECT_TRUE(fl.ok());
    EXPECT_TRUE(fl->content_equals(DataView::pattern(99, 0, total)));
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

TEST_F(PlfsCoreTest, OverwriteResolvedByTimestamp) {
  test::run_task(engine_, [](Plfs& plfs, sim::Engine& engine) -> sim::Task<void> {
    IoCtx a{0, 0}, b{1, 1};
    auto w0 = co_await plfs.open_write(a, "/f", 0);
    auto w1 = co_await plfs.open_write(b, "/f", 1);
    EXPECT_TRUE((co_await (*w0)->write(0, DataView::pattern(10, 0, 1000))).ok());
    co_await engine.sleep(Duration::ms(1));  // make timestamps strictly ordered
    EXPECT_TRUE((co_await (*w1)->write(500, DataView::pattern(20, 500, 1000))).ok());
    EXPECT_TRUE((co_await (*w0)->close()).ok());
    EXPECT_TRUE((co_await (*w1)->close()).ok());

    auto rh = co_await plfs.open_read(a, "/f");
    auto fl = co_await (*rh)->read(0, 1500);
    EXPECT_TRUE(fl->to_bytes().size() == 1500);
    // [0,500): writer 0; [500,1500): writer 1 (later timestamp).
    EXPECT_TRUE(co_await [](FragmentList got) -> sim::Task<bool> {
      FragmentList want;
      want.append(DataView::pattern(10, 0, 500));
      want.append(DataView::pattern(20, 500, 1000));
      co_return got.content_equals(want);
    }(std::move(*fl)));
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_, engine_));
}

TEST_F(PlfsCoreTest, SparseFileReadsZerosInGaps) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::pattern(1, 0, 100))).ok());
    EXPECT_TRUE((co_await (*wh)->write(1000, DataView::pattern(1, 1000, 100))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto rh = co_await plfs.open_read(ctx, "/f");
    auto fl = co_await (*rh)->read(50, 1000);
    EXPECT_EQ(fl->size(), 1000u);
    EXPECT_EQ(fl->at(0), DataView::pattern_byte(1, 50));
    EXPECT_EQ(fl->at(500), std::byte{0});  // hole
    EXPECT_EQ(fl->at(999), DataView::pattern_byte(1, 1049));
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

TEST_F(PlfsCoreTest, ReadPastEofIsShort) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::pattern(1, 0, 100))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto rh = co_await plfs.open_read(ctx, "/f");
    auto fl = co_await (*rh)->read(60, 1000);
    EXPECT_EQ(fl->size(), 40u);
    auto beyond = co_await (*rh)->read(100, 10);
    EXPECT_TRUE(beyond->empty());
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

TEST_F(PlfsCoreTest, ContainerStructureOnBackend) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/dir/f", 3);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::zeros(10))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    co_return;
  }(plfs_));
  const ContainerLayout lay = plfs_.layout("/dir/f");
  EXPECT_TRUE(fs_.ns().exists(lay.access_path()));
  EXPECT_TRUE(fs_.ns().exists(lay.meta_dir()));
  EXPECT_TRUE(fs_.ns().exists(lay.openhosts_dir()));
  EXPECT_TRUE(fs_.ns().exists(lay.data_log_path(3)));
  EXPECT_TRUE(fs_.ns().exists(lay.index_log_path(3)));
  // The openhost record is removed at close; the dropping exists.
  EXPECT_FALSE(fs_.ns().exists(lay.openhost_record_path(3)));
  EXPECT_TRUE(fs_.ns().exists(lay.meta_dropping_path(3, 10)));
}

TEST_F(PlfsCoreTest, OpenhostRecordPresentWhileOpen) {
  test::run_task(engine_, [](Plfs& plfs, localfs::MemFs& fs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE(fs.ns().exists(plfs.layout("/f").openhost_record_path(0)));
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    EXPECT_FALSE(fs.ns().exists(plfs.layout("/f").openhost_record_path(0)));
  }(plfs_, fs_));
}

TEST_F(PlfsCoreTest, IndexLogFlushBatching) {
  // index_flush_every = 4: after 3 writes the log is empty; after 4 one
  // batch (a v2 segment) hits the log; close flushes the remainder as a
  // second self-contained segment.
  test::run_task(engine_, [](Plfs& plfs, localfs::MemFs& fs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    const std::string log = plfs.layout("/f").index_log_path(0);
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE((co_await (*wh)->write(i * 10, DataView::zeros(10))).ok());
    }
    auto st = co_await fs.stat(ctx, log);
    EXPECT_EQ(st->size, 0u);
    EXPECT_TRUE((co_await (*wh)->write(30, DataView::zeros(10))).ok());
    st = co_await fs.stat(ctx, log);
    const std::uint64_t first_flush = st->size;
    EXPECT_GT(first_flush, 0u);
    EXPECT_TRUE((co_await (*wh)->write(40, DataView::zeros(10))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    st = co_await fs.stat(ctx, log);
    EXPECT_GT(st->size, first_flush);
  }(plfs_, fs_));
}

TEST_F(PlfsCoreTest, ReopenForWriteTruncatesLogs) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::pattern(1, 0, 1000))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    // Second job run overwrites the checkpoint.
    wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::pattern(2, 0, 400))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto rh = co_await plfs.open_read(ctx, "/f");
    EXPECT_EQ((*rh)->logical_size(), 400u);
    auto fl = co_await (*rh)->read(0, 400);
    EXPECT_TRUE(fl->content_equals(DataView::pattern(2, 0, 400)));
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

TEST_F(PlfsCoreTest, GlobalIndexWriteReadRoundTrip) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(0, DataView::pattern(1, 0, 1000))).ok());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto serial = co_await plfs.build_index_serial(ctx, "/f");
    EXPECT_TRUE(serial.ok());
    EXPECT_TRUE((co_await plfs.write_global_index(ctx, "/f", **serial)).ok());
    auto global = co_await plfs.read_global_index(ctx, "/f");
    EXPECT_TRUE(global.ok());
    EXPECT_EQ((*global)->logical_size(), (*serial)->logical_size());
    EXPECT_EQ((*global)->lookup(0, 1000), (*serial)->lookup(0, 1000));
  }(plfs_));
}

TEST_F(PlfsCoreTest, MissingGlobalIndexIsNotFound) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto global = co_await plfs.read_global_index(ctx, "/f");
    EXPECT_EQ(global.status().code(), Errc::not_found);
  }(plfs_));
}

TEST_F(PlfsCoreTest, IsContainerTellsContainersFromPlainDirs) {
  for (const auto& b : mount_.backends) ASSERT_TRUE(fs_.ns().mkdir_all(b + "/realdir").ok());
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/ckpt", 0);
    EXPECT_TRUE((co_await (*wh)->close()).ok());

    auto is_c = co_await plfs.is_container(ctx, "/ckpt");
    EXPECT_TRUE(is_c.ok() && *is_c);
    is_c = co_await plfs.is_container(ctx, "/realdir");
    EXPECT_TRUE(is_c.ok() && !*is_c);
    is_c = co_await plfs.is_container(ctx, "/missing");
    EXPECT_TRUE(is_c.ok() && !*is_c);
  }(plfs_));
}

TEST_F(PlfsCoreTest, FederationSpreadsSubdirsAcrossBackends) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    for (int w = 0; w < 4; ++w) {
      auto wh = co_await plfs.open_write(IoCtx{0, w}, "/spread", w);
      EXPECT_TRUE((co_await (*wh)->write(0, DataView::zeros(1))).ok());
      EXPECT_TRUE((co_await (*wh)->close()).ok());
    }
    co_return;
  }(plfs_));
  // With 2 backends and 4 subdirs, both backends should host something.
  int backends_used = 0;
  for (const auto& b : mount_.backends) {
    if (fs_.ns().exists(b + "/spread")) ++backends_used;
  }
  EXPECT_EQ(backends_used, 2);
}

TEST_F(PlfsCoreTest, WriteOnClosedHandleFails) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    EXPECT_EQ((co_await (*wh)->write(0, DataView::zeros(1))).code(), Errc::bad_handle);
    EXPECT_EQ((co_await (*wh)->close()).code(), Errc::bad_handle);
  }(plfs_));
}

TEST_F(PlfsCoreTest, ZeroLengthWriteIsNoop) {
  test::run_task(engine_, [](Plfs& plfs) -> sim::Task<void> {
    IoCtx ctx{0, 0};
    auto wh = co_await plfs.open_write(ctx, "/f", 0);
    EXPECT_TRUE((co_await (*wh)->write(100, DataView())).ok());
    EXPECT_TRUE((*wh)->entries().empty());
    EXPECT_TRUE((co_await (*wh)->close()).ok());
    auto rh = co_await plfs.open_read(ctx, "/f");
    EXPECT_EQ((*rh)->logical_size(), 0u);
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs_));
}

// Property test: random writers, offsets, overwrites — PLFS read-back must
// equal a reference byte array maintained in write order.
class PlfsRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlfsRoundTrip, RandomWorkloadsReadBackExactly) {
  sim::Engine engine;
  localfs::MemFs fs(engine);
  PlfsMount mount = mount_with(3);
  Plfs plfs(fs, mount);
  for (const auto& b : mount.backends) ASSERT_TRUE(fs.ns().mkdir_all(b).ok());

  Rng rng(GetParam());
  constexpr std::uint64_t kSize = 1 << 16;
  std::vector<std::byte> ref(kSize, std::byte{0});
  std::uint64_t high = 0;

  test::run_task(engine, [](Plfs& p, Rng& r, std::vector<std::byte>& reference,
                            std::uint64_t& high_water) -> sim::Task<void> {
    constexpr int kWriters = 5;
    std::vector<std::unique_ptr<WriteHandle>> handles;
    for (int w = 0; w < kWriters; ++w) {
      auto wh = co_await p.open_write(IoCtx{static_cast<std::size_t>(w), w}, "/rand", w);
      EXPECT_TRUE(wh.ok());
      handles.push_back(std::move(wh.value()));
    }
    for (int op = 0; op < 400; ++op) {
      const int w = static_cast<int>(r.below(kWriters));
      const std::uint64_t off = r.below(reference.size() - 1);
      const std::uint64_t len =
          1 + r.below(std::min<std::uint64_t>(reference.size() - off, 2048) - 1 + 1);
      const std::uint64_t seed = r.next();
      const auto data = DataView::pattern(seed, 0, len);
      EXPECT_TRUE((co_await handles[w]->write(off, data)).ok());
      for (std::uint64_t i = 0; i < len; ++i) reference[off + i] = data.at(i);
      high_water = std::max(high_water, off + len);
      // Writes must be strictly ordered in time for the reference to agree.
      co_await p.engine().sleep(Duration::us(1));
    }
    for (auto& h : handles) EXPECT_TRUE((co_await h->close()).ok());

    auto rh = co_await p.open_read(IoCtx{0, 0}, "/rand");
    EXPECT_TRUE(rh.ok());
    EXPECT_EQ((*rh)->logical_size(), high_water);
    auto fl = co_await (*rh)->read(0, high_water);
    EXPECT_TRUE(fl.ok());
    const auto got = fl->to_bytes();
    for (std::uint64_t i = 0; i < high_water; ++i) {
      if (got[i] != reference[i]) {
        ADD_FAILURE() << "mismatch at logical offset " << i;
        break;
      }
    }
    EXPECT_TRUE((co_await (*rh)->close()).ok());
  }(plfs, rng, ref, high));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlfsRoundTrip, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace tio::plfs
