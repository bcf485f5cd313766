// Quickstart: PLFS on your real disk.
//
// Runs the identical middleware that the benchmarks simulate, but against
// the host file system: four "processes" write interleaved records into one
// logical file, and the program then shows the physical container PLFS
// built (the transformative part) and reads the logical file back intact.
//
//   ./quickstart [--dir /tmp]
//
// The program works only inside a fresh subdirectory (plfs_quickstart.XXXXXX)
// that it creates under --dir; nothing else there is touched. It exits 1 if
// the logical file does not read back byte-for-byte.
#include <stdlib.h>  // mkdtemp

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/strutil.h"
#include "localfs/local_fs.h"
#include "plfs/plfs.h"

using namespace tio;

namespace {

// Recursively prints the physical tree PLFS created on disk.
void print_tree(const std::filesystem::path& p, int depth = 0) {
  for (const auto& entry : std::filesystem::directory_iterator(p)) {
    std::printf("  %*s%s%s\n", depth * 2, "", entry.path().filename().c_str(),
                entry.is_directory() ? "/" : "");
    if (entry.is_directory()) print_tree(entry.path(), depth + 1);
  }
}

sim::Task<void> demo(plfs::Plfs& plfs, bool& intact) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kRecord = 1 << 16;  // 64 KiB
  constexpr int kRounds = 8;

  // --- N-1 write phase: each writer strides through the shared file ---
  for (int w = 0; w < kWriters; ++w) {
    const pfs::IoCtx ctx{0, w};
    auto handle = co_await plfs.open_write(ctx, "/ckpt/timestep42", w);
    if (!handle.ok()) throw std::runtime_error(handle.status().to_string());
    for (int r = 0; r < kRounds; ++r) {
      const std::uint64_t off = (static_cast<std::uint64_t>(r) * kWriters + w) * kRecord;
      const Status st = co_await (*handle)->write(off, DataView::pattern(7, off, kRecord));
      if (!st.ok()) throw std::runtime_error(st.to_string());
    }
    const Status st = co_await (*handle)->close();
    if (!st.ok()) throw std::runtime_error(st.to_string());
    std::printf("writer %d: logged %d records (%s data)\n", w, kRounds,
                format_bytes(kRounds * kRecord).c_str());
  }

  // --- read phase: one process reassembles the logical file ---
  const pfs::IoCtx ctx{0, 0};
  auto reader = co_await plfs.open_read(ctx, "/ckpt/timestep42");
  if (!reader.ok()) throw std::runtime_error(reader.status().to_string());
  const std::uint64_t size = (*reader)->logical_size();
  auto data = co_await (*reader)->read(0, size);
  if (!data.ok()) throw std::runtime_error(data.status().to_string());
  intact = data->content_equals(DataView::pattern(7, 0, size));
  std::printf("\nlogical file size: %s, content %s\n", format_bytes(size).c_str(),
              intact ? "verified byte-for-byte" : "MISMATCH!");
  std::printf("index mappings after compression: %zu (from %d raw records)\n",
              (*reader)->index().mapping_count(), kWriters * kRounds);
  (void)co_await (*reader)->close();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("quickstart: PLFS over the host file system");
  auto* parent = flags.add_string("dir", std::filesystem::temp_directory_path().string(),
                                   "existing host directory to create the work directory in");
  if (auto st = flags.parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }

  // A fresh, uniquely named subdirectory: the program never deletes or
  // overwrites anything it did not create.
  std::string pattern = (std::filesystem::path(*parent) / "plfs_quickstart.XXXXXX").string();
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    std::perror(("quickstart: cannot create a directory under " + *parent).c_str());
    return 1;
  }
  const std::string dir = buf.data();

  sim::Engine engine;
  localfs::LocalFs fs(engine, dir);

  // Two "backends" model two glued file systems (federation); on a laptop
  // they are just two directories.
  plfs::PlfsMount mount;
  mount.backends = {"/backend0", "/backend1"};
  mount.num_subdirs = 4;
  for (const auto& b : mount.backends) {
    std::filesystem::create_directories(dir + b);
  }
  plfs::Plfs plfs(fs, mount);

  bool intact = false;
  engine.spawn(demo(plfs, intact));
  engine.run();

  std::printf("\nphysical container layout under %s:\n", dir.c_str());
  print_tree(dir);
  std::printf(
      "\nThe logical file /ckpt/timestep42 is a *container*: every writer got\n"
      "a private data log and index log, spread across both backends.\n");
  return intact ? 0 : 1;
}
