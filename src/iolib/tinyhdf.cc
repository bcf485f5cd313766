#include "iolib/tinyhdf.h"

#include <cstring>

#include "common/rng.h"

namespace tio::iolib {

TinyHdf::Layout TinyHdf::layout_for(std::uint64_t dataset_bytes, std::uint64_t chunk_bytes) {
  Layout l;
  l.chunk_bytes = chunk_bytes;
  l.num_chunks = (dataset_bytes + chunk_bytes - 1) / chunk_bytes;
  l.btree_offset = kSuperblockBytes;
  l.data_offset = l.btree_offset + l.num_chunks * kChunkRecordBytes;
  l.file_bytes = l.data_offset + l.num_chunks * chunk_bytes;
  return l;
}

std::vector<std::byte> TinyHdf::serialize_superblock(const Layout& layout) {
  std::vector<std::byte> out(kSuperblockBytes, std::byte{0});
  auto put = [&out](std::size_t at, const void* src, std::size_t n) {
    std::memcpy(out.data() + at, src, n);
  };
  put(0, &kMagic, 4);
  put(8, &layout.chunk_bytes, 8);
  put(16, &layout.num_chunks, 8);
  put(24, &layout.btree_offset, 8);
  put(32, &layout.data_offset, 8);
  put(40, &layout.file_bytes, 8);
  return out;
}

Result<TinyHdf::Layout> TinyHdf::parse_superblock(const FragmentList& data) {
  if (data.size() < kSuperblockBytes) return error(Errc::io_error, "TinyHdf: short superblock");
  const auto bytes = data.to_bytes();
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kMagic) return error(Errc::io_error, "TinyHdf: bad magic");
  Layout l;
  std::memcpy(&l.chunk_bytes, bytes.data() + 8, 8);
  std::memcpy(&l.num_chunks, bytes.data() + 16, 8);
  std::memcpy(&l.btree_offset, bytes.data() + 24, 8);
  std::memcpy(&l.data_offset, bytes.data() + 32, 8);
  std::memcpy(&l.file_bytes, bytes.data() + 40, 8);
  if (l.chunk_bytes == 0) return error(Errc::io_error, "TinyHdf: zero chunk size");
  return l;
}

namespace {

// Chunk record content: a deterministic function of (chunk, layout) so that
// readers can verify metadata integrity.
DataView chunk_record(const TinyHdf::Layout& layout, std::uint64_t chunk) {
  return DataView::pattern(hash_combine(layout.data_offset, chunk),
                           0, TinyHdf::kChunkRecordBytes);
}

}  // namespace

sim::Task<Status> TinyHdf::write_all(mpi::Comm& comm, const WriteFn& write,
                                     std::uint64_t dataset_bytes, std::uint64_t chunk_bytes,
                                     std::uint64_t seed) {
  // A rank that fails stops writing but still reaches the barrier, so its
  // peers never wait on it; each returns its own status.
  const Layout layout = layout_for(dataset_bytes, chunk_bytes);
  Status st = Status::Ok();
  if (comm.rank() == 0) st = co_await write(0, DataView::literal(serialize_superblock(layout)));
  for (std::uint64_t c = comm.rank(); st.ok() && c < layout.num_chunks;
       c += static_cast<std::uint64_t>(comm.size())) {
    // Small scattered metadata record, then the chunk payload.
    st = co_await write(layout.btree_offset + c * kChunkRecordBytes, chunk_record(layout, c));
    if (!st.ok()) break;
    const std::uint64_t off = layout.data_offset + c * layout.chunk_bytes;
    st = co_await write(off, DataView::pattern(seed, off, layout.chunk_bytes));
  }
  co_await comm.barrier();
  co_return st;
}

sim::Task<Status> TinyHdf::read_all(mpi::Comm& comm, const ReadFn& read, std::uint64_t seed,
                                    bool verify, Layout* layout_out) {
  // Every rank reaches the broadcast and the barrier whatever fails, and
  // returns its own status. A superblock rank 0 cannot read broadcasts as
  // null.
  Status st = Status::Ok();
  std::shared_ptr<const Layout> layout;
  if (comm.rank() == 0) {
    auto sb = co_await read(0, kSuperblockBytes);
    auto parsed = sb.ok() ? parse_superblock(*sb) : Result<Layout>(sb.status());
    if (parsed.ok()) {
      layout = std::make_shared<const Layout>(parsed.value());
    } else {
      st = parsed.status();
    }
  }
  layout = co_await comm.bcast(0, std::move(layout), 48);
  if (!layout && st.ok()) st = error(Errc::io_error, "TinyHdf: superblock unreadable on rank 0");

  for (std::uint64_t c = comm.rank(); st.ok() && c < layout->num_chunks;
       c += static_cast<std::uint64_t>(comm.size())) {
    auto record = co_await read(layout->btree_offset + c * kChunkRecordBytes, kChunkRecordBytes);
    if (!record.ok()) {
      st = record.status();
      break;
    }
    if (verify && !record->content_equals(chunk_record(*layout, c))) {
      st = error(Errc::io_error, "TinyHdf: chunk record mismatch");
      break;
    }
    const std::uint64_t off = layout->data_offset + c * layout->chunk_bytes;
    auto chunk = co_await read(off, layout->chunk_bytes);
    if (!chunk.ok()) {
      st = chunk.status();
    } else if (chunk->size() != layout->chunk_bytes) {
      st = error(Errc::io_error, "TinyHdf: short chunk read");
    } else if (verify &&
               !chunk->content_equals(DataView::pattern(seed, off, layout->chunk_bytes))) {
      st = error(Errc::io_error, "TinyHdf: chunk content mismatch");
    }
  }
  if (st.ok() && layout_out != nullptr) *layout_out = *layout;
  co_await comm.barrier();
  co_return st;
}

}  // namespace tio::iolib
