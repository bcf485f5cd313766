#include "iolib/tinync.h"

#include <cstring>

namespace tio::iolib {

std::uint64_t TinyNc::total_bytes(int nprocs, const std::vector<NcVar>& vars) {
  std::uint64_t total = kHeaderBytes;
  for (const auto& v : vars) total += v.bytes_per_proc * static_cast<std::uint64_t>(nprocs);
  return total;
}

std::uint64_t TinyNc::slab_offset(int rank, int nprocs, const std::vector<NcVar>& vars,
                                  std::size_t v) {
  std::uint64_t off = kHeaderBytes;
  for (std::size_t i = 0; i < v; ++i) {
    off += vars[i].bytes_per_proc * static_cast<std::uint64_t>(nprocs);
  }
  return off + vars[v].bytes_per_proc * static_cast<std::uint64_t>(rank);
}

std::vector<std::byte> TinyNc::serialize_header(const std::vector<NcVar>& vars) {
  std::vector<std::byte> out(kHeaderBytes, std::byte{0});
  auto put = [&out](std::size_t at, const void* src, std::size_t n) {
    std::memcpy(out.data() + at, src, n);
  };
  put(0, &kMagic, 4);
  const auto nvars = static_cast<std::uint32_t>(vars.size());
  put(4, &nvars, 4);
  std::size_t at = 8;
  for (const auto& v : vars) {
    char name[24] = {};
    std::strncpy(name, v.name.c_str(), sizeof(name) - 1);
    put(at, name, 24);
    put(at + 24, &v.bytes_per_proc, 8);
    at += 32;
  }
  return out;
}

Result<std::vector<NcVar>> TinyNc::parse_header(const FragmentList& data) {
  if (data.size() < kHeaderBytes) return error(Errc::io_error, "TinyNc: short header");
  const auto bytes = data.to_bytes();
  std::uint32_t magic = 0;
  std::uint32_t nvars = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&nvars, bytes.data() + 4, 4);
  if (magic != kMagic) return error(Errc::io_error, "TinyNc: bad magic");
  if (8 + nvars * 32ull > kHeaderBytes) return error(Errc::io_error, "TinyNc: header overflow");
  std::vector<NcVar> vars(nvars);
  std::size_t at = 8;
  for (auto& v : vars) {
    char name[25] = {};
    std::memcpy(name, bytes.data() + at, 24);
    v.name = name;
    std::memcpy(&v.bytes_per_proc, bytes.data() + at + 24, 8);
    at += 32;
  }
  return vars;
}

sim::Task<Status> TinyNc::write_all(mpi::Comm& comm, const WriteFn& write,
                                    std::vector<NcVar> vars, std::uint64_t seed) {
  // A rank that fails stops writing but still reaches the barrier, so its
  // peers never wait on it; each returns its own status.
  Status st = Status::Ok();
  if (comm.rank() == 0) st = co_await write(0, DataView::literal(serialize_header(vars)));
  for (std::size_t v = 0; st.ok() && v < vars.size(); ++v) {
    const std::uint64_t off = slab_offset(comm.rank(), comm.size(), vars, v);
    st = co_await write(off, DataView::pattern(seed, off, vars[v].bytes_per_proc));
  }
  co_await comm.barrier();
  co_return st;
}

sim::Task<Status> TinyNc::read_all(mpi::Comm& comm, const ReadFn& read, std::uint64_t seed,
                                   bool verify, std::vector<NcVar>* vars_out) {
  // Every rank reaches both broadcasts and the barrier whatever fails, and
  // returns its own status. A header rank 0 cannot read broadcasts as null.
  Status st = Status::Ok();
  std::shared_ptr<const std::vector<NcVar>> vars;
  if (comm.rank() == 0) {
    auto header = co_await read(0, kHeaderBytes);
    auto parsed =
        header.ok() ? parse_header(*header) : Result<std::vector<NcVar>>(header.status());
    if (parsed.ok()) {
      vars = std::make_shared<const std::vector<NcVar>>(std::move(parsed.value()));
    } else {
      st = parsed.status();
    }
  }
  const std::uint64_t hdr_bytes =
      co_await comm.bcast(0, vars ? std::uint64_t{32} * vars->size() : 0, 8);
  vars = co_await comm.bcast(0, std::move(vars), hdr_bytes);
  if (!vars && st.ok()) st = error(Errc::io_error, "TinyNc: header unreadable on rank 0");

  for (std::size_t v = 0; st.ok() && v < vars->size(); ++v) {
    const std::uint64_t off = slab_offset(comm.rank(), comm.size(), *vars, v);
    const std::uint64_t len = (*vars)[v].bytes_per_proc;
    auto slab = co_await read(off, len);
    if (!slab.ok()) {
      st = slab.status();
    } else if (slab->size() != len) {
      st = error(Errc::io_error, "TinyNc: short slab read");
    } else if (verify && !slab->content_equals(DataView::pattern(seed, off, len))) {
      st = error(Errc::io_error, "TinyNc: slab content mismatch");
    }
  }
  if (st.ok() && vars_out != nullptr) *vars_out = *vars;
  co_await comm.barrier();
  co_return st;
}

}  // namespace tio::iolib
