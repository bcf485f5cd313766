#include "workloads/kernels.h"

#include "iolib/tinyhdf.h"
#include "iolib/tinync.h"

namespace tio::workloads {

OpGen strided_ops(std::uint64_t bytes_per_proc, std::uint64_t record) {
  const std::uint64_t rounds = bytes_per_proc / record;
  return [=](int rank, int nprocs) {
    std::vector<IoOp> ops;
    ops.reserve(rounds);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ops.push_back(IoOp{(r * nprocs + static_cast<std::uint64_t>(rank)) * record, record});
    }
    return ops;
  };
}

OpGen segmented_ops(std::uint64_t bytes_per_proc, std::uint64_t record) {
  const std::uint64_t rounds = bytes_per_proc / record;
  return [=](int rank, int nprocs) {
    (void)nprocs;
    std::vector<IoOp> ops;
    ops.reserve(rounds);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ops.push_back(IoOp{static_cast<std::uint64_t>(rank) * bytes_per_proc + r * record, record});
    }
    return ops;
  };
}

JobSpec mpiio_test(std::uint64_t bytes_per_proc, std::uint64_t record, TargetOptions target) {
  JobSpec spec;
  spec.file = "mpiio_test";
  spec.ops = strided_ops(bytes_per_proc, record);
  spec.target = target;
  return spec;
}

namespace {

// Plain calls returning the target's task: no coroutine frame of their own per op.
iolib::WriteFn bind_write(Target& target) {
  return [&target](std::uint64_t off, DataView data) { return target.write(off, std::move(data)); };
}

iolib::ReadFn bind_read(Target& target) {
  return [&target](std::uint64_t off, std::uint64_t len) { return target.read(off, len); };
}

// One rank's records as collective-buffering chunks of pattern data, and
// as the ranges that read them back.
std::vector<iolib::CbChunk> cb_chunks(const std::vector<IoOp>& ops, std::uint64_t seed) {
  std::vector<iolib::CbChunk> chunks;
  chunks.reserve(ops.size());
  for (const auto& op : ops) {
    chunks.push_back(iolib::CbChunk{op.offset, DataView::pattern(seed, op.offset, op.len)});
  }
  return chunks;
}

std::vector<iolib::CbRange> cb_ranges(const std::vector<IoOp>& ops) {
  std::vector<iolib::CbRange> wants;
  wants.reserve(ops.size());
  for (const auto& op : ops) wants.push_back(iolib::CbRange{op.offset, op.len});
  return wants;
}

}  // namespace

JobSpec pixie3d(int nprocs, std::uint64_t bytes_per_proc, int nvars, TargetOptions target) {
  JobSpec spec;
  spec.file = "pixie3d";
  spec.target = target;
  std::vector<iolib::NcVar> vars;
  const std::uint64_t per_var = bytes_per_proc / static_cast<std::uint64_t>(nvars);
  for (int v = 0; v < nvars; ++v) {
    vars.push_back(iolib::NcVar{"var" + std::to_string(v), per_var});
  }
  const std::uint64_t seed = spec.seed;
  spec.write_fn = [vars, seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    co_return co_await iolib::TinyNc::write_all(comm, bind_write(t), vars, seed);
  };
  spec.read_fn = [seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    co_return co_await iolib::TinyNc::read_all(comm, bind_read(t), seed, /*verify=*/true);
  };
  spec.bytes_override = iolib::TinyNc::total_bytes(nprocs, vars);
  return spec;
}

JobSpec aramco(int nprocs, std::uint64_t dataset_bytes, std::uint64_t chunk_bytes,
               TargetOptions target) {
  (void)nprocs;  // strong scaling: the dataset is fixed
  JobSpec spec;
  spec.file = "aramco";
  spec.target = target;
  const std::uint64_t seed = spec.seed;
  spec.write_fn = [=](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    co_return co_await iolib::TinyHdf::write_all(comm, bind_write(t), dataset_bytes,
                                                 chunk_bytes, seed);
  };
  spec.read_fn = [=](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    co_return co_await iolib::TinyHdf::read_all(comm, bind_read(t), seed, /*verify=*/true);
  };
  spec.bytes_override = iolib::TinyHdf::layout_for(dataset_bytes, chunk_bytes).file_bytes;
  return spec;
}

JobSpec madbench(std::uint64_t matrix_bytes_per_proc, int matrices, TargetOptions target) {
  JobSpec spec;
  spec.file = "madbench";
  spec.target = target;
  const std::uint64_t record = std::min<std::uint64_t>(matrix_bytes_per_proc, 8_MiB);
  spec.ops = [=](int rank, int nprocs) {
    // Matrix m occupies [m * N * B, (m+1) * N * B); rank's segment inside.
    std::vector<IoOp> ops;
    const std::uint64_t stripe = matrix_bytes_per_proc * static_cast<std::uint64_t>(nprocs);
    for (int m = 0; m < matrices; ++m) {
      const std::uint64_t base =
          m * stripe + static_cast<std::uint64_t>(rank) * matrix_bytes_per_proc;
      for (std::uint64_t off = 0; off < matrix_bytes_per_proc; off += record) {
        ops.push_back(IoOp{base + off, std::min(record, matrix_bytes_per_proc - off)});
      }
    }
    return ops;
  };
  return spec;
}

JobSpec lanl1(std::uint64_t bytes_per_proc, TargetOptions target) {
  JobSpec spec;
  spec.file = "lanl1";
  // The paper: "approximately 500K" — five hundred thousand bytes.
  spec.ops = strided_ops(bytes_per_proc, 500000);
  spec.target = target;
  return spec;
}

JobSpec lanl3(int nprocs, std::uint64_t total_bytes, TargetOptions target,
              iolib::CbConfig cb) {
  JobSpec spec;
  spec.file = "lanl3";
  spec.target = target;
  const std::uint64_t record = 1024;
  const std::uint64_t per_proc = total_bytes / static_cast<std::uint64_t>(nprocs);
  const OpGen gen = strided_ops(per_proc, record);
  const std::uint64_t seed = spec.seed;

  spec.write_fn = [gen, cb, seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    std::vector<iolib::CbChunk> chunks = cb_chunks(gen(comm.rank(), comm.size()), seed);
    co_return co_await iolib::cb_write(comm, cb, std::move(chunks), bind_write(t));
  };
  spec.read_fn = [gen, cb, seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    const std::vector<iolib::CbRange> wants = cb_ranges(gen(comm.rank(), comm.size()));
    std::vector<FragmentList> got;
    TIO_CO_RETURN_IF_ERROR(co_await iolib::cb_read(comm, cb, wants, bind_read(t), &got));
    for (std::size_t i = 0; i < wants.size(); ++i) {
      if (!got[i].content_equals(DataView::pattern(seed, wants[i].offset, wants[i].len))) {
        co_return error(Errc::io_error, "lanl3: cb read verification failed");
      }
    }
    co_return Status::Ok();
  };
  spec.bytes_override = per_proc * static_cast<std::uint64_t>(nprocs);
  return spec;
}

JobSpec noncontig(int nprocs, std::uint64_t total_bytes, std::uint64_t field,
                  std::uint64_t stride, TargetOptions target, iolib::CbConfig cb) {
  JobSpec spec;
  spec.file = "noncontig";
  spec.target = target;
  const std::uint64_t elements = total_bytes / stride;
  const std::uint64_t rounds = elements / static_cast<std::uint64_t>(nprocs);
  // Element e = round * nprocs + rank; each rank touches the leading
  // `field` bytes of its elements, leaving a stride-field hole to the next.
  const OpGen gen = [=](int rank, int np) {
    std::vector<IoOp> ops;
    ops.reserve(rounds);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ops.push_back(IoOp{(r * np + static_cast<std::uint64_t>(rank)) * stride, field});
    }
    return ops;
  };
  const std::uint64_t seed = spec.seed;

  spec.write_fn = [gen, cb, seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    std::vector<iolib::CbChunk> chunks = cb_chunks(gen(comm.rank(), comm.size()), seed);
    co_return co_await iolib::cb_write(comm, cb, std::move(chunks), bind_write(t));
  };
  spec.read_fn = [gen, cb, seed](mpi::Comm& comm, Target& t) -> sim::Task<Status> {
    const std::vector<iolib::CbRange> wants = cb_ranges(gen(comm.rank(), comm.size()));
    std::vector<FragmentList> got;
    TIO_CO_RETURN_IF_ERROR(co_await iolib::cb_read(comm, cb, wants, bind_read(t), &got));
    for (std::size_t i = 0; i < wants.size(); ++i) {
      if (!got[i].content_equals(DataView::pattern(seed, wants[i].offset, wants[i].len))) {
        co_return error(Errc::io_error, "noncontig: cb read verification failed");
      }
    }
    co_return Status::Ok();
  };
  spec.bytes_override = rounds * static_cast<std::uint64_t>(nprocs) * field;
  return spec;
}

}  // namespace tio::workloads
