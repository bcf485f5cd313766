// The evaluation's workload generators.
//
// Synthetic benchmarks: MPI-IO Test (LANL's tunable generator, used for
// Figs. 4 and 8a) and IOR (LLNL). Application-derived I/O kernels: Pixie3D
// (pnetcdf), Saudi ARAMCO (HDF5, strong scaling), MADbench (out-of-core
// matrices), LANL 1 (weak scaling, ~500 KB strided records), and LANL 3
// (strong scaling, 1 KiB records through collective buffering). The two
// LANL mission codes are closed; their kernels here are synthesized from
// the access-pattern parameters the paper discloses (see DESIGN.md).
#pragma once

#include "iolib/collective_buffer.h"
#include "workloads/harness.h"

namespace tio::workloads {

// offset = (round * nprocs + rank) * record — the interleaved N-1 pattern.
OpGen strided_ops(std::uint64_t bytes_per_proc, std::uint64_t record);
// offset = rank * bytes_per_proc + round * record — contiguous segments.
OpGen segmented_ops(std::uint64_t bytes_per_proc, std::uint64_t record);

// --- synthetic benchmarks ---
// MPI-IO Test as configured in Section IV-C: 50 MB per stream in ~50 KB
// records, N-1 strided.
JobSpec mpiio_test(std::uint64_t bytes_per_proc, std::uint64_t record, TargetOptions target);

// --- application kernels (Fig. 5) ---
// Pixie3D: weak scaling through TinyNc, `bytes_per_proc` split over nvars
// record variables (paper: 1 GB per process).
JobSpec pixie3d(int nprocs, std::uint64_t bytes_per_proc, int nvars, TargetOptions target);
// ARAMCO: strong scaling through TinyHdf; fixed dataset regardless of
// process count.
JobSpec aramco(int nprocs, std::uint64_t dataset_bytes, std::uint64_t chunk_bytes,
               TargetOptions target);
// MADbench: writes `matrices` out-of-core matrices segment-per-process,
// reads them back in their entirety.
JobSpec madbench(std::uint64_t matrix_bytes_per_proc, int matrices, TargetOptions target);
// LANL 1: weak scaling, five-hundred-thousand-byte strided records.
JobSpec lanl1(std::uint64_t bytes_per_proc, TargetOptions target);
// LANL 3: strong scaling, 1024-byte records, collective buffering enabled
// via MPI-IO hints (paper Section IV-D6; 32 GB total in the paper).
JobSpec lanl3(int nprocs, std::uint64_t total_bytes, TargetOptions target,
              iolib::CbConfig cb = {});
// Noncontiguous field access: the file is an array of `stride`-byte
// elements and every rank touches only the leading `field` bytes of the
// elements it owns (round-robin). Unlike LANL 3's strided records the
// union of all ranks' requests leaves (stride - field)-byte holes between
// runs, so this is the pattern where read-side data sieving pays off.
// `total_bytes` is the file extent; actual data moved is
// total_bytes * field / stride.
JobSpec noncontig(int nprocs, std::uint64_t total_bytes, std::uint64_t field,
                  std::uint64_t stride, TargetOptions target, iolib::CbConfig cb = {});

}  // namespace tio::workloads
