#pragma once
/// \file gemm.hpp
/// Sketch GEMM kernel: Y = (A / scale) * Omega through the ka:: launch
/// path — the randomized range finder's only dense product (everything
/// downstream reuses the tiled QR kernels).
///
/// Grid: one workgroup per (row tile, column block) of Y; COLPERBLOCK
/// work-items per group, each owning one output column of the tile. Per
/// reduction step a column reads one Omega element and streams a contiguous
/// column segment of A — the column-major-friendly axpy ordering. On the
/// CPU the group sweeps A once per kSketchCols columns. Accumulation runs
/// in the compute precision; the store into Y rounds once (storage
/// precision), matching the pipeline's upcast/downcast policy.
///
/// Launches go through Backend::launch like every Stage-1 kernel, so
/// batched scheduling applies unchanged: inter-problem slots run the
/// sketch inline, Mixed-schedule slots publish its workgroups for stealing.

#include <algorithm>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"
#include "qr/lane_chunk.hpp"

namespace unisvd::rsvd {

/// Output columns one sketch_gemm sweep over A updates (see the kernel).
inline constexpr int kSketchCols = 4;

/// y(0:m, 0:l) = a * omega / scale, with a m x n (any storage type, lazy
/// transpose respected), omega n x l in compute precision, y at least
/// m x l (padding rows/columns beyond m x l are left untouched — callers
/// zero-fill them). scale == 1 skips the division exactly.
template <class T>
void sketch_gemm(ka::Backend& be, ConstMatrixView<T> a,
                 ConstMatrixView<compute_t<T>> omega, MatrixView<T> y,
                 double scale, const qr::KernelConfig& cfg,
                 ka::StageTimes* times = nullptr) {
  using CT = compute_t<T>;
  UNISVD_REQUIRE(a.cols() == omega.rows(), "sketch_gemm: inner extents differ");
  UNISVD_REQUIRE(y.rows() >= a.rows() && y.cols() >= omega.cols(),
                 "sketch_gemm: output too small");
  const int ts = cfg.tilesize;
  const int cpb = cfg.colperblock;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t l = omega.cols();
  const index_t row_tiles = (m + ts - 1) / ts;
  const index_t col_blocks = (l + cpb - 1) / cpb;
  const auto s = static_cast<CT>(scale);

  ka::LaunchDesc desc;
  desc.name = "sketch_gemm";
  desc.stage = ka::Stage::RandomizedSketch;
  desc.num_groups = row_tiles * col_blocks;
  desc.group_size = cpb;
  desc.local_bytes = 0;
  desc.private_bytes_per_item = static_cast<std::size_t>(ts) * sizeof(CT);
  desc.precision = precision_of<T>;
  desc.cost.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                    static_cast<double>(l);
  desc.cost.bytes_read = static_cast<double>(col_blocks) * m * n * sizeof(T) +
                         static_cast<double>(row_tiles) * n * l * sizeof(CT);
  desc.cost.bytes_written = static_cast<double>(m) * l * sizeof(T);
  desc.cost.serial_iterations = static_cast<double>(n);

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(sketch-gemm)
    // kSketchCols output columns per sweep of A, so every A segment loaded
    // feeds that many axpys (the register blocking that lifts the kernel
    // off the A-stream bandwidth ceiling). A is read in place when its
    // column segment is contiguous and already in compute precision, and
    // staged through a local column otherwise. Per output element the
    // products a(r, kk) * w still accumulate in kk order with zero weights
    // skipped, as in a one-column-per-work-item body, so the bits do not
    // depend on the blocking, COLPERBLOCK or the ISA.
    constexpr int CB = kSketchCols;
    auto Acc = wg.local<CT>(static_cast<std::size_t>(CB) * ts);
    auto Acol = wg.local<CT>(static_cast<std::size_t>(ts));
    const index_t rt = wg.group_id() % row_tiles;
    const index_t cb = wg.group_id() / row_tiles;
    const index_t rbase = rt * ts;
    const int len = static_cast<int>(std::min<index_t>(m, rbase + ts) - rbase);
    const index_t cg0 = cb * cpb;
    const int ncg = static_cast<int>(std::min<index_t>(cpb, l - cg0));

    for (int t0 = 0; t0 < ncg; t0 += CB) {
      const int ncb = std::min(CB, ncg - t0);
      for (int i = 0; i < CB * ts; ++i) Acc[i] = CT(0);
      for (index_t kk = 0; kk < n; ++kk) {
        CT w[CB] = {};
        bool all_nz = ncb == CB;
        for (int j = 0; j < ncb; ++j) {
          w[j] = omega.at(kk, cg0 + t0 + j);
          all_nz = all_nz && w[j] != CT(0);
        }
        const CT* acol = qr::stage_column(a, rbase, kk, 0, len, Acol.data());
        if (all_nz) {
          // Disjoint ts-slices of local memory, apart from A: restrict spares
          // the vectorized loop its runtime overlap checks on every kk.
          CT* __restrict a0 = Acc.data();
          CT* __restrict a1 = a0 + ts;
          CT* __restrict a2 = a1 + ts;
          CT* __restrict a3 = a2 + ts;
          const CT* __restrict av = acol;
          for (int r = 0; r < len; ++r) {
            const CT v = av[r];
            a0[r] += v * w[0];
            a1[r] += v * w[1];
            a2[r] += v * w[2];
            a3[r] += v * w[3];
          }
        } else {
          for (int j = 0; j < ncb; ++j) {
            if (w[j] == CT(0)) continue;
            CT* acc = Acc.data() + static_cast<std::size_t>(j) * ts;
            for (int r = 0; r < len; ++r) acc[r] += acol[r] * w[j];
          }
        }
      }
      for (int j = 0; j < ncb; ++j) {
        const CT* acc = Acc.data() + static_cast<std::size_t>(j) * ts;
        const index_t c = cg0 + t0 + j;
        for (int r = 0; r < len; ++r) {
          const CT v = scale == 1.0 ? acc[r] : acc[r] / s;
          y.at(rbase + r, c) = static_cast<T>(v);
        }
      }
    }
    // unisvd-lint: end-kernel
  }, times);
}

}  // namespace unisvd::rsvd
