#pragma once
/// \file band_reduction.hpp
/// SVD Stage 1: reduction of a dense square matrix to band form
/// (paper Algorithms 1 & 2).
///
/// For each diagonal tile k: a QR sweep makes tile (k,k) upper triangular
/// and annihilates the tile column below it, updating the trailing tiles;
/// then an LQ sweep — the SAME kernels applied to the lazy-transposed view
/// (Julia's `A'` in Algorithm 2) — makes tile (k, k+1) lower triangular and
/// annihilates the rest of tile row k. The result is an upper band matrix
/// of bandwidth TILESIZE: upper-triangular diagonal tiles and
/// lower-triangular superdiagonal tiles.

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/geqrt.hpp"
#include "qr/kernel_config.hpp"
#include "qr/tsmqr.hpp"
#include "qr/tsqrt.hpp"
#include "qr/unmqr.hpp"

namespace unisvd::qr {

/// One panel sweep (factorization + trailing update) on working view W:
/// panel is tile column k starting at tile row row0, annihilated down to
/// tile row ntrows-1; the trailing update covers tile columns
/// [k+1, ntcols). The grid may be rectangular (tall QR preprocessing).
///
/// When `acc` is non-null the sweep additionally accumulates its orthogonal
/// transform into the compute-precision accumulator: every reflector set is
/// applied (as Q^T from the left, via unmqr_apply/tsmqr_apply) to ALL tile
/// columns of *acc immediately after its factorization, in the same order
/// the trailing update sees it. Seeding the accumulator with the identity
/// therefore yields Q_sweep^T after the sweep; threading the same
/// accumulator through every sweep yields the transposed left (QR sweeps)
/// or right (LQ sweeps on the lazy-transposed view) factor of the whole
/// reduction. The values path (acc == nullptr) launches exactly the same
/// kernels on W as before — results stay bit-identical.
template <class T>
void qr_sweep(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntrows, index_t ntcols, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr,
              MatrixView<compute_t<T>>* acc = nullptr) {
  const index_t acc_nt = acc != nullptr ? acc->cols() / cfg.tilesize : 0;
  geqrt(be, W, row0, k, Tau, cfg, times);
  if (k + 1 < ntcols) {
    unmqr(be, W, row0, k, k + 1, ntcols, Tau, cfg, times);
  }
  if (acc != nullptr) {
    unmqr_apply(be, W, Tau, *acc, row0, k, 0, acc_nt, cfg, times);
  }
  if (row0 + 1 >= ntrows) return;

  if (cfg.fused) {
    tsqrt(be, W, row0, k, row0 + 1, ntrows, Tau, cfg, times);
    if (k + 1 < ntcols) {
      tsmqr(be, W, row0, k, row0 + 1, ntrows, k + 1, ntcols, Tau, cfg, times);
    }
    if (acc != nullptr) {
      tsmqr_apply(be, W, Tau, *acc, row0, k, row0 + 1, ntrows, 0, acc_nt, cfg,
                  times);
    }
  } else {
    for (index_t l = row0 + 1; l < ntrows; ++l) {
      tsqrt(be, W, row0, k, l, l + 1, Tau, cfg, times);
      if (k + 1 < ntcols) {
        tsmqr(be, W, row0, k, l, l + 1, k + 1, ntcols, Tau, cfg, times);
      }
      if (acc != nullptr) {
        tsmqr_apply(be, W, Tau, *acc, row0, k, l, l + 1, 0, acc_nt, cfg, times);
      }
    }
  }
}

/// One GETSMQRT sweep of Algorithm 2 (square grid). For QR sweeps
/// row0 == k; for LQ sweeps W is the transposed view and row0 == k + 1.
template <class T>
void getsmqrt(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntiles, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr,
              MatrixView<compute_t<T>>* acc = nullptr) {
  qr_sweep(be, W, Tau, k, row0, ntiles, ntiles, cfg, times, acc);
}

/// Reduce A (square, extent divisible by TILESIZE) to upper band form of
/// bandwidth TILESIZE via alternating QR/LQ sweeps (Algorithm 2). Tau is an
/// (ntiles x TILESIZE) workspace in storage precision, reused per sweep.
///
/// Optional singular-vector accumulation (SvdJob::Thin/Full): `ut` receives
/// the transposed left factor (QR sweeps: ut <- Q_sweep^T * ut), `vt` the
/// transposed right factor (LQ sweeps on the lazy-transposed view:
/// vt <- P_sweep^T * vt). Seed both with the identity to obtain
/// A = ut^T * Band * vt on exit (in exact arithmetic). Accumulators are
/// compute-precision views whose row/column extent is a multiple of
/// TILESIZE covering at least the sweep row range; the extra kernel
/// launches are attributed to Stage::VectorAccumulation and never touch A,
/// so the band (and the singular values downstream) is bit-identical with
/// or without accumulation.
template <class T>
void band_reduction(ka::Backend& be, MatrixView<T> A, MatrixView<T> Tau,
                    const KernelConfig& cfg, ka::StageTimes* times = nullptr,
                    MatrixView<compute_t<T>>* ut = nullptr,
                    MatrixView<compute_t<T>>* vt = nullptr) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() == A.cols(), "band_reduction: matrix must be square");
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0,
                 "band_reduction: extent must be a multiple of TILESIZE");
  const index_t ntiles = A.rows() / cfg.tilesize;
  UNISVD_REQUIRE(Tau.rows() >= ntiles && Tau.cols() >= cfg.tilesize,
                 "band_reduction: Tau workspace too small");

  for (index_t k = 0; k + 1 < ntiles; ++k) {
    getsmqrt(be, A, Tau, k, k, ntiles, cfg, times, ut);                  // QR sweep
    getsmqrt(be, A.transposed(), Tau, k, k + 1, ntiles, cfg, times, vt); // LQ sweep
  }
  getsmqrt(be, A, Tau, ntiles - 1, ntiles - 1, ntiles, cfg, times, ut);
}

/// Emit the exact Phase-1 launch schedule for an (ntiles*ts)^2 matrix into
/// `trace` without executing kernels or touching matrix memory — used to
/// drive the GPU performance model at sizes far beyond what is worth
/// executing. The schedule is produced by the SAME orchestration code as
/// the real run (tested equal).
template <class T>
void schedule_band_reduction(index_t ntiles, const KernelConfig& cfg,
                             ka::TraceRecorder& trace) {
  ka::TraceBackend be;
  be.set_trace(&trace);
  const index_t n = ntiles * cfg.tilesize;
  MatrixView<T> a(nullptr, n, n, n);
  MatrixView<T> tau(nullptr, ntiles, cfg.tilesize, ntiles);
  band_reduction<T>(be, a, tau, cfg);
}

}  // namespace unisvd::qr
