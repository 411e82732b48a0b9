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
template <class T>
void qr_sweep(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntrows, index_t ntcols, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr) {
  geqrt(be, W, row0, k, Tau, cfg, times);
  if (k + 1 < ntcols) {
    unmqr(be, W, row0, k, k + 1, ntcols, Tau, cfg, times);
  }
  if (row0 + 1 >= ntrows) return;

  if (cfg.fused) {
    tsqrt(be, W, row0, k, row0 + 1, ntrows, Tau, cfg, times);
    if (k + 1 < ntcols) {
      tsmqr(be, W, row0, k, row0 + 1, ntrows, k + 1, ntcols, Tau, cfg, times);
    }
  } else {
    for (index_t l = row0 + 1; l < ntrows; ++l) {
      tsqrt(be, W, row0, k, l, l + 1, Tau, cfg, times);
      if (k + 1 < ntcols) {
        tsmqr(be, W, row0, k, l, l + 1, k + 1, ntcols, Tau, cfg, times);
      }
    }
  }
}

/// One GETSMQRT sweep of Algorithm 2 (square grid). For QR sweeps
/// row0 == k; for LQ sweeps W is the transposed view and row0 == k + 1.
template <class T>
void getsmqrt(ka::Backend& be, MatrixView<T> W, MatrixView<T> Tau, index_t k,
              index_t row0, index_t ntiles, const KernelConfig& cfg,
              ka::StageTimes* times = nullptr) {
  qr_sweep(be, W, Tau, k, row0, ntiles, ntiles, cfg, times);
}

/// Rows of a stacked tau workspace that keeps one (ntrows x TILESIZE) tau
/// block per sweep of an (ntrows x ntcols)-tile panel, stacked by sweep
/// index: panel_qr_factor's, and each of band_reduction's two stacks.
[[nodiscard]] constexpr index_t panel_tau_rows(index_t ntrows,
                                               index_t ntcols) noexcept {
  return ntrows * ntcols;
}

/// Rows of a band_reduction Tau workspace that keeps every sweep's tau
/// block: the QR sweeps' stack, then the LQ sweeps'.
[[nodiscard]] constexpr index_t band_tau_rows(index_t ntiles) noexcept {
  return 2 * panel_tau_rows(ntiles, ntiles);
}

/// The kept reflectors of one orthogonal factor, as panel_apply_q replays
/// them: sweep k's panel starts at tile row k + row_off of `a`, and its tau
/// block at row k * (a.rows() / TILESIZE) of `tau`.
template <class T>
struct SweepReflectors {
  MatrixView<T> a;    ///< factored matrix holding the reflector tails
  MatrixView<T> tau;  ///< one tau block per sweep, stacked by sweep index
  index_t row_off;    ///< tile row of sweep 0's panel
};

/// One side of band_reduction(A, Tau): Q1, the QR sweeps on A, or (`lq`)
/// P1, the LQ sweeps on A's transpose, whose sweep k factors tile row k + 1
/// down. With band_tau_rows(ntiles) rows, Tau holds the QR sweeps' stack
/// and then the LQ sweeps'; a shorter Tau is the one block every sweep
/// reuses (values-only), and both sides see all of it.
template <class T>
[[nodiscard]] SweepReflectors<T> band_reflectors(MatrixView<T> A, MatrixView<T> Tau,
                                                 index_t ts, bool lq) {
  const index_t ntiles = A.rows() / ts;
  const index_t stack = panel_tau_rows(ntiles, ntiles);
  const MatrixView<T> tau = Tau.rows() >= band_tau_rows(ntiles)
                                ? Tau.block(lq ? stack : 0, 0, stack, ts)
                                : Tau;
  return lq ? SweepReflectors<T>{A.transposed(), tau, 1}
            : SweepReflectors<T>{A, tau, 0};
}

/// Reduce A (square, extent divisible by TILESIZE) to upper band form of
/// bandwidth TILESIZE via alternating QR/LQ sweeps (Algorithm 2).
///
/// Tau (storage precision) is either one (ntiles x TILESIZE) block that
/// every sweep reuses (values-only), or band_tau_rows(ntiles) rows that
/// keep each sweep's block (vector jobs). The kernels on A are the same
/// either way. Every reflector tail stays in A outside the band — QR tails
/// below the diagonal tiles, LQ tails in the strictly upper part of the
/// superdiagonal tiles and beyond — and no later sweep overwrites it, so
/// band_reflectors(A, Tau) are Q1 and P1 for the back-transformation.
template <class T>
void band_reduction(ka::Backend& be, MatrixView<T> A, MatrixView<T> Tau,
                    const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() == A.cols(), "band_reduction: matrix must be square");
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0,
                 "band_reduction: extent must be a multiple of TILESIZE");
  const index_t ntiles = A.rows() / cfg.tilesize;
  UNISVD_REQUIRE(Tau.rows() >= ntiles && Tau.cols() >= cfg.tilesize,
                 "band_reduction: Tau workspace too small");
  const bool keep = Tau.rows() >= band_tau_rows(ntiles);
  const auto q1 = band_reflectors(A, Tau, cfg.tilesize, false);
  const auto p1 = band_reflectors(A, Tau, cfg.tilesize, true);
  const auto sweep = [&](const SweepReflectors<T>& side, index_t k) {
    const MatrixView<T> tau =
        keep ? side.tau.block(k * ntiles, 0, ntiles, cfg.tilesize) : side.tau;
    getsmqrt(be, side.a, tau, k, k + side.row_off, ntiles, cfg, times);
  };

  for (index_t k = 0; k + 1 < ntiles; ++k) {
    sweep(q1, k);  // QR
    sweep(p1, k);  // LQ
  }
  sweep(q1, ntiles - 1);
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
