#pragma once
/// \file panel_qr.hpp
/// Replayable tall-panel QR, built from the SAME GEQRT/TSQRT/UNMQR/TSMQR
/// kernels as the square band reduction:
///
///   1. Every sweep keeps its OWN tau block. Retaining them makes the
///      factorization replayable: the implicit Q can be applied later.
///   2. panel_apply_q replays the sweeps BACKWARD through the
///      ApplyDir::Backward kernel variants, composing C <- Q * C — the
///      ORGQR/ORMQR(trans='N') role, without ever materializing Q
///      (m_pad x m_pad).
///
/// The dense driver (core/svd.cpp) factors every tall input A = Q R here
/// and solves the small R. A vector job's back-transformation then replays,
/// through panel_apply_q, Stage 1's kept sweeps and then this Q onto the
/// vectors in m_pad x n_pad slabs, never an m_pad^2 working set. Applied
/// onto [I; 0], panel_apply_q also yields an orthonormal basis of a panel's
/// range.

#include <algorithm>

#include "common/matrix.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/band_reduction.hpp"

namespace unisvd::qr {

/// Factor a tall padded panel A (rows >= cols, both TILESIZE multiples) by
/// column sweeps, retaining every sweep's reflectors: on exit A holds R in
/// its top triangle and the Householder tails below, and TauAll (at least
/// panel_tau_rows(ntrows, ntcols) x TILESIZE) holds one tau block per
/// sweep, stacked by sweep index.
template <class T>
void panel_qr_factor(ka::Backend& be, MatrixView<T> A, MatrixView<T> TauAll,
                     const qr::KernelConfig& cfg,
                     ka::StageTimes* times = nullptr) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() >= A.cols(),
                 "panel_qr_factor: panel must be tall (rows >= cols)");
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0 && A.cols() % cfg.tilesize == 0,
                 "panel_qr_factor: extents must be multiples of TILESIZE");
  const index_t ntrows = A.rows() / cfg.tilesize;
  const index_t ntcols = A.cols() / cfg.tilesize;
  UNISVD_REQUIRE(TauAll.rows() >= panel_tau_rows(ntrows, ntcols) &&
                     TauAll.cols() >= cfg.tilesize,
                 "panel_qr_factor: TauAll workspace too small");
  for (index_t k = 0; k < ntcols; ++k) {
    MatrixView<T> tau = TauAll.block(k * ntrows, 0, ntrows, cfg.tilesize);
    qr::qr_sweep(be, A, tau, k, k, ntrows, ntcols, cfg, times);
  }
}

/// C <- Q * C for a factorization whose sweeps kept their own tau blocks:
/// panel_qr_factor's (A, TauAll) with `row_off` = 0, or one side of
/// band_reduction as band_reflectors gives it. Sweep k's panel starts at
/// tile row k + row_off, and its tau block at row k * (A.rows() / TILESIZE)
/// of TauAll. C is compute-precision (or any storage type), >= A.rows()
/// rows and a TILESIZE multiple of columns. The replay runs the sweeps in
/// reverse — last sweep first, TSQRT chain before GEQRT, rows descending —
/// with each kernel in ApplyDir::Backward, exactly inverting the
/// factorization's order.
template <class TS, class TA>
void panel_apply_q(ka::Backend& be, MatrixView<TS> A, MatrixView<TS> TauAll,
                   MatrixView<TA> C, const qr::KernelConfig& cfg,
                   ka::StageTimes* times = nullptr, index_t row_off = 0) {
  cfg.validate();
  UNISVD_REQUIRE(A.rows() % cfg.tilesize == 0 && A.cols() % cfg.tilesize == 0,
                 "panel_apply_q: extents must be multiples of TILESIZE");
  UNISVD_REQUIRE(C.rows() >= A.rows() && C.cols() % cfg.tilesize == 0,
                 "panel_apply_q: target must cover the panel rows and be a "
                 "TILESIZE multiple of columns");
  const index_t ntrows = A.rows() / cfg.tilesize;
  const index_t sweeps = std::min(A.cols() / cfg.tilesize, ntrows - row_off);
  UNISVD_REQUIRE(row_off >= 0 && TauAll.rows() >= sweeps * ntrows &&
                     TauAll.cols() >= cfg.tilesize,
                 "panel_apply_q: TauAll workspace too small");
  const index_t cnt = C.cols() / cfg.tilesize;
  for (index_t k = sweeps; k-- > 0;) {
    MatrixView<TS> tau = TauAll.block(k * ntrows, 0, ntrows, cfg.tilesize);
    const index_t row0 = k + row_off;
    if (row0 + 1 < ntrows) {
      if (cfg.fused) {
        qr::tsmqr_apply_q(be, A, tau, C, row0, k, row0 + 1, ntrows, 0, cnt, cfg,
                          times);
      } else {
        for (index_t l = ntrows; l-- > row0 + 1;) {
          qr::tsmqr_apply_q(be, A, tau, C, row0, k, l, l + 1, 0, cnt, cfg, times);
        }
      }
    }
    qr::unmqr_apply_q(be, A, tau, C, row0, k, 0, cnt, cfg, times);
  }
}

}  // namespace unisvd::qr
