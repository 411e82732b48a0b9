#pragma once
/// \file unmqr.hpp
/// UNMQR: apply GEQRT reflectors to a tile row (paper Algorithm 4).
///
/// Massively parallel trailing update: each work-item owns one column of
/// the trailing tiles; COLPERBLOCK work-items form a workgroup. The tau_hat
/// vector and each Householder column are staged into local memory, then
/// every column applies the reflector independently (BLAS3-like
/// parallelism). On the CPU the work-items of a group run as the lanes of
/// one loop (qr/lane_chunk.hpp).
///
/// ONE kernel body serves two call shapes: the classic trailing update
/// (`unmqr` — reflector source and update target are the same working
/// matrix, Q^T, Stage::TrailingUpdate) and the back-transformation
/// (`unmqr_apply_q` — Q onto a separate target with its own storage type,
/// Stage::VectorAccumulation). Keeping a single body guarantees the two
/// paths can never drift numerically.
///
/// NOTE (paper erratum): Algorithm 4 line 11 prints `X_i[k:] -= rho`,
/// which combined with line 12 would update X_i[k+1:] twice. The correct
/// Householder application — and what the Julia kernel of Algorithm 5
/// computes — is X_i[k] -= rho; X_i[k+1:] -= rho * A_k[k+1:]. We implement
/// the correct form.

#include <algorithm>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"
#include "qr/lane_chunk.hpp"

namespace unisvd::qr {

namespace detail {

/// Apply Q^T (ApplyDir::Forward) or Q (Backward) of GEQRT(tile (row0, k) of
/// V, tau row row0 of Tau) to tile row row0 of C, tile columns
/// [jbegin, jend). V and C may be the same matrix (trailing update) or
/// different ones (back-transformation); the compute type follows the
/// target.
template <class TS, class TA>
void unmqr_impl(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                MatrixView<TA> C, index_t row0, index_t k, index_t jbegin,
                index_t jend, const KernelConfig& cfg, ka::Stage stage,
                ka::StageTimes* times, ApplyDir dir = ApplyDir::Forward) {
  using CT = compute_t<TA>;
  const int ts = cfg.tilesize;
  const int cpb = cfg.colperblock;
  const index_t ncols = (jend - jbegin) * ts;
  if (ncols <= 0 || ts < 2) return;  // a 1-row tile has no reflector
  const index_t wgs = (ncols + cpb - 1) / cpb;
  const index_t rbase = row0 * ts;
  const index_t cbase = k * ts;
  const index_t col0 = jbegin * ts;
  const index_t colend = jend * ts;

  ka::LaunchDesc desc;
  desc.name = "unmqr";
  desc.stage = stage;
  desc.num_groups = wgs;
  desc.group_size = cpb;
  desc.local_bytes = static_cast<std::size_t>(2 * ts) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(ts + 1) * sizeof(CT);
  desc.precision = precision_of<TA>;
  desc.cost.flops = cost::unmqr_flops(ts, ncols);
  desc.cost.bytes_read = cost::unmqr_bytes_r(ts, ncols, wgs, sizeof(TA), sizeof(TS));
  desc.cost.bytes_written = cost::unmqr_bytes_w(ts, ncols, sizeof(TA));
  desc.cost.serial_iterations = 2.0 * ts;

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(unmqr)
    // Lanes run ACROSS the group's columns, one lane chunk at a time
    // (qr/lane_chunk.hpp): lane j is work-item j of Algorithm 4. Per lane
    // the sequence (sequential reduction down the column, scale, rank-1
    // update) is the work-item's, so the bits do not depend on the ISA, the
    // chunk or COLPERBLOCK. Pad lanes are zeroed, never stored.
    constexpr int W = kLaneChunk;
    auto Xc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
    auto Ak = wg.local<CT>(static_cast<std::size_t>(2 * ts));
    auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
    const index_t cg0 = col0 + wg.group_id() * cpb;
    const int nc = static_cast<int>(std::min<index_t>(cpb, colend - cg0));
    for (int idx = 0; idx < ts; ++idx) {
      Tk[idx] = static_cast<CT>(Tau.at(row0, idx));
    }

    // Forward composes Q^T (factorization order); Backward composes Q by
    // walking the same symmetric reflectors in reverse.
    const auto kk_of = [&](int step) {
      return dir == ApplyDir::Forward ? step : ts - 2 - step;
    };
    // Householder column of `step`. Staging alternates between two buffers
    // so the current column survives staging the next.
    const auto column = [&](int step) {
      const int kk = kk_of(step);
      return stage_column(V, rbase, cbase + kk, kk + 1, ts,
                          Ak.data() + (step % 2) * ts);
    };
    const auto xrow = [&](int r) { return Xc.data() + r * W; };

    for (int j0 = 0; j0 < nc; j0 += W) {
      const int ncb = std::min(W, nc - j0);
      load_chunk(Xc.data(), C, rbase, cg0 + j0, ts, ncb);

      int kk = kk_of(0);
      const CT* a = column(0);
      CT rho[W];
      for (int j = 0; j < W; ++j) rho[j] = xrow(kk)[j];
      for (int r = kk + 1; r < ts; ++r) {
        const CT akr = a[r];
        const CT* Xr = xrow(r);
        for (int j = 0; j < W; ++j) rho[j] += Xr[j] * akr;
      }
      for (int step = 0;; ++step) {
        const CT tkk = Tk[kk];
        CT* Xkk = xrow(kk);
        for (int j = 0; j < W; ++j) {
          rho[j] *= tkk;
          Xkk[j] -= rho[j];
        }
        if (step + 2 == ts) {  // last reflector: the rank-1 update alone
          for (int r = kk + 1; r < ts; ++r) {
            const CT akr = a[r];
            CT* Xr = xrow(r);
            for (int j = 0; j < W; ++j) Xr[j] -= rho[j] * akr;
          }
          break;
        }
        // The rank-1 update of reflector kk also runs the reduction of the
        // next reflector kn over the rows it has just updated: one sweep of
        // the tile instead of two, each lane's operations in the same order.
        const int kn = kk_of(step + 1);
        const CT* an = column(step + 1);
        CT next[W];
        int r = kk + 1;
        if (kn > kk) {  // Forward: the reduction starts at row kn = kk + 1
          const CT akr = a[r];
          CT* Xr = xrow(r);
          for (int j = 0; j < W; ++j) {
            Xr[j] -= rho[j] * akr;
            next[j] = Xr[j];
          }
          ++r;
        } else {  // Backward: row kn = kk - 1 precedes reflector kk's rows
          const CT ank = an[kk];
          const CT* Xn = xrow(kn);
          for (int j = 0; j < W; ++j) next[j] = Xn[j] + Xkk[j] * ank;
        }
        for (; r < ts; ++r) {
          const CT akr = a[r];
          const CT anr = an[r];
          CT* Xr = xrow(r);
          for (int j = 0; j < W; ++j) {
            Xr[j] -= rho[j] * akr;
            next[j] += Xr[j] * anr;
          }
        }
        for (int j = 0; j < W; ++j) rho[j] = next[j];
        kk = kn;
        a = an;
      }

      store_chunk(C, Xc.data(), rbase, cg0 + j0, ts, ncb);
    }
    // unisvd-lint: end-kernel
  }, times);
}

}  // namespace detail

/// Apply Q^T of GEQRT(tile (row0, k)) to tiles (row0, j), j in [jbegin, jend).
template <class T>
void unmqr(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           index_t jbegin, index_t jend, MatrixView<T> Tau,
           const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  detail::unmqr_impl(be, W, Tau, W, row0, k, jbegin, jend, cfg,
                     ka::Stage::TrailingUpdate, times);
}

/// Backward (un-transposed) application: C <- Q * C for the GEQRT reflector
/// set of tile (row0, k) of `V`, applied to tile row `row0` of a separate
/// target `C`, tile columns [jbegin, jend) — the same kernel body as unmqr
/// with the reflector loop reversed (each Householder factor is symmetric,
/// so reversing the order composes Q instead of Q^T). The reflectors stay
/// in storage precision while C may be in compute precision (FP32 for FP16
/// inputs). Used through panel_apply_q, the role LAPACK's ORMQR with
/// trans='N' plays. Launches are attributed to Stage::VectorAccumulation.
template <class TS, class TA>
void unmqr_apply_q(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                   MatrixView<TA> C, index_t row0, index_t k, index_t jbegin,
                   index_t jend, const KernelConfig& cfg,
                   ka::StageTimes* times = nullptr) {
  detail::unmqr_impl(be, V, Tau, C, row0, k, jbegin, jend, cfg,
                     ka::Stage::VectorAccumulation, times, ApplyDir::Backward);
}

}  // namespace unisvd::qr
