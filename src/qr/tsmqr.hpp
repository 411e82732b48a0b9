#pragma once
/// \file tsmqr.hpp
/// TSMQR / FTSMQR: apply TSQRT reflectors to a pair of tile rows
/// (paper Algorithm 5 — the fused kernel shown in Julia).
///
/// For reflector kk of the TSQRT at tile (l, k), the update of a column
/// pair (y = top-row column, x = bottom-row column) is
///     rho  = tau_hat[kk] * (y[kk] + x . v_kk)
///     y[kk] -= rho;     x -= rho * v_kk
/// The fused form walks all bottom tile rows [lbegin, lend) inside one
/// launch while the top-row column y stays in registers (`Yi` in
/// Algorithm 5) — the memory-traffic and launch-count saving of Figure 2.
/// nrows == 1 recovers the classic per-row TSMQR.
///
/// ONE kernel body serves two call shapes: the classic trailing update
/// (`tsmqr` — reflector source and update target are the same working
/// matrix, Q^T, Stage::TrailingUpdate) and the back-transformation
/// (`tsmqr_apply_q` — Q onto a separate target with its own storage type,
/// Stage::VectorAccumulation). Keeping a single body guarantees the two
/// paths can never drift numerically.

#include <algorithm>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"
#include "qr/lane_chunk.hpp"

namespace unisvd::qr {

namespace detail {

/// Apply the TSQRT reflector sets of tiles (l, k) of V, l in [lbegin,
/// lend) (tau rows l of Tau), to tile rows row0 (top) and l (bottom) of C,
/// tile columns [jbegin, jend). V and C may be the same matrix (trailing
/// update) or different ones (back-transformation); the compute type
/// follows the target. ApplyDir::Forward composes Q^T (factorization
/// order); Backward walks both the row chain and each tile's reflectors in
/// reverse, composing Q.
template <class TS, class TA>
void tsmqr_impl(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                MatrixView<TA> C, index_t row0, index_t k, index_t lbegin,
                index_t lend, index_t jbegin, index_t jend,
                const KernelConfig& cfg, ka::Stage stage,
                ka::StageTimes* times, ApplyDir dir = ApplyDir::Forward) {
  using CT = compute_t<TA>;
  const int ts = cfg.tilesize;
  const int cpb = cfg.colperblock;
  const index_t nrows = lend - lbegin;
  const index_t ncols = (jend - jbegin) * ts;
  if (ncols <= 0 || nrows <= 0) return;
  const index_t wgs = (ncols + cpb - 1) / cpb;
  const index_t rtop = row0 * ts;
  const index_t cbase = k * ts;
  const index_t col0 = jbegin * ts;
  const index_t colend = jend * ts;

  ka::LaunchDesc desc;
  desc.name = nrows > 1 ? "ftsmqr" : "tsmqr";
  desc.stage = stage;
  desc.num_groups = wgs;
  desc.group_size = cpb;
  desc.local_bytes = static_cast<std::size_t>(2 * ts) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(2 * ts + 1) * sizeof(CT);
  desc.precision = precision_of<TA>;
  desc.cost.flops = cost::tsmqr_flops(ts, nrows, ncols);
  desc.cost.bytes_read =
      cost::tsmqr_bytes_r(ts, nrows, ncols, wgs, sizeof(TA), sizeof(TS));
  desc.cost.bytes_written = cost::tsmqr_bytes_w(ts, nrows, ncols, sizeof(TA));
  desc.cost.serial_iterations = 2.0 * ts * static_cast<double>(nrows);

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(tsmqr)
    // Lanes run ACROSS the group's columns, one lane chunk at a time
    // (qr/lane_chunk.hpp): lane j is work-item j of Algorithm 5, with its
    // top-row (Y) and bottom-row (X) columns in two staged tiles. Per lane
    // the sequence (zeroed dot over the full bottom column, combine with
    // y[kk], scale by tau_hat[kk], rank-1 update) is the work-item's, so
    // the bits do not depend on the ISA, the chunk or COLPERBLOCK. Pad
    // lanes are zeroed, never stored.
    constexpr int W = kLaneChunk;
    auto Yc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
    auto Xc = wg.local<CT>(static_cast<std::size_t>(ts) * W);
    auto Ak = wg.local<CT>(static_cast<std::size_t>(2 * ts));
    auto Tk = wg.local<CT>(static_cast<std::size_t>(ts));
    const index_t cg0 = col0 + wg.group_id() * cpb;
    const int nc = static_cast<int>(std::min<index_t>(cpb, colend - cg0));

    const auto kk_of = [&](int step) {
      return dir == ApplyDir::Forward ? step : ts - 1 - step;
    };
    // Reflector tail v_kk of `step` in bottom tile row rbot. Staging
    // alternates between two buffers so the current tail survives staging
    // the next.
    const auto tail = [&](index_t rbot, int step) {
      return stage_column(V, rbot, cbase + kk_of(step), 0, ts,
                          Ak.data() + (step % 2) * ts);
    };
    const auto xrow = [&](int r) { return Xc.data() + r * W; };

    for (int j0 = 0; j0 < nc; j0 += W) {
      const int ncb = std::min(W, nc - j0);
      // The top row is loaded ONCE per chunk for all bottom rows (Figure 2).
      load_chunk(Yc.data(), C, rtop, cg0 + j0, ts, ncb);

      for (index_t lstep = lbegin; lstep < lend; ++lstep) {
        const index_t l =
            dir == ApplyDir::Forward ? lstep : lend - 1 - (lstep - lbegin);
        const index_t rbot = l * ts;
        for (int idx = 0; idx < ts; ++idx) {
          Tk[idx] = static_cast<CT>(Tau.at(l, idx));
        }
        load_chunk(Xc.data(), C, rbot, cg0 + j0, ts, ncb);

        const CT* a = tail(rbot, 0);
        CT rho[W];
        for (int j = 0; j < W; ++j) rho[j] = CT(0);
        for (int r = 0; r < ts; ++r) {
          const CT akr = a[r];
          const CT* Xr = xrow(r);
          for (int j = 0; j < W; ++j) rho[j] += Xr[j] * akr;
        }
        for (int step = 0;; ++step) {
          const int kk = kk_of(step);
          const CT tkk = Tk[kk];
          CT* Ykk = Yc.data() + kk * W;
          for (int j = 0; j < W; ++j) {
            rho[j] = (rho[j] + Ykk[j]) * tkk;
            Ykk[j] -= rho[j];
          }
          if (step + 1 == ts) {  // last reflector: the rank-1 update alone
            for (int r = 0; r < ts; ++r) {
              const CT akr = a[r];
              CT* Xr = xrow(r);
              for (int j = 0; j < W; ++j) Xr[j] -= rho[j] * akr;
            }
            break;
          }
          // The rank-1 update of this reflector also runs the next
          // reflector's dot over the rows it has just updated: one sweep of
          // the tile instead of two, each lane's operations in the same
          // order.
          const CT* an = tail(rbot, step + 1);
          CT next[W];
          for (int j = 0; j < W; ++j) next[j] = CT(0);
          for (int r = 0; r < ts; ++r) {
            const CT akr = a[r];
            const CT anr = an[r];
            CT* Xr = xrow(r);
            for (int j = 0; j < W; ++j) {
              Xr[j] -= rho[j] * akr;
              next[j] += Xr[j] * anr;
            }
          }
          for (int j = 0; j < W; ++j) rho[j] = next[j];
          a = an;
        }

        store_chunk(C, Xc.data(), rbot, cg0 + j0, ts, ncb);
      }

      store_chunk(C, Yc.data(), rtop, cg0 + j0, ts, ncb);
    }
    // unisvd-lint: end-kernel
  }, times);
}

}  // namespace detail

/// Apply the TSQRT reflector sets of tiles (l, k), l in [lbegin, lend), to
/// the tile rows row0 (top) and l (bottom), columns [jbegin, jend) tiles.
template <class T>
void tsmqr(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           index_t lbegin, index_t lend, index_t jbegin, index_t jend,
           MatrixView<T> Tau, const KernelConfig& cfg,
           ka::StageTimes* times = nullptr) {
  detail::tsmqr_impl(be, W, Tau, W, row0, k, lbegin, lend, jbegin, jend, cfg,
                     ka::Stage::TrailingUpdate, times);
}

/// Backward (un-transposed) application: C <- Q * C for the TSQRT reflector
/// sets of tiles (l, k) of `V`, l in [lbegin, lend), applied to tile rows
/// row0 (top) and l (bottom) of a separate target `C`, tile columns
/// [jbegin, jend) — the same kernel body as tsmqr with BOTH the row chain
/// and each tile's reflector loop reversed (each Householder factor is
/// symmetric, so reverse order composes Q instead of Q^T). C may be in
/// compute precision while the reflectors stay in storage precision. Used
/// through panel_apply_q; launches are attributed to
/// Stage::VectorAccumulation.
template <class TS, class TA>
void tsmqr_apply_q(ka::Backend& be, MatrixView<TS> V, MatrixView<TS> Tau,
                   MatrixView<TA> C, index_t row0, index_t k, index_t lbegin,
                   index_t lend, index_t jbegin, index_t jend,
                   const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  detail::tsmqr_impl(be, V, Tau, C, row0, k, lbegin, lend, jbegin, jend, cfg,
                     ka::Stage::VectorAccumulation, times, ApplyDir::Backward);
}

}  // namespace unisvd::qr
