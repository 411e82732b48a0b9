/// \file rsvd.cpp
/// Randomized truncated SVD (Halko/Martinsson/Tropp) on the unified tiled
/// kernels — implementation of core/svd.hpp's svd_truncated_report.
///
/// Pipeline (tall orientation m >= n; wide inputs run on the lazy
/// transpose and swap factors at extraction):
///
///   1. SKETCH      Y = A * Omega, Omega an n x l Gaussian test matrix
///                  (l = rank + oversample), via the sketch_gemm kernel.
///   2. POWER       q times: factor Y = Q R (panel_qr_factor, which also
///      ITERATE     yields B = Q_full^T A through its accumulator hook),
///                  Z = B^T = A^T Q, factor Z = W R' (same trick on A^T),
///                  Y = (W^T A^T)^T = A W. Every half-step is a full
///                  re-orthonormalization, so the iteration is stable at
///                  large q.
///   3. PROJECT     B = Q^T A (l_pad x n) from the LAST factorization's
///                  accumulator — solved by the dense pipeline in COMPUTE
///                  precision (FP32 for FP16 storage): B = U~ S V~t.
///   4. COMPOSE     vt = first k rows of V~t; U = Q * U~[:, :k] via
///                  panel_apply_q (backward reflector replay — Q is never
///                  materialized).
///
/// Padding: every panel is zero-padded to the TILESIZE grid. Padded sketch
/// columns factor into deterministic orthonormal complements (the
/// small-reflector guard), which only ENLARGE the candidate subspace; the
/// projection and the composition both use the same l_pad columns, so the
/// extra directions are consistent end to end and never hurt accuracy.
///
/// Adaptive rank (tol > 0): after the projection, pick the smallest k with
/// sigma~_{k+1} <= tol * sigma~_1. If no such k lies strictly inside the
/// sketch, double the rank guess (the Gaussian stream prefix is re-used, so
/// the grown sketch extends the previous one) and re-run; past max_rank (or
/// once the sketch would stop being smaller than the problem) fall back to
/// the dense pipeline, which is exact.

#include "core/svd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "rsvd/gemm.hpp"
#include "qr/panel_qr.hpp"
#include "rsvd/sketch.hpp"
#include "small/small_svd.hpp"
#include "tile/tile_layout.hpp"

namespace unisvd {

namespace {

/// Refill `dst` (already shaped to the padded extents) with a zero-padded
/// compute-precision copy of `src`, divided by `scale`: the accumulator seed
/// that turns panel_qr_factor into B = Q^T (A/scale). Writing into a
/// caller-owned RESIDENT buffer — instead of returning a fresh Matrix per
/// half-step — is what keeps the power iteration's peak accumulator
/// footprint at ONE (m_pad x n_pad) block (see range_finder).
template <class T>
void fill_padded_scaled(ConstMatrixView<T> src, double scale,
                        Matrix<compute_t<T>>& dst) {
  using CT = compute_t<T>;
  std::fill(dst.data(), dst.data() + dst.size(), CT(0));
  const auto s = static_cast<CT>(scale);
  for (index_t j = 0; j < src.cols(); ++j) {
    for (index_t i = 0; i < src.rows(); ++i) {
      const auto v = static_cast<CT>(src.at(i, j));
      dst(i, j) = scale == 1.0 ? v : v / s;
    }
  }
}

/// One full sketch -> power-iterate pass at sketch width l_pad. On return
/// `y` holds the factored final panel (reflectors), `tau` its stacked tau
/// blocks, and `acc` the projection Q_full^T * (A/scale) (m_pad x n_pad).
template <class T>
void range_finder(ka::Backend& be, ConstMatrixView<T> at, double scale,
                  index_t lpad, int power_iters, std::uint64_t seed,
                  const qr::KernelConfig& cfg, ka::StageTimes* times,
                  Matrix<T>& y, Matrix<T>& tau, Matrix<compute_t<T>>& acc) {
  using CT = compute_t<T>;
  const int ts = cfg.tilesize;
  const index_t m = at.rows();
  const index_t n = at.cols();
  const index_t mpad = tile::TileLayout::make(m, ts).n;
  const index_t npad = tile::TileLayout::make(n, ts).n;
  const index_t mtiles = mpad / ts;
  const index_t ntiles = npad / ts;
  const index_t ltiles = lpad / ts;

  // Sketch: Y = (A/scale) * Omega into the zero-padded panel.
  const Matrix<CT> omega = rsvd::gaussian_sketch<CT>(n, lpad, seed);
  y = Matrix<T>(mpad, lpad, T(0));
  rsvd::sketch_gemm<T>(be, at, omega.view(), y.view(), scale, cfg, times);

  tau = Matrix<T>(qr::panel_tau_rows(std::max(mtiles, ntiles), ltiles),
                  ts, T(0));
  Matrix<T> z;  // the A^T-side panel of each power iteration

  // ONE resident accumulator serves both orientations of every half-step:
  // the (mpad x npad) buffer is reshaped (same element count, no data
  // movement) to (npad x mpad) for the A^T side and refilled in place.
  // The old scheme built a fresh padded copy per half-step, holding TWO
  // accumulator-sized blocks live across the Z factorization — double the
  // peak footprint and allocator traffic, asserted away by the
  // matrix_peak_bytes regression test.
  acc = Matrix<CT>(mpad, npad);
  for (int iter = 0;; ++iter) {
    // Factor Y; the accumulator hook turns the padded copy of A into
    // B_full = Q_full^T (A/scale) in the same pass.
    if (acc.rows() != mpad) acc.reshape(mpad, npad);
    fill_padded_scaled<T>(at, scale, acc);
    MatrixView<CT> acc_view = acc.view();
    qr::panel_qr_factor<T>(be, y.view(), tau.view(), cfg, times, &acc_view);
    if (iter == power_iters) break;

    // Z = (Q^T A)^T = A^T Q : the top l_pad rows of acc, transposed.
    z = Matrix<T>(npad, lpad, T(0));
    for (index_t j = 0; j < lpad; ++j) {
      for (index_t i = 0; i < n; ++i) {
        z(i, j) = narrow_from_double<T>(static_cast<double>(acc(j, i)));
      }
    }
    // Factor Z against A^T: the SAME buffer, reshaped and refilled, becomes
    // W_full^T (A^T/scale).
    acc.reshape(npad, mpad);
    fill_padded_scaled<T>(at.transposed(), scale, acc);
    MatrixView<CT> acc_t_view = acc.view();
    qr::panel_qr_factor<T>(be, z.view(), tau.view(), cfg, times, &acc_t_view);

    // Y = (W^T A^T)^T = A W : the top l_pad rows of the reshaped acc,
    // transposed.
    y = Matrix<T>(mpad, lpad, T(0));
    for (index_t j = 0; j < lpad; ++j) {
      for (index_t i = 0; i < m; ++i) {
        y(i, j) = narrow_from_double<T>(static_cast<double>(acc(j, i)));
      }
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Dense-pipeline fallback: exact thin SVD, truncated to the requested (or
/// tol-chosen) rank. Keeps svd_truncated total: correct answers for every
/// shape/rank the sketch cannot beat (rank ~ min(m, n), tiny problems).
template <class T>
TruncReport dense_fallback(ConstMatrixView<T> a, const TruncConfig& config,
                           index_t rank, ka::Backend& backend) {
  SvdConfig cfg = config.svd;
  cfg.job = SvdJob::Thin;
  cfg.check_finite = false;  // the caller already validated
  const SvdReport full = svd_values_report<T>(a, cfg, backend);

  TruncReport rep;
  rep.dense_fallback = true;
  rep.scale_factor = full.scale_factor;
  rep.stage_times = full.stage_times;
  const auto total = static_cast<index_t>(full.values.size());
  index_t k = std::min(rank, total);
  if (config.tol > 0.0 && !full.values.empty()) {
    const double cut = config.tol * full.values[0];
    index_t kt = total;
    for (index_t i = 0; i < total; ++i) {
      if (full.values[static_cast<std::size_t>(i)] <= cut) {
        kt = i;
        break;
      }
    }
    // kt == 0 means sigma_1 itself sits at or below the cut — for tol < 1
    // only a zero matrix can do that — and the defined numerical rank is 0:
    // empty values and 0-column factors, NOT a clamped rank-1 answer built
    // from a zero (or pure-noise) singular triplet.
    k = std::min(kt, k);
  }
  rep.rank = k;
  rep.sketch_cols = 0;
  rep.power_iters = 0;
  rep.sigma_tail = k < total ? full.values[static_cast<std::size_t>(k)] : 0.0;
  rep.values.assign(full.values.begin(), full.values.begin() + k);
  rep.u = Matrix<double>(full.u.rows(), k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < full.u.rows(); ++i) rep.u(i, j) = full.u(i, j);
  }
  rep.vt = Matrix<double>(k, full.vt.cols());
  for (index_t j = 0; j < full.vt.cols(); ++j) {
    for (index_t i = 0; i < k; ++i) rep.vt(i, j) = full.vt(i, j);
  }
  return rep;
}

}  // namespace

template <class T>
TruncReport svd_truncated_report(ConstMatrixView<T> a, const TruncConfig& config,
                                 ka::Backend& backend) {
  using CT = compute_t<T>;
  config.validate();
  UNISVD_REQUIRE(a.rows() >= 1 && a.cols() >= 1,
                 "svd_truncated: matrix must be non-empty");
  UNISVD_REQUIRE(backend.executes(),
                 "svd_truncated: backend does not execute kernels");
  if (config.svd.check_finite) {
    UNISVD_REQUIRE(ref::all_finite(a),
                   "svd_truncated: input contains NaN or Inf");
  }

  // Tall orientation (sigma(A) == sigma(A^T)); factors swap back at
  // extraction, exactly as in the dense pipeline.
  const bool wide = a.rows() < a.cols();
  const ConstMatrixView<T> at = wide ? a.transposed() : a;
  const index_t m = at.rows();
  const index_t n = at.cols();
  const index_t minmn = n;

  const bool adaptive = config.tol > 0.0;
  const index_t max_rank =
      adaptive ? (config.max_rank > 0 ? std::min(config.max_rank, minmn) : minmn)
               : minmn;
  index_t rank = std::min(config.rank > 0 ? config.rank : index_t{8}, max_rank);

  // Tiny problems the fused small_svd path will solve in one shot: sketching
  // them buys nothing (the dense "fallback" IS the fused kernel here), so go
  // straight to it. adaptive_rounds stays 0 — no sketch ever ran.
  if (smallsvd::small_svd_applicable(m, n, config.svd.small_svd_threshold)) {
    return dense_fallback<T>(a, config, adaptive ? max_rank : rank, backend);
  }

  const int ts = config.svd.kernels.tilesize;
  const index_t npad = tile::TileLayout::make(n, ts).n;

  // Same policy (and one definition) as the dense pipeline's auto_scale.
  const double scale =
      config.svd.auto_scale ? ref::auto_scale_divisor(at) : 1.0;

  TruncReport rep;
  for (int round = 0;; ++round) {
    const index_t l = std::min(rank + config.oversample, minmn);
    const index_t lpad = tile::TileLayout::make(l, ts).n;
    if (lpad >= npad) {
      // The sketch would be as wide as the (padded) problem: the dense
      // pipeline is both cheaper and exact here. Stage times spent on any
      // earlier (too-narrow) adaptive rounds are preserved — the report
      // must account for ALL work done.
      TruncReport fb =
          dense_fallback<T>(a, config, adaptive ? max_rank : rank, backend);
      fb.stage_times += rep.stage_times;
      fb.adaptive_rounds = round;  // rounds EXECUTED: this one never sketched
      return fb;
    }

    Matrix<T> y;
    Matrix<T> tau;
    Matrix<CT> acc;
    range_finder<T>(backend, at, scale, lpad, config.power_iters, config.seed,
                    config.svd.kernels, &rep.stage_times, y, tau, acc);

    // Projection B = Q^T (A/scale): top l_pad rows of the accumulator, real
    // columns only (padded columns of A are exactly zero in B). Solved by
    // the dense pipeline in compute precision.
    Matrix<CT> b(lpad, n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < lpad; ++i) b(i, j) = acc(i, j);
    }
    SvdConfig small_cfg = config.svd;
    small_cfg.job = SvdJob::Thin;
    small_cfg.check_finite = false;
    small_cfg.auto_scale = false;
    const SvdReport small = svd_values_report<CT>(b.view(), small_cfg, backend);
    rep.stage_times += small.stage_times;  // the projected solve's breakdown

    // Rank selection. Fixed mode: the requested k. Adaptive mode: smallest
    // k with sigma~_{k+1} <= tol * sigma~_1, required to sit strictly
    // inside the sketch (otherwise the tail estimate is untrustworthy —
    // grow and retry).
    index_t k = std::min(rank, l);
    if (adaptive) {
      const double cut = config.tol * (small.values.empty() ? 0.0 : small.values[0]);
      index_t kt = -1;
      for (index_t i = 0; i + 1 < static_cast<index_t>(small.values.size()); ++i) {
        if (small.values[static_cast<std::size_t>(i)] <= cut) {
          // i == 0 is a genuine rank-0 detection (sigma~_1 <= tol *
          // sigma~_1 means sigma~_1 == 0 for tol < 1: a zero matrix). The
          // old max(1, i) clamp silently promoted it to rank 1, returning
          // one zero-valued triplet instead of the empty factorization.
          kt = i;
          break;
        }
      }
      if (kt < 0 || kt > l) {
        if (rank >= max_rank) {
          TruncReport fb = dense_fallback<T>(a, config, max_rank, backend);
          fb.stage_times += rep.stage_times;  // keep the failed rounds' cost
          fb.adaptive_rounds = round + 1;  // this round's sketch DID run
          return fb;
        }
        rank = std::min(rank * 2, max_rank);
        continue;  // grow the sketch (Gaussian prefix is reused)
      }
      k = std::min(kt, max_rank);
      if (k == 0) {
        // Numerical rank 0 (only a zero matrix reaches here for tol < 1):
        // skip the compose entirely and return the empty factorization with
        // 0-column factors of the CORRECT outer extents.
        rep.rank = 0;
        rep.sketch_cols = l;
        rep.power_iters = config.power_iters;
        rep.adaptive_rounds = round + 1;
        rep.scale_factor = scale;
        rep.sigma_tail =
            small.values.empty() ? 0.0 : small.values[0] * scale;
        rep.values.clear();
        rep.u = Matrix<double>(a.rows(), 0);
        rep.vt = Matrix<double>(0, a.cols());
        return rep;
      }
    }

    // Compose: vt from the small problem directly; U = Q * U~[:, :k] by
    // backward reflector replay into a padded compute-precision target.
    // The replay's launches self-attribute to VectorAccumulation; the
    // stopwatch below covers only the copy/extraction epilogue.
    const index_t kpad = tile::TileLayout::make(k, ts).n;
    Matrix<CT> comp(y.rows(), kpad, CT(0));
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < lpad; ++i) {
        comp(i, j) = static_cast<CT>(small.u(i, j));
      }
    }
    MatrixView<CT> comp_view = comp.view();
    qr::panel_apply_q<T, CT>(backend, y.view(), tau.view(), comp_view,
                               config.svd.kernels, &rep.stage_times);
    const auto t0 = std::chrono::steady_clock::now();

    rep.rank = k;
    rep.sketch_cols = l;
    rep.power_iters = config.power_iters;
    // adaptive_rounds counts SKETCH ROUNDS EXECUTED — this round included —
    // under the same definition as the two fallback exits above/below.
    rep.adaptive_rounds = round + 1;
    rep.scale_factor = scale;
    rep.sigma_tail =
        k < static_cast<index_t>(small.values.size())
            ? small.values[static_cast<std::size_t>(k)] * scale
            : 0.0;
    rep.values.assign(small.values.begin(), small.values.begin() + k);
    if (scale != 1.0) {
      for (auto& v : rep.values) v *= scale;
    }
    // Factor extraction; a wide input swaps U and V^T (A = (A^T)^T).
    if (!wide) {
      rep.u = Matrix<double>(m, k);
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < m; ++i) {
          rep.u(i, j) = static_cast<double>(comp(i, j));
        }
      }
      rep.vt = Matrix<double>(k, n);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < k; ++i) rep.vt(i, j) = small.vt(i, j);
      }
    } else {
      rep.u = Matrix<double>(n, k);  // = a.rows()
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i) rep.u(i, j) = small.vt(j, i);
      }
      rep.vt = Matrix<double>(k, m);  // = k x a.cols()
      for (index_t j = 0; j < m; ++j) {
        for (index_t i = 0; i < k; ++i) {
          rep.vt(i, j) = static_cast<double>(comp(j, i));
        }
      }
    }
    rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
    return rep;
  }
}

template TruncReport svd_truncated_report<Half>(ConstMatrixView<Half>,
                                                const TruncConfig&, ka::Backend&);
template TruncReport svd_truncated_report<float>(ConstMatrixView<float>,
                                                 const TruncConfig&, ka::Backend&);
template TruncReport svd_truncated_report<double>(ConstMatrixView<double>,
                                                  const TruncConfig&, ka::Backend&);

}  // namespace unisvd
