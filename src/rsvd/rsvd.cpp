/// \file rsvd.cpp
/// Randomized truncated SVD (Halko/Martinsson/Tropp) on the unified tiled
/// kernels — implementation of core/svd.hpp's svd_truncated_report.
///
/// Pipeline (tall orientation m >= n; wide inputs run on the lazy
/// transpose and swap factors at extraction). Every product runs on the
/// library's one GEMM (qr/gemm.hpp): it sums in compute precision, divides
/// by the auto_scale divisor s and rounds once into its target.
///
///   1. SKETCH      Y = A Omega / s, Omega an n x l_pad Gaussian test matrix
///                  (l = rank + oversample, padded to the tile grid).
///   2. POWER       q times: Q = orth(Y), Z = A^T Q / s, W = orth(Z),
///      ITERATE     Y = A W / s. orth factors the zero-padded panel
///                  (panel_qr_factor) and composes its first l_pad columns
///                  of Q onto [I; 0] (panel_apply_q), so every half-step is
///                  a full re-orthonormalization and the iteration stays
///                  stable at large q.
///   3. PROJECT     Q = orth(Y), B = Q^T A / s (l_pad x n), solved by the
///                  dense pipeline in COMPUTE precision (FP32 for FP16
///                  storage): B = U~ S V~t.
///   4. COMPOSE     vt = first k rows of V~t; U = Q U~[:, :k].
///
/// Products read only the real rows of Q and W, the first m and n: a
/// rank-deficient panel factors into deterministic orthonormal complements
/// (the small-reflector guard), which may reach into the padding rows.
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

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "qr/gemm.hpp"
#include "qr/panel_qr.hpp"
#include "rsvd/sketch.hpp"
#include "small/small_svd.hpp"
#include "tile/tile_layout.hpp"

namespace unisvd {

namespace {

/// c = a * b / launch.scale on the GEMM for a tall output c at most l_pad
/// wide, formed as c^T = b^T * a^T: the same sums in the same order (the
/// products commute exactly), over twice as many of the GEMM's 128 x 64
/// cache blocks, since the long side of c runs along the blocks' 64 columns.
template <class CT, class TA, class TB, class TC>
void skinny_gemm(ka::Backend& be, ConstMatrixView<TA> a, ConstMatrixView<TB> b,
                 MatrixView<TC> c, const qr::GemmLaunch& launch) {
  qr::gemm<CT>(be, qr::GemmProduct<TB, TA, TC>{b.transposed(), a.transposed(), c.transposed()},
               launch);
}

/// The first `rows` rows of `x`: the real rows of a padded basis.
template <class CT>
ConstMatrixView<CT> leading_rows(const Matrix<CT>& x, index_t rows) {
  return ConstMatrixView<CT>(x.data(), rows, x.cols(), x.rows());
}

/// Q = orth(Y): factor the zero-padded panel `y` in place (one tau block
/// per sweep into `tau`), then compose the first y.cols() columns of Q
/// onto [I; 0] in compute precision.
template <class T>
Matrix<compute_t<T>> orth(ka::Backend& be, Matrix<T>& y, Matrix<T>& tau,
                          const qr::KernelConfig& cfg, ka::StageTimes* times) {
  using CT = compute_t<T>;
  qr::panel_qr_factor<T>(be, y.view(), tau.view(), cfg, times);
  Matrix<CT> q(y.rows(), y.cols(), CT(0));
  for (index_t i = 0; i < y.cols(); ++i) q(i, i) = CT(1);
  qr::panel_apply_q<T, CT>(be, y.view(), tau.view(), q.view(), cfg, times);
  return q;
}

/// One sketch -> power-iterate pass at sketch width l_pad. Returns Q
/// (m_pad x l_pad, compute precision), an orthonormal basis of the
/// sketched range of A / scale.
template <class T>
Matrix<compute_t<T>> range_finder(ka::Backend& be, ConstMatrixView<T> at,
                                  const qr::GemmLaunch& sketch, index_t lpad,
                                  int power_iters, std::uint64_t seed,
                                  const qr::KernelConfig& cfg) {
  using CT = compute_t<T>;
  const int ts = cfg.tilesize;
  const index_t m = at.rows();
  const index_t n = at.cols();
  const index_t mpad = tile::TileLayout::make(m, ts).n;
  const index_t npad = tile::TileLayout::make(n, ts).n;

  Matrix<T> y(mpad, lpad, T(0));
  {
    const Matrix<CT> omega = rsvd::gaussian_sketch<CT>(n, lpad, seed);
    skinny_gemm<CT>(be, at, omega.view(), y.view().block(0, 0, m, lpad), sketch);
  }
  Matrix<T> tau(qr::panel_tau_rows(mpad / ts, lpad / ts), ts, T(0));
  Matrix<CT> q = orth<T>(be, y, tau, cfg, sketch.times);
  for (int iter = 0; iter < power_iters; ++iter) {
    Matrix<T> z(npad, lpad, T(0));
    skinny_gemm<CT>(be, at.transposed(), leading_rows(q, m), z.view().block(0, 0, n, lpad),
                    sketch);
    const Matrix<CT> w = orth<T>(be, z, tau, cfg, sketch.times);
    std::fill(y.data(), y.data() + y.size(), T(0));
    skinny_gemm<CT>(be, at, leading_rows(w, n), y.view().block(0, 0, m, lpad), sketch);
    q = orth<T>(be, y, tau, cfg, sketch.times);
  }
  return q;
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
  const qr::GemmLaunch sketch{"sketch_gemm", ka::Stage::RandomizedSketch,
                              &rep.stage_times, scale};
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

    const Matrix<CT> q = range_finder<T>(backend, at, sketch, lpad, config.power_iters,
                                         config.seed, config.svd.kernels);
    const ConstMatrixView<CT> qm = leading_rows(q, m);

    // Projection B = Q^T A / s (l_pad x n), solved by the dense pipeline in
    // compute precision.
    Matrix<CT> b(lpad, n);
    qr::gemm<CT>(backend, qr::GemmProduct<CT, T, CT>{qm.transposed(), at, b.view()}, sketch);
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

    // Compose: vt from the small problem directly; U = Q U~[:, :k] on the
    // GEMM, in compute precision, straight into the factor it becomes (a
    // wide input swaps U and V^T, A = (A^T)^T). The launch self-attributes
    // to VectorAccumulation; the stopwatch below covers only the extraction
    // epilogue.
    Matrix<double>& udest = wide ? rep.vt : rep.u;
    udest = wide ? Matrix<double>(k, m) : Matrix<double>(m, k);
    skinny_gemm<CT>(backend, qm, ConstMatrixView<double>(small.u.data(), lpad, k, small.u.rows()),
                    wide ? udest.transposed() : udest.view(),
                    qr::GemmLaunch{"rsvd_compose_u", ka::Stage::VectorAccumulation,
                                   &rep.stage_times});
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
    if (!wide) {
      rep.vt = Matrix<double>(k, n);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < k; ++i) rep.vt(i, j) = small.vt(i, j);
      }
    } else {
      rep.u = Matrix<double>(n, k);  // = a.rows()
      for (index_t j = 0; j < k; ++j) {
        for (index_t i = 0; i < n; ++i) rep.u(i, j) = small.vt(j, i);
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
