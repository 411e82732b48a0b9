#include "core/svd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "band/band_matrix.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "dc/dc_svd.hpp"
#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "qr/band_reduction.hpp"
#include "qr/panel_qr.hpp"
#include "small/small_svd.hpp"
#include "tile/tile_layout.hpp"

namespace unisvd {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Copy src into the top-left of dst, dividing by `scale` in compute
/// precision (the auto_scale path; scale == 1 is a plain copy).
template <class T>
void copy_scaled(ConstMatrixView<T> src, Matrix<T>& dst, double scale) {
  using CT = compute_t<T>;
  const auto s = static_cast<CT>(scale);
  for (index_t j = 0; j < src.cols(); ++j) {
    for (index_t i = 0; i < src.rows(); ++i) {
      dst(i, j) = scale == 1.0
                      ? src.at(i, j)
                      : static_cast<T>(static_cast<CT>(src.at(i, j)) / s);
    }
  }
}

/// The back-transformation of one side — U = Q_panel * Q1 * Q2 * U_B, or
/// V = P1 * P2 * V_B — and the one composer of square, tall and wide
/// inputs.
///
/// `fac` is D&C's n x n factor transposed (rows = vectors). (1) Q2: the
/// side's chase rotations replay onto it, in reverse, in the replay's
/// row-panel layout (band/rot_batch.hpp). (2) Column slabs of the result,
/// n_pad wide, stream through `stage1` and then `panel` (a tall input's
/// U): each slab is seeded with the factor's rows in its first n
/// coordinates — and with e_j for the Full job's completion columns j in
/// [n, cols) — replayed through panel_apply_q, and extracted before the
/// next slab is seeded, so no job ever holds an m_pad x m_pad working set.
///
/// Q1, Q2 and the panel Q never mix padding coordinates with data: zero
/// columns give zero reflector tails (a zero tile column's reflector is at
/// most a sign flip of its own coordinate) and identity rotations, which
/// the chase never logs. So every logged rotation acts on real coordinates,
/// and the completion seeds replay through the panel Q into its orthonormal
/// completion directions. Slabs after the first hold only completion seeds
/// at coordinates >= n_pad, which Q1 does not touch, so only slab 0
/// replays Q1.
///
/// `dest` receives vector j in its column j (`dest_transposed` false) or
/// its row j (true); the other extent is the number of real coordinates.
template <class T, class CT>
void back_transform(ka::Backend& be, Matrix<CT> fac, const band::RotationLog<CT>& rots,
                    const qr::SweepReflectors<T>& stage1,
                    const qr::SweepReflectors<T>* panel, const qr::KernelConfig& cfg,
                    SvdReport& rep, Matrix<double>& dest, bool dest_transposed) {
  auto t0 = std::chrono::steady_clock::now();
  const index_t n = fac.rows();
  const index_t npad = stage1.a.rows();
  band::RowPanels<CT> fbt(fac.view());
  fac = Matrix<CT>();
  rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
  rep.chase_stats.batch_flushes +=
      static_cast<double>(band::replay_reverse(be, rots, fbt, &rep.stage_times));

  t0 = std::chrono::steady_clock::now();
  const index_t rows = dest_transposed ? dest.cols() : dest.rows();
  const index_t cols = dest_transposed ? dest.rows() : dest.cols();
  const index_t slab_rows = panel != nullptr ? panel->a.rows() : npad;
  const index_t slab_cols = tile::TileLayout::make(cols, cfg.tilesize).n;
  Matrix<CT> comp(slab_rows, std::min(npad, slab_cols));
  rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));

  for (index_t c0 = 0; c0 < slab_cols; c0 += comp.cols()) {
    const index_t w = std::min(comp.cols(), slab_cols - c0);
    t0 = std::chrono::steady_clock::now();
    for (index_t j = 0; j < w; ++j) {
      for (index_t i = 0; i < slab_rows; ++i) comp(i, j) = CT(0);
    }
    for (index_t j = c0; j < std::min(c0 + w, n); ++j) {
      for (index_t i = 0; i < n; ++i) comp(i, j - c0) = fbt(j, i);
    }
    for (index_t j = std::max(c0, n); j < std::min(c0 + w, cols); ++j) {
      comp(j, j - c0) = CT(1);
    }
    rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
    const MatrixView<CT> slab = comp.view().block(0, 0, slab_rows, w);
    if (c0 == 0) {
      qr::panel_apply_q<T, CT>(be, stage1.a, stage1.tau, slab.block(0, 0, npad, w),
                               cfg, &rep.stage_times, stage1.row_off);
    }
    if (panel != nullptr) {
      qr::panel_apply_q<T, CT>(be, panel->a, panel->tau, slab, cfg, &rep.stage_times,
                               panel->row_off);
    }
    t0 = std::chrono::steady_clock::now();
    for (index_t j = c0; j < std::min(c0 + w, cols); ++j) {
      for (index_t i = 0; i < rows; ++i) {
        const double v = static_cast<double>(comp(i, j - c0));
        if (dest_transposed) {
          dest(j, i) = v;
        } else {
          dest(i, j) = v;
        }
      }
    }
    rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
  }
}

}  // namespace

template <class T>
SvdReport svd_values_report(ConstMatrixView<T> a, const SvdConfig& config,
                            ka::Backend& backend) {
  using CT = compute_t<T>;
  config.validate();
  UNISVD_REQUIRE(a.rows() >= 1 && a.cols() >= 1, "svd_values: matrix must be non-empty");
  UNISVD_REQUIRE(backend.executes(), "svd_values: backend does not execute kernels");
  if (config.check_finite) {
    UNISVD_REQUIRE(ref::all_finite(a), "svd_values: input contains NaN or Inf");
  }
  const bool want_vectors = config.job != SvdJob::ValuesOnly;

  // Fused tiny-problem path: min(m, n) at or below the tunable threshold
  // skips the whole tiled pipeline — one stack-resident bidiagonalize-and-
  // chase call produces values and vectors, no padding, no stage launches.
  // Shape-only and ahead of the tall-panel QR, so every job and every
  // caller (direct, truncated-projected, batched) dispatches identically.
  if (smallsvd::small_svd_applicable(a.rows(), a.cols(),
                                     config.small_svd_threshold)) {
    return smallsvd::small_svd_solve<T>(a, config);
  }

  // Operate on the tall orientation: sigma(A) == sigma(A^T), and the lazy
  // transpose makes the wide case free. For vectors the factors swap back
  // at extraction time (A = U S V^T  <=>  A^T = V S U^T).
  const bool wide = a.rows() < a.cols();
  const ConstMatrixView<T> at = wide ? a.transposed() : a;
  const index_t m = at.rows();
  const index_t n = at.cols();

  SvdReport rep;
  if (config.auto_scale) {
    rep.scale_factor = ref::auto_scale_divisor(at);
  }

  const int ts = config.kernels.tilesize;
  const auto col_layout = tile::TileLayout::make(n, ts);
  const index_t npad = col_layout.n;
  rep.padded_n = npad;

  // Square working matrix for Stages 1 and 2, whose kernels need the tile
  // grid. The zero padding stays exactly zero through both of them and is
  // dropped once, after Stage 2.
  Matrix<T> square(npad, npad, T(0));

  // Retained tall-panel factorization (vector jobs on tall inputs): kept
  // alive through the stages so the back-transformation can replay Q.
  Matrix<T> panel;
  Matrix<T> panel_tau;

  if (m == n) {
    copy_scaled(at, square, rep.scale_factor);
  } else {
    // Tall input: factor A = Q R with the REPLAYABLE panel QR and keep the
    // reflectors. Every job factors the same panel with the same kernels,
    // so R is bit-identical across jobs (and the values across Thin and
    // Full, which share the Stage-3 engine).
    const auto row_layout = tile::TileLayout::make(m, ts);
    panel = Matrix<T>(row_layout.n, npad, T(0));
    copy_scaled(at, panel, rep.scale_factor);
    panel_tau = Matrix<T>(
        qr::panel_tau_rows(row_layout.ntiles, col_layout.ntiles), ts, T(0));
    qr::panel_qr_factor<T>(backend, panel.view(), panel_tau.view(),
                           config.kernels, &rep.stage_times);
    for (index_t j = 0; j < npad; ++j) {  // R = upper triangle
      for (index_t i = 0; i <= j; ++i) {
        square(i, j) = panel(i, j);
      }
    }
    if (!want_vectors) {
      // Nothing replays Q for a values-only solve: release the panel and
      // its tau blocks before Stage 1 so they never sit under its peak.
      panel = Matrix<T>();
      panel_tau = Matrix<T>();
    }
  }

  // Stage 1: dense -> band (tiled QR/LQ sweeps on the backend). A vector
  // job keeps every sweep's tau block; with the reflector tails left in
  // `square` they are Q1 and P1 of the back-transformation.
  const index_t nt = col_layout.ntiles;
  Matrix<T> tau(want_vectors ? qr::band_tau_rows(nt) : nt, ts, T(0));
  qr::band_reduction<T>(backend, square.view(), tau.view(), config.kernels,
                        &rep.stage_times);

  // Stage 2: band -> bidiagonal (Givens bulge chasing, compute precision).
  // A vector job logs the chase rotations (Q2, P2) instead of applying
  // them to anything. Padding coordinates get zero reflector components
  // and identity rotations, which the log skips, so d[n..] and e[n-1..] are
  // exactly zero and every logged rotation acts on the real n: Stage 3 and
  // the back-transformation solve the n x n bidiagonal.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<CT> d;
  std::vector<CT> e;
  band::ChaseLog<CT> log;
  {
    auto bandm = band::extract_band<T>(square.view(), ts);
    rep.chase_stats = band::band_to_bidiag(bandm, d, e, want_vectors ? &log : nullptr);
  }
  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(n - 1));
  rep.stage_times.add(ka::Stage::BandToBidiagonal, seconds_since(t0));

  // Stage 3: bidiagonal -> singular values. The job selects the engine:
  // values-only solves run the implicit-shift QR iteration (its events in
  // rep.qr_stats); vector jobs run the divide-and-conquer solver (src/dc),
  // whose own implicit-QR leaf handles the small sub-problems, so Thin and
  // Full values are bit-identical and agree with values-only ones within
  // the accuracy gates. D&C also returns the bidiagonal's n x n factors
  // U_B^T and V_B^T.
  t0 = std::chrono::steady_clock::now();
  rep.stage3_dc = want_vectors;
  std::vector<CT> sv;
  dc::DcResult<CT> bfac;
  if (want_vectors) {
    bfac = dc::bidiag_svd_dc<CT>(std::move(d), std::move(e), &backend, &rep.dc_stats);
    sv = std::move(bfac.values);
  } else {
    sv = bidiag::bidiag_svd_qr(std::move(d), std::move(e), &rep.qr_stats);
  }
  rep.stage_times.add(ka::Stage::BidiagonalToDiagonal, seconds_since(t0));

  rep.values.assign(sv.begin(), sv.end());  // already descending
  if (rep.scale_factor != 1.0) {
    for (auto& v : rep.values) v *= rep.scale_factor;
  }
  if (!want_vectors) return rep;

  // Back-transformation, in the tall orientation A = U diag(sigma) V^T: U
  // has m rows and n columns (m for Full); V is n x n. A wide input swaps
  // the roles (a^T's V is a's U and vice versa). auto_scale only rescales
  // values — vectors are scale-invariant.
  Matrix<double>& udest = wide ? rep.vt : rep.u;
  Matrix<double>& vdest = wide ? rep.u : rep.vt;
  const index_t ucols = config.job == SvdJob::Full ? m : n;
  udest = wide ? Matrix<double>(ucols, m) : Matrix<double>(m, ucols);
  vdest = Matrix<double>(n, n);
  const auto q1 = qr::band_reflectors(square.view(), tau.view(), ts, false);
  const auto p1 = qr::band_reflectors(square.view(), tau.view(), ts, true);
  const qr::SweepReflectors<T> qpanel{panel.view(), panel_tau.view(), 0};
  back_transform<T, CT>(backend, std::move(bfac.ut), log.left, q1,
                        panel.rows() > 0 ? &qpanel : nullptr, config.kernels, rep,
                        udest, wide);
  back_transform<T, CT>(backend, std::move(bfac.vt), log.right, p1, nullptr,
                        config.kernels, rep, vdest, !wide);
  return rep;
}

template SvdReport svd_values_report<Half>(ConstMatrixView<Half>, const SvdConfig&,
                                           ka::Backend&);
template SvdReport svd_values_report<float>(ConstMatrixView<float>, const SvdConfig&,
                                            ka::Backend&);
template SvdReport svd_values_report<double>(ConstMatrixView<double>, const SvdConfig&,
                                             ka::Backend&);

}  // namespace unisvd
