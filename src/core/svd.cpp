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

/// Stage-2 rotation-batch capacity of every vector solve: mirror rotations
/// buffer up to this many entries and replay one 64-column accumulator
/// panel at a time (band/rot_batch.hpp), bit-identical to eager
/// per-rotation mirroring.
constexpr index_t kStage2RotBatch = 4096;

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

/// Identity-seed a square compute-precision accumulator.
template <class CT>
Matrix<CT> identity(index_t n) {
  Matrix<CT> out(n, n, CT(0));
  for (index_t i = 0; i < n; ++i) out(i, i) = CT(1);
  return out;
}

/// Pick `count` rows of `acc` (in order) whose mass lies in the real
/// coordinate range [0, real) — i.e. rows that are singular vectors of the
/// embedded problem rather than of the zero padding. Padding never mixes
/// with data through the pipeline (zero columns yield zero reflector tails
/// and identity Givens rotations), so every row's real-coordinate mass is
/// ~1 or ~0 and a 1/2 threshold separates them cleanly. Rows are taken in
/// order: the sigma-sorted rows first, then (Full job on padded/tall
/// inputs) the orthonormal-completion leftovers.
template <class CT>
std::vector<index_t> select_real_rows(const Matrix<CT>& acc, index_t real,
                                      index_t count) {
  std::vector<index_t> rows;
  rows.reserve(static_cast<std::size_t>(count));
  for (index_t r = 0; r < acc.rows() && static_cast<index_t>(rows.size()) < count;
       ++r) {
    double mass = 0.0;
    double total = 0.0;
    for (index_t c = 0; c < acc.cols(); ++c) {
      const double v = static_cast<double>(acc(r, c));
      total += v * v;
      if (c < real) mass += v * v;
    }
    if (total == 0.0 || mass >= 0.5 * total) rows.push_back(r);
  }
  // Defensive completion: never return fewer than `count` rows (cannot
  // happen when the block structure holds, but a short list would crash
  // the extraction below).
  for (index_t r = 0; static_cast<index_t>(rows.size()) < count && r < acc.rows();
       ++r) {
    if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
  }
  return rows;
}

/// Stream the composition U = Q * [U_r; I_completion] through the backward
/// reflector replay in n_pad-column slabs: each slab is seeded (for j < n
/// with row usel[j] of the R solve's transposed left accumulator `ut_acc`,
/// for the Full job's completion range j in [n, m) with the identity),
/// replayed through panel_apply_q, and extracted into `dest` before the
/// next slab is seeded — so no job ever materializes an m_pad x m_pad
/// working set; peak composition memory is O(m_pad * n_pad).
///
/// The panel's padded rows are exactly zero, so every reflector component
/// there is zero and Q acts as the identity on the padding subspace:
/// columns stay free of padded-row mass, and the identity-seeded
/// completion columns replay into Q's orthonormal completion directions
/// (j in [m, mpad) would reproduce pure padding vectors, so they are
/// neither seeded nor extracted).
///
/// `dest` receives column j of U in its column j (`dest_transposed` false —
/// the tall-input U target) or in its row j (`dest_transposed` true — the
/// wide-input V^T target).
template <class T, class CT>
void compose_left_blocked(ka::Backend& backend, MatrixView<T> panel,
                          MatrixView<T> tau_all,
                          const qr::KernelConfig& kernels,
                          ka::StageTimes& times, const Matrix<CT>& ut_acc,
                          const std::vector<index_t>& usel,
                          index_t m, index_t n, bool full,
                          Matrix<double>& dest, bool dest_transposed) {
  const int ts = kernels.tilesize;
  const index_t mpad = panel.rows();
  const index_t npad = panel.cols();
  const index_t ucols = full ? m : n;
  const index_t comp_cols = tile::TileLayout::make(ucols, ts).n;
  Matrix<CT> comp(mpad, std::min(npad, comp_cols));
  for (index_t c0 = 0; c0 < comp_cols; c0 += comp.cols()) {
    const index_t w = std::min(comp.cols(), comp_cols - c0);
    const auto t0 = std::chrono::steady_clock::now();
    for (index_t j = 0; j < w; ++j) {
      for (index_t i = 0; i < mpad; ++i) comp(i, j) = CT(0);
    }
    for (index_t j = c0; j < std::min(c0 + w, n); ++j) {
      const index_t src = usel[static_cast<std::size_t>(j)];
      for (index_t i = 0; i < npad; ++i) comp(i, j - c0) = ut_acc(src, i);
    }
    if (full) {
      for (index_t j = std::max(c0, n); j < std::min(c0 + w, m); ++j) {
        comp(j, j - c0) = CT(1);
      }
    }
    times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
    MatrixView<CT> slab = comp.view().block(0, 0, mpad, w);
    qr::panel_apply_q<T, CT>(backend, panel, tau_all, slab, kernels, &times);
    const auto t1 = std::chrono::steady_clock::now();
    for (index_t j = c0; j < std::min(c0 + w, ucols); ++j) {
      for (index_t i = 0; i < m; ++i) {
        const double v = static_cast<double>(comp(i, j - c0));
        if (dest_transposed) {
          dest(j, i) = v;
        } else {
          dest(i, j) = v;
        }
      }
    }
    times.add(ka::Stage::VectorAccumulation, seconds_since(t1));
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
  // skips the whole tiled pipeline — one stack-resident Jacobi kernel
  // produces values and vectors with no padding and no per-stage launches.
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

  // Transposed factor accumulators in compute precision (U = ut^T), seeded
  // with the identity. Stage 1 applies its tile reflectors to them through
  // the same launch path as the trailing updates, Stage 2 mirrors its
  // Givens rotations, Stage 3 composes its divide-and-conquer coefficient
  // matrices and sorts rows with the values. Both accumulators are
  // n_pad-sized: a tall input's left factor lives in the R problem's
  // coordinates and is lifted to the full m rows afterwards by the blocked
  // reflector replay.
  Matrix<CT> ut_acc;
  Matrix<CT> vt_acc;
  MatrixView<CT> ut_view;
  MatrixView<CT> vt_view;
  MatrixView<CT>* ut_ptr = nullptr;
  MatrixView<CT>* vt_ptr = nullptr;
  if (want_vectors) {
    ut_acc = identity<CT>(npad);
    vt_acc = identity<CT>(npad);
    ut_view = ut_acc.view();
    vt_view = vt_acc.view();
    ut_ptr = &ut_view;
    vt_ptr = &vt_view;
  }

  // Square working matrix for the two-stage reduction. Zero padding to the
  // tile grid adds exactly (padded - n) zero singular values, dropped after
  // the descending sort.
  Matrix<T> square(npad, npad, T(0));

  // Retained tall-panel factorization (vector jobs on tall inputs): kept
  // alive through the stages so the extraction epilogue can replay Q onto
  // the solved left factor.
  Matrix<T> panel;
  Matrix<T> panel_tau;

  if (m == n) {
    copy_scaled(at, square, rep.scale_factor);
  } else {
    // Tall input: factor A = Q R with the REPLAYABLE panel QR and keep the
    // reflectors. Every job factors the same panel with the same kernels,
    // so R is bit-identical across jobs (and the values across Thin and
    // Full, which share the Stage-3 engine). The stages then run with
    // n_pad-sized accumulators and a vector job's U is composed afterwards
    // by blocked replay: peak left-side memory is O(m_pad * n_pad), never
    // an m_pad^2 accumulator.
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

  // Stage 1: dense -> band (tiled QR/LQ sweeps on the backend).
  Matrix<T> tau(col_layout.ntiles, ts, T(0));
  qr::band_reduction<T>(backend, square.view(), tau.view(), config.kernels,
                        &rep.stage_times, ut_ptr, vt_ptr);

  // Stage 2: band -> bidiagonal (Givens bulge chasing, compute precision).
  // The time the chase's rotations spend on the Ut/Vt accumulators is
  // reported separately (acc2) and booked under VectorAccumulation: the
  // band2bidiag figure stays comparable between values-only and vector
  // jobs, and the Figure 6 vector-acc column covers ALL vector work.
  auto t0 = std::chrono::steady_clock::now();
  auto bandm = band::extract_band<T>(square.view(), ts);
  std::vector<CT> d;
  std::vector<CT> e;
  double acc2 = 0.0;
  band::Stage2Options<CT> s2;
  s2.ut = ut_ptr;
  s2.vt = vt_ptr;
  s2.acc_seconds = want_vectors ? &acc2 : nullptr;
  s2.backend = &backend;
  s2.rot_batch = kStage2RotBatch;
  rep.chase_stats = band::band_to_bidiag(bandm, d, e, s2);
  rep.stage_times.add(ka::Stage::BandToBidiagonal, seconds_since(t0) - acc2);
  rep.stage_times.add(ka::Stage::VectorAccumulation, acc2);

  // Stage 3: bidiagonal -> singular values. The job selects the engine:
  // values-only solves run the implicit-shift QR iteration (the historic
  // path, bit-identical to every prior release); vector jobs run the
  // divide-and-conquer solver (src/dc), whose own implicit-QR leaf handles
  // the small sub-problems, so Thin and Full values are bit-identical and
  // agree with values-only ones within the accuracy gates. D&C splits its
  // accumulator-composition time out into VectorAccumulation.
  t0 = std::chrono::steady_clock::now();
  double acc3 = 0.0;
  rep.stage3_dc = want_vectors;
  std::vector<CT> sv;
  if (want_vectors) {
    dc::DcOptions dco;
    dco.pool = backend.batch_pool();
    dco.acc_seconds = &acc3;
    sv = dc::bidiag_svd_dc<CT>(std::move(d), std::move(e), &ut_view, &vt_view, dco);
  } else {
    sv = bidiag::bidiag_svd_qr(std::move(d), std::move(e));
  }
  rep.stage_times.add(ka::Stage::BidiagonalToDiagonal, seconds_since(t0) - acc3);
  rep.stage_times.add(ka::Stage::VectorAccumulation, acc3);

  rep.values.assign(sv.begin(), sv.end());           // already descending
  rep.values.resize(static_cast<std::size_t>(n));    // drop padding zeros
  if (rep.scale_factor != 1.0) {
    for (auto& v : rep.values) v *= rep.scale_factor;
  }

  if (want_vectors) {
    // Compose and unpad the factors. In the tall orientation
    // A = ut^T * diag(sigma) * vt over the padded space; the thin factors
    // are the first k = n sigma-sorted rows, the Full completions are the
    // remaining rows that live in the real (unpadded) coordinate range.
    // A wide input swaps the roles (A = a^T's V becomes a's U and vice
    // versa).
    t0 = std::chrono::steady_clock::now();
    const index_t k = n;  // min(m, n) in the tall orientation
    std::vector<index_t> usel;
    std::vector<index_t> vsel;
    if (config.job == SvdJob::Full) {
      // Both accumulators live in the n_pad space of the (possibly
      // R-projected) square problem, so the real coordinate range is n
      // for each; a tall input's remaining m - n Full completions come
      // from Q's completion columns in the blocked replay below.
      usel = select_real_rows(ut_acc, n, n);
      vsel = select_real_rows(vt_acc, n, n);
    } else {
      usel.resize(static_cast<std::size_t>(k));
      vsel.resize(static_cast<std::size_t>(k));
      for (index_t i = 0; i < k; ++i) {
        usel[static_cast<std::size_t>(i)] = i;
        vsel[static_cast<std::size_t>(i)] = i;
      }
    }
    if (panel.rows() > 0) {
      // Tall input: lift the n_pad-space left factor to the full m rows
      // by blocked reflector replay, U = Q * [U_R; completion]. The right
      // factor unpads directly from its accumulator rows.
      rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
      const bool full = config.job == SvdJob::Full;
      const index_t ucols = full ? m : n;
      t0 = std::chrono::steady_clock::now();
      if (!wide) {
        rep.u = Matrix<double>(m, ucols);
        rep.vt = Matrix<double>(static_cast<index_t>(vsel.size()), n);
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < rep.vt.rows(); ++i) {
            rep.vt(i, j) = static_cast<double>(
                vt_acc(vsel[static_cast<std::size_t>(i)], j));
          }
        }
      } else {
        rep.u = Matrix<double>(n, static_cast<index_t>(vsel.size()));
        for (index_t j = 0; j < rep.u.cols(); ++j) {
          const index_t src = vsel[static_cast<std::size_t>(j)];
          for (index_t i = 0; i < n; ++i) {
            rep.u(i, j) = static_cast<double>(vt_acc(src, i));
          }
        }
        rep.vt = Matrix<double>(ucols, m);
      }
      rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
      compose_left_blocked<T, CT>(backend, panel.view(), panel_tau.view(),
                                  config.kernels, rep.stage_times, ut_acc, usel, m,
                                  n, full, wide ? rep.vt : rep.u, wide);
      return rep;
    }
    // Square input (never wide): both factors unpad directly from their
    // accumulator rows.
    rep.u = Matrix<double>(m, static_cast<index_t>(usel.size()));
    for (index_t j = 0; j < rep.u.cols(); ++j) {
      const index_t src = usel[static_cast<std::size_t>(j)];
      for (index_t i = 0; i < m; ++i) {
        rep.u(i, j) = static_cast<double>(ut_acc(src, i));
      }
    }
    rep.vt = Matrix<double>(static_cast<index_t>(vsel.size()), n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < rep.vt.rows(); ++i) {
        rep.vt(i, j) =
            static_cast<double>(vt_acc(vsel[static_cast<std::size_t>(i)], j));
      }
    }
    rep.stage_times.add(ka::Stage::VectorAccumulation, seconds_since(t0));
  }
  return rep;
}

template SvdReport svd_values_report<Half>(ConstMatrixView<Half>, const SvdConfig&,
                                           ka::Backend&);
template SvdReport svd_values_report<float>(ConstMatrixView<float>, const SvdConfig&,
                                            ka::Backend&);
template SvdReport svd_values_report<double>(ConstMatrixView<double>, const SvdConfig&,
                                             ka::Backend&);

}  // namespace unisvd
