/// Tests of the randomized truncated SVD subsystem (src/rsvd):
///
///   * kernel-level: the backward reflector replay (panel_apply_q) onto
///     [I; 0] composing an orthonormal basis of the panel's range, fused
///     and unfused (the range finder's orth step; its GEMM is pinned
///     bitwise in test_gemm);
///   * pipeline-level: rank-k reconstruction error within (1 + eps) of the
///     OPTIMAL rank-k error (the sigma_{k+1} tail bound) across
///     FP16/FP32/FP64 x tall/square/wide, values cross-validated against
///     baseline::jacobi and the FP64 dense pipeline, orthogonality of the
///     returned factors, seeded determinism, adaptive-rank mode, dense
///     fallback;
///   * batched: schedule invariance (Auto/Inter/Intra/Mixed work stealing)
///     and ErrorPolicy::Isolate fault containment.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baseline/jacobi.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "ka/backend.hpp"
#include "rand/matrix_gen.hpp"
#include "qr/panel_qr.hpp"
#include "test_util.hpp"

using namespace unisvd;
using testutil::convert;

namespace {

/// Geometrically decaying spectrum down to `floor_sv` past `strong` values.
std::vector<double> decaying_spectrum(index_t n, index_t strong,
                                      double floor_sv = 1e-3) {
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const double s = std::pow(10.0, -2.0 * static_cast<double>(i) /
                                        static_cast<double>(strong));
    sigma[static_cast<std::size_t>(i)] = std::max(s, floor_sv);
  }
  return sigma;
}

/// sqrt(sum of sigma_i^2 for i >= k): the optimal rank-k Frobenius error.
double optimal_error(const std::vector<double>& sigma, index_t k) {
  double s = 0.0;
  for (std::size_t i = static_cast<std::size_t>(k); i < sigma.size(); ++i) {
    s += sigma[i] * sigma[i];
  }
  return std::sqrt(s);
}

/// || A - U diag(values) Vt ||_F of a truncated report, in double (the
/// shared ref:: metric over the report's factors).
double trunc_residual(const Matrix<double>& a, const TruncReport& rep) {
  return ref::rank_k_residual_fro(a.view(), rep.u, rep.values, rep.vt, rep.rank);
}

template <class T>
double storage_eps() {
  return precision_traits<T>::storage_eps;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel level
// ---------------------------------------------------------------------------

TEST(PanelApplyQ, ComposesOrthonormalBasis) {
  // Q applied to the identity block [I; 0] must yield orthonormal columns
  // spanning the panel's range: X = Q (Q^T X) for the original panel X.
  // Fused and unfused sweeps alike.
  for (const bool fused : {true, false}) {
    const index_t mpad = 128;
    const index_t lpad = 64;
    qr::KernelConfig cfg;
    cfg.fused = fused;
    const Matrix<double> x = testutil::random_matrix(mpad, lpad, 31);
    Matrix<double> panel = x;
    Matrix<double> tau(qr::panel_tau_rows(mpad / 32, lpad / 32), 32, 0.0);
    qr::panel_qr_factor<double>(ka::default_backend(), panel.view(), tau.view(),
                                cfg);
    Matrix<double> q(mpad, lpad, 0.0);
    for (index_t i = 0; i < lpad; ++i) q(i, i) = 1.0;
    qr::panel_apply_q<double, double>(ka::default_backend(), panel.view(),
                                      tau.view(), q.view(), cfg);
    EXPECT_LT(ref::orthogonality_defect(q.view()), 1e-12 * mpad) << "fused = " << fused;

    const ConstMatrixView<double> qv = q.view();
    const Matrix<double> coef = ref::matmul(qv.transposed(), x.view());
    const Matrix<double> back = ref::matmul(qv, coef.view());
    EXPECT_LT(ref::fro_diff(back.view(), x.view()), 1e-12 * ref::fro_norm(x.view()))
        << "fused = " << fused;
  }
}

// ---------------------------------------------------------------------------
// Pipeline level: the sigma_{k+1} error bound, across precision x shape
// ---------------------------------------------------------------------------

struct ShapeCase {
  index_t m;
  index_t n;
  const char* name;
};

class RsvdErrorBound : public ::testing::TestWithParam<ShapeCase> {};

template <class T>
void check_error_bound(const ShapeCase& shape) {
  const index_t k = 8;
  const index_t minmn = std::min(shape.m, shape.n);
  const auto sigma = decaying_spectrum(minmn, k);
  rnd::Xoshiro256 rng(404);
  const Matrix<double> a64 =
      rnd::rect_matrix_with_spectrum(shape.m, shape.n, sigma, rng);
  const Matrix<T> a = convert<T>(a64);

  TruncConfig cfg;
  cfg.rank = k;
  cfg.oversample = 8;
  cfg.power_iters = 2;
  const TruncReport rep = svd_truncated_report<T>(a.view(), cfg);

  ASSERT_EQ(rep.rank, k);
  ASSERT_EQ(rep.u.rows(), shape.m);
  ASSERT_EQ(rep.u.cols(), k);
  ASSERT_EQ(rep.vt.rows(), k);
  ASSERT_EQ(rep.vt.cols(), shape.n);

  // Rank-k reconstruction within (1 + eps) of the optimal rank-k error,
  // plus the storage-rounding floor (rounding A into T perturbs every
  // entry by ~eps_storage, an irreducible ~eps*||A||_F residual term).
  const double optimal = optimal_error(sigma, k);
  const double floor =
      50.0 * storage_eps<T>() * ref::fro_norm(a64.view());
  const double resid = trunc_residual(a64, rep);
  EXPECT_LE(resid, 1.5 * optimal + floor)
      << shape.name << ": residual " << resid << " optimal " << optimal;

  // Top-k values against the exact spectrum.
  for (index_t i = 0; i < k; ++i) {
    EXPECT_NEAR(rep.values[static_cast<std::size_t>(i)],
                sigma[static_cast<std::size_t>(i)],
                0.05 * sigma[static_cast<std::size_t>(i)] +
                    10.0 * storage_eps<T>())
        << shape.name << " value " << i;
  }

  // Factor orthogonality (storage-rounding limited).
  EXPECT_LT(ref::orthogonality_defect(rep.u.view()),
            1e-3 + 100.0 * storage_eps<T>() * shape.m)
      << shape.name;
  EXPECT_LT(ref::orthogonality_defect(rep.vt.view().transposed()),
            1e-3 + 100.0 * storage_eps<T>() * shape.n)
      << shape.name;

  // The tail estimate sits near sigma_{k+1}.
  EXPECT_GT(rep.sigma_tail, 0.0);
  EXPECT_LT(rep.sigma_tail,
            2.0 * sigma[static_cast<std::size_t>(k)] + 10.0 * storage_eps<T>());

  EXPECT_FALSE(rep.dense_fallback);
  EXPECT_GT(rep.stage_times.get(ka::Stage::RandomizedSketch), 0.0);
  EXPECT_GT(rep.stage_times.get(ka::Stage::VectorAccumulation), 0.0);
}

TEST_P(RsvdErrorBound, FP16) { check_error_bound<Half>(GetParam()); }
TEST_P(RsvdErrorBound, FP32) { check_error_bound<float>(GetParam()); }
TEST_P(RsvdErrorBound, FP64) { check_error_bound<double>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Shapes, RsvdErrorBound,
                         ::testing::Values(ShapeCase{160, 48, "tall"},
                                           ShapeCase{96, 96, "square"},
                                           ShapeCase{48, 144, "wide"}),
                         [](const auto& info) { return info.param.name; });

TEST(Rsvd, CrossValidatesAgainstJacobi) {
  // Square FP64 problem: the top-k randomized values must agree with the
  // one-sided Jacobi oracle to near machine precision (power iterations
  // make the projected spectrum exact for well-separated leading values).
  const index_t n = 96;
  const index_t k = 8;
  const auto sigma = decaying_spectrum(n, k);
  rnd::Xoshiro256 rng(77);
  const Matrix<double> a = rnd::rect_matrix_with_spectrum(n, n, sigma, rng);

  TruncConfig cfg;
  cfg.rank = k;
  const auto rep = svd_truncated_report<double>(a.view(), cfg);
  const auto oracle = baseline::jacobi_svdvals(a.view());
  ASSERT_GE(oracle.size(), static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    EXPECT_NEAR(rep.values[static_cast<std::size_t>(i)],
                oracle[static_cast<std::size_t>(i)],
                1e-10 * oracle[0])
        << "value " << i;
  }
}

// ---------------------------------------------------------------------------
// Determinism, adaptive rank, fallback
// ---------------------------------------------------------------------------

TEST(Rsvd, SeededDeterminism) {
  const auto sigma = decaying_spectrum(40, 6);
  rnd::Xoshiro256 rng(55);
  const Matrix<double> a64 = rnd::rect_matrix_with_spectrum(128, 40, sigma, rng);
  const Matrix<float> a = convert<float>(a64);

  TruncConfig cfg;
  cfg.rank = 6;
  cfg.seed = 123;
  const auto r1 = svd_truncated_report<float>(a.view(), cfg);
  const auto r2 = svd_truncated_report<float>(a.view(), cfg);
  ASSERT_EQ(r1.values.size(), r2.values.size());
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    EXPECT_EQ(r1.values[i], r2.values[i]) << "value " << i;
  }
  for (index_t j = 0; j < r1.u.cols(); ++j) {
    for (index_t i = 0; i < r1.u.rows(); ++i) {
      ASSERT_EQ(r1.u(i, j), r2.u(i, j)) << "u(" << i << "," << j << ")";
    }
  }
  for (index_t j = 0; j < r1.vt.cols(); ++j) {
    for (index_t i = 0; i < r1.vt.rows(); ++i) {
      ASSERT_EQ(r1.vt(i, j), r2.vt(i, j)) << "vt(" << i << "," << j << ")";
    }
  }

  // A different seed draws a different sketch — the values still agree to
  // the method's accuracy, bitwise equality would be a bug in the test.
  TruncConfig other = cfg;
  other.seed = 321;
  const auto r3 = svd_truncated_report<float>(a.view(), other);
  EXPECT_NEAR(r3.values[0], r1.values[0], 0.01 * r1.values[0]);
}

TEST(Rsvd, AdaptiveRankFindsTheKnee) {
  // Sharp knee at rank 6 (then a 1e-4-relative tail): tol = 1e-2 must
  // return exactly the knee, growing the sketch from a deliberately tiny
  // initial guess.
  const index_t n = 64;
  std::vector<double> sigma(static_cast<std::size_t>(n), 1e-4);
  for (index_t i = 0; i < 6; ++i) sigma[static_cast<std::size_t>(i)] = 1.0;
  rnd::Xoshiro256 rng(99);
  const Matrix<double> a64 = rnd::rect_matrix_with_spectrum(192, n, sigma, rng);
  const Matrix<float> a = convert<float>(a64);

  TruncConfig cfg;
  cfg.rank = 2;       // initial guess: too small on purpose
  cfg.oversample = 1; // and barely oversampled, so the sketch MUST grow
  cfg.tol = 1e-2;
  // Small tiles keep the padded sketch close to the requested width —
  // otherwise TILESIZE = 32 padding covers the knee on the first round and
  // the growth path never runs.
  cfg.svd.kernels.tilesize = 8;
  cfg.svd.kernels.colperblock = 8;
  const auto rep = svd_truncated_report<float>(a.view(), cfg);
  EXPECT_EQ(rep.rank, 6);
  EXPECT_GE(rep.adaptive_rounds, 2);  // executed the first round AND a regrow
  EXPECT_LE(rep.sigma_tail, 1e-2 * rep.values[0]);
  const double resid = trunc_residual(a64, rep);
  EXPECT_LE(resid, 2.0 * optimal_error(sigma, 6) +
                       50.0 * storage_eps<float>() * ref::fro_norm(a64.view()));
}

TEST(Rsvd, DenseFallbackMatchesDenseTruncation) {
  // rank + oversample >= n: the sketch cannot be smaller than the problem,
  // so the solver must fall back to the exact dense pipeline.
  const Matrix<double> a64 = testutil::random_matrix(80, 24, 13);
  const Matrix<float> a = convert<float>(a64);

  TruncConfig cfg;
  cfg.rank = 20;
  cfg.oversample = 8;
  const auto rep = svd_truncated_report<float>(a.view(), cfg);
  EXPECT_TRUE(rep.dense_fallback);
  EXPECT_EQ(rep.rank, 20);

  SvdConfig dense_cfg;
  dense_cfg.job = SvdJob::Thin;
  const auto dense = svd_values_report<float>(a.view(), dense_cfg);
  for (index_t i = 0; i < rep.rank; ++i) {
    EXPECT_EQ(rep.values[static_cast<std::size_t>(i)],
              dense.values[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(rep.sigma_tail, dense.values[20]);
}

TEST(Rsvd, AdaptiveRoundsCountSketchRoundsExecuted) {
  // TruncReport::adaptive_rounds is "sketch rounds executed", at EVERY
  // exit: 1 for a fixed-rank or first-fit adaptive solve, 0 when the dense
  // fallback fires before any sketch, and the failed rounds still count
  // when the max-rank fallback ends an adaptive run.
  const auto sigma = decaying_spectrum(64, 6);
  rnd::Xoshiro256 rng(31);
  const Matrix<float> a =
      convert<float>(rnd::rect_matrix_with_spectrum(192, 64, sigma, rng));

  // Fixed rank, one sketch pass.
  TruncConfig fixed;
  fixed.rank = 8;
  fixed.oversample = 4;
  const auto rep_fixed = svd_truncated_report<float>(a.view(), fixed);
  EXPECT_FALSE(rep_fixed.dense_fallback);
  EXPECT_EQ(rep_fixed.adaptive_rounds, 1);

  // Adaptive, knee inside the first sketch: still exactly one round.
  TruncConfig first_fit;
  first_fit.rank = 16;
  first_fit.oversample = 8;
  first_fit.tol = 1e-2;
  const auto rep_fit = svd_truncated_report<float>(a.view(), first_fit);
  EXPECT_FALSE(rep_fit.dense_fallback);
  EXPECT_EQ(rep_fit.adaptive_rounds, 1);

  // Sketch as wide as the problem: dense fallback BEFORE any sketch ran.
  const Matrix<float> small_m = convert<float>(testutil::random_matrix(48, 24, 33));
  TruncConfig too_wide;
  too_wide.rank = 20;
  too_wide.oversample = 8;
  const auto rep_wide = svd_truncated_report<float>(small_m.view(), too_wide);
  EXPECT_TRUE(rep_wide.dense_fallback);
  EXPECT_EQ(rep_wide.adaptive_rounds, 0);

  // Flat spectrum, unreachable tol, rank already at max_rank: the one
  // executed sketch round is counted on the max-rank fallback exit.
  std::vector<double> flat(64, 1.0);
  rnd::Xoshiro256 rng2(35);
  const Matrix<float> af =
      convert<float>(rnd::rect_matrix_with_spectrum(192, 64, flat, rng2));
  TruncConfig capped;
  capped.rank = 8;
  capped.max_rank = 8;
  capped.oversample = 4;
  capped.tol = 1e-8;
  const auto rep_cap = svd_truncated_report<float>(af.view(), capped);
  EXPECT_TRUE(rep_cap.dense_fallback);
  EXPECT_EQ(rep_cap.adaptive_rounds, 1);
}

TEST(RsvdBatched, PerProblemSeedsDecorrelateSketches) {
  // Two IDENTICAL matrices in one batch must draw DIFFERENT Gaussian
  // sketches (trunc_problem_seed differs per index) — a single shared
  // sketch would make every problem fail together on an input adversarial
  // to that one draw. The factors therefore differ in their low-order bits
  // while both stay accurate; each entry still reproduces exactly from a
  // solo call with the derived seed.
  const auto sigma = decaying_spectrum(48, 6);
  rnd::Xoshiro256 rng(77);
  const Matrix<float> a =
      convert<float>(rnd::rect_matrix_with_spectrum(144, 48, sigma, rng));
  const std::vector<ConstMatrixView<float>> views{a.view(), a.view()};

  TruncConfig trunc;
  trunc.rank = 6;
  trunc.oversample = 4;
  trunc.power_iters = 1;
  trunc.seed = 2024;
  EXPECT_NE(trunc_problem_seed(trunc.seed, 0), trunc_problem_seed(trunc.seed, 1));
  EXPECT_NE(trunc_problem_seed(trunc.seed, 0), trunc.seed);

  BatchConfig config;
  const auto rep = svd_truncated_batched_report<float>(
      std::span<const ConstMatrixView<float>>(views), trunc, config);
  ASSERT_TRUE(rep.all_ok());
  ASSERT_EQ(rep.reports.size(), 2u);
  EXPECT_GT(ref::fro_diff(rep.reports[0].u.view(), rep.reports[1].u.view()), 0.0);

  for (std::size_t p = 0; p < views.size(); ++p) {
    TruncConfig per = trunc;
    per.seed = trunc_problem_seed(trunc.seed, p);
    const auto solo = svd_truncated_report<float>(views[p], per);
    ASSERT_EQ(solo.values.size(), rep.reports[p].values.size());
    for (std::size_t i = 0; i < solo.values.size(); ++i) {
      EXPECT_EQ(solo.values[i], rep.reports[p].values[i]) << "problem " << p;
    }
    EXPECT_EQ(ref::fro_diff(solo.u.view(), rep.reports[p].u.view()), 0.0);
    EXPECT_EQ(ref::fro_diff(solo.vt.view(), rep.reports[p].vt.view()), 0.0);
  }
}

TEST(Rsvd, AutoScaleHandlesHalfRange) {
  // FP16 saturates at 65504: without auto_scale a large-magnitude matrix
  // overflows the sketch; with it the truncated solve recovers the spectrum
  // scaled back up.
  const index_t n = 32;
  const auto base = decaying_spectrum(n, 4);
  std::vector<double> sigma(base);
  for (auto& s : sigma) s *= 3.0e4;
  rnd::Xoshiro256 rng(17);
  const Matrix<double> a64 = rnd::rect_matrix_with_spectrum(96, n, sigma, rng);
  const Matrix<Half> a = convert<Half>(a64);

  TruncConfig cfg;
  cfg.rank = 4;
  cfg.svd.auto_scale = true;
  const auto rep = svd_truncated_report<Half>(a.view(), cfg);
  EXPECT_NE(rep.scale_factor, 1.0);
  EXPECT_NEAR(rep.values[0], sigma[0], 0.02 * sigma[0]);
}

TEST(Rsvd, RejectsInvalidInputs) {
  const Matrix<float> empty;
  TruncConfig cfg;
  cfg.rank = 2;
  EXPECT_THROW((void)svd_truncated_report<float>(empty.view(), cfg), Error);

  Matrix<float> bad(8, 8, 1.0f);
  bad(3, 3) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)svd_truncated_report<float>(bad.view(), cfg), Error);

  TruncConfig invalid;
  invalid.power_iters = -1;
  const Matrix<float> ok(8, 8, 1.0f);
  EXPECT_THROW((void)svd_truncated_report<float>(ok.view(), invalid), Error);
  invalid = TruncConfig{};
  invalid.oversample = -4;
  EXPECT_THROW((void)svd_truncated_report<float>(ok.view(), invalid), Error);
}

TEST(Rsvd, DefaultConfigPicksDefaultRank) {
  // The no-config call works out of the box: rank 0 means "default rank 8"
  // (clamped to min(m, n)), so svd_truncated(a.view()) never throws on a
  // healthy input.
  const auto sigma = decaying_spectrum(32, 8);
  rnd::Xoshiro256 rng(61);
  const Matrix<float> a =
      convert<float>(rnd::rect_matrix_with_spectrum(96, 32, sigma, rng));
  const SvdTrunc<float> f = svd_truncated<float>(a.view());
  EXPECT_EQ(f.rank(), 8);

  // Smaller than the default rank: clamps to min(m, n).
  const Matrix<float> tiny = convert<float>(testutil::random_matrix(12, 4, 62));
  EXPECT_EQ(svd_truncated<float>(tiny.view()).rank(), 4);
}

TEST(Rsvd, StorageTruncApiNarrowsOnce) {
  const auto sigma = decaying_spectrum(32, 4);
  rnd::Xoshiro256 rng(23);
  const Matrix<double> a64 = rnd::rect_matrix_with_spectrum(64, 32, sigma, rng);
  const Matrix<Half> a = convert<Half>(a64);
  TruncConfig cfg;
  cfg.rank = 4;
  const SvdTrunc<Half> f = svd_truncated<Half>(a.view(), cfg);
  const TruncReport rep = svd_truncated_report<Half>(a.view(), cfg);
  ASSERT_EQ(f.rank(), rep.rank);
  for (index_t i = 0; i < f.rank(); ++i) {
    EXPECT_EQ(f.values[static_cast<std::size_t>(i)],
              half_from_double(rep.values[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(f.u.rows(), 64);
  EXPECT_EQ(f.vt.cols(), 32);
}

// ---------------------------------------------------------------------------
// Batched: schedule invariance and fault isolation
// ---------------------------------------------------------------------------

namespace {

/// Ragged problem set spanning both sides of a small crossover.
template <class T>
std::vector<Matrix<T>> ragged_problems() {
  std::vector<Matrix<T>> problems;
  const auto add = [&](index_t m, index_t n, index_t strong, std::uint64_t seed) {
    const auto sigma = decaying_spectrum(std::min(m, n), strong);
    rnd::Xoshiro256 rng(seed);
    problems.push_back(convert<T>(rnd::rect_matrix_with_spectrum(m, n, sigma, rng)));
  };
  add(96, 32, 4, 1);
  add(48, 48, 4, 2);
  add(160, 48, 6, 3);  // the "large" problem
  add(32, 96, 4, 4);   // wide
  add(64, 32, 4, 5);
  return problems;
}

}  // namespace

TEST(RsvdBatched, ScheduleInvariance) {
  const auto problems = ragged_problems<float>();
  const auto views = testutil::views_of(problems);

  TruncConfig trunc;
  trunc.rank = 4;
  trunc.oversample = 4;
  trunc.power_iters = 1;

  // Solo reference: problem p of a batch runs under its own decorrelated
  // sketch seed trunc_problem_seed(seed, p), so the solo call must too.
  std::vector<TruncReport> solo;
  for (std::size_t p = 0; p < views.size(); ++p) {
    TruncConfig per = trunc;
    per.seed = trunc_problem_seed(trunc.seed, p);
    solo.push_back(svd_truncated_report<float>(views[p], per));
  }

  for (const BatchSchedule schedule :
       {BatchSchedule::Auto, BatchSchedule::InterProblem,
        BatchSchedule::IntraProblem, BatchSchedule::Mixed}) {
    BatchConfig config;
    config.schedule = schedule;
    config.crossover_n = 100;  // 160x48 problem lands above the crossover
    const auto rep = svd_truncated_batched_report<float>(
        std::span<const ConstMatrixView<float>>(views), trunc, config);
    ASSERT_EQ(rep.reports.size(), views.size());
    EXPECT_TRUE(rep.all_ok());
    for (std::size_t p = 0; p < views.size(); ++p) {
      ASSERT_EQ(rep.reports[p].values.size(), solo[p].values.size())
          << to_string(schedule) << " problem " << p;
      for (std::size_t i = 0; i < solo[p].values.size(); ++i) {
        EXPECT_EQ(rep.reports[p].values[i], solo[p].values[i])
            << to_string(schedule) << " problem " << p << " value " << i;
      }
      for (index_t j = 0; j < solo[p].u.cols(); ++j) {
        for (index_t i = 0; i < solo[p].u.rows(); ++i) {
          ASSERT_EQ(rep.reports[p].u(i, j), solo[p].u(i, j))
              << to_string(schedule) << " problem " << p;
        }
      }
    }
  }
}

TEST(RsvdBatched, IsolateContainsPoisonedProblem) {
  auto problems = ragged_problems<float>();
  problems[1](2, 2) = std::numeric_limits<float>::quiet_NaN();
  const auto views = testutil::views_of(problems);

  TruncConfig trunc;
  trunc.rank = 4;
  trunc.oversample = 4;
  trunc.power_iters = 1;

  BatchConfig config;
  config.on_error = ErrorPolicy::Isolate;
  const auto rep = svd_truncated_batched_report<float>(
      std::span<const ConstMatrixView<float>>(views), trunc, config);
  EXPECT_FALSE(rep.all_ok());
  EXPECT_EQ(rep.failed_count(), 1u);
  EXPECT_EQ(rep.reports[1].status, SvdStatus::NonFinite);
  EXPECT_TRUE(rep.reports[1].values.empty());
  for (std::size_t p = 0; p < views.size(); ++p) {
    if (p == 1) continue;
    EXPECT_EQ(rep.reports[p].status, SvdStatus::Ok) << "problem " << p;
    EXPECT_EQ(rep.reports[p].rank, 4) << "problem " << p;
  }

  // Throw policy: the same batch aborts.
  BatchConfig throwing;
  throwing.on_error = ErrorPolicy::Throw;
  EXPECT_THROW((void)svd_truncated_batched_report<float>(
                   std::span<const ConstMatrixView<float>>(views), trunc, throwing),
               Error);

  // Batched empty-matrix problems are isolated too (no exception).
  std::vector<Matrix<float>> with_empty;
  with_empty.emplace_back(16, 16, 1.0f);
  with_empty.emplace_back();  // 0 x 0
  const auto views2 = testutil::views_of(with_empty);
  const auto rep2 = svd_truncated_batched_report<float>(
      std::span<const ConstMatrixView<float>>(views2), trunc, config);
  EXPECT_EQ(rep2.reports[1].status, SvdStatus::InvalidInput);
}

TEST(RsvdBatched, StorageApiShapes) {
  const auto problems = ragged_problems<Half>();
  const auto views = testutil::views_of(problems);
  TruncConfig trunc;
  trunc.rank = 3;
  trunc.power_iters = 1;
  const auto out = svd_truncated_batched<Half>(
      std::span<const ConstMatrixView<Half>>(views), trunc);
  ASSERT_EQ(out.size(), views.size());
  for (std::size_t p = 0; p < out.size(); ++p) {
    EXPECT_EQ(out[p].rank(), 3);
    EXPECT_EQ(out[p].u.rows(), views[p].rows());
    EXPECT_EQ(out[p].vt.cols(), views[p].cols());
  }
}

// ---------------------------------------------------------------------------
// Rank-0 / rank-deficient behavior (adaptive clamp regression)
// ---------------------------------------------------------------------------

TEST(RsvdRankZero, AdaptiveZeroMatrixReturnsEmptyFactorization) {
  // A zero matrix under adaptive tolerance has numerical rank 0: the sketch
  // path must return EMPTY values and 0-column factors of the correct outer
  // extents. The old `kt = std::max(1, i)` clamp silently promoted the
  // detection to rank 1, handing back one zero-valued singular triplet.
  const Matrix<float> a(96, 96, 0.0f);
  TruncConfig cfg;
  cfg.rank = 8;
  cfg.oversample = 4;
  cfg.tol = 1e-3;
  cfg.svd.kernels.tilesize = 8;
  cfg.svd.kernels.colperblock = 8;
  const auto rep = svd_truncated_report<float>(a.view(), cfg);
  EXPECT_FALSE(rep.dense_fallback);  // the sketch ran and detected rank 0
  EXPECT_EQ(rep.adaptive_rounds, 1);
  EXPECT_EQ(rep.rank, 0);
  EXPECT_TRUE(rep.values.empty());
  EXPECT_EQ(rep.u.rows(), 96);
  EXPECT_EQ(rep.u.cols(), 0);
  EXPECT_EQ(rep.vt.rows(), 0);
  EXPECT_EQ(rep.vt.cols(), 96);
  EXPECT_EQ(rep.sigma_tail, 0.0);
}

TEST(RsvdRankZero, DenseFallbackZeroMatrixReturnsEmptyFactorization) {
  // Same contract on the dense-fallback exit (a tiny zero matrix routes
  // through the fused small_svd path): rank 0, not a clamped rank 1.
  const Matrix<float> a(24, 24, 0.0f);
  TruncConfig cfg;
  cfg.rank = 8;
  cfg.tol = 1e-3;
  const auto rep = svd_truncated_report<float>(a.view(), cfg);
  EXPECT_TRUE(rep.dense_fallback);
  EXPECT_EQ(rep.rank, 0);
  EXPECT_TRUE(rep.values.empty());
  EXPECT_EQ(rep.u.rows(), 24);
  EXPECT_EQ(rep.u.cols(), 0);
  EXPECT_EQ(rep.vt.rows(), 0);
  EXPECT_EQ(rep.vt.cols(), 24);
  EXPECT_EQ(rep.sigma_tail, 0.0);
}

TEST(RsvdRankZero, ExactlyRankDeficientStopsAtTheTrueRank) {
  // An EXACTLY rank-3 matrix under a tight adaptive tolerance: the solver
  // reports rank 3 (the fix must not under- or over-shoot nonzero ranks).
  const index_t n = 64;
  std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
  sigma[0] = 1.0;
  sigma[1] = 0.5;
  sigma[2] = 0.25;
  rnd::Xoshiro256 rng(4242);
  const Matrix<double> a = rnd::rect_matrix_with_spectrum(192, n, sigma, rng);
  TruncConfig cfg;
  cfg.rank = 8;
  cfg.oversample = 4;
  cfg.tol = 1e-8;
  cfg.power_iters = 2;
  cfg.svd.kernels.tilesize = 8;
  cfg.svd.kernels.colperblock = 8;
  const auto rep = svd_truncated_report<double>(a.view(), cfg);
  EXPECT_FALSE(rep.dense_fallback);
  ASSERT_EQ(rep.rank, 3);
  EXPECT_NEAR(rep.values[0], 1.0, 1e-10);
  EXPECT_NEAR(rep.values[2], 0.25, 1e-10);
  EXPECT_LE(trunc_residual(a, rep), 1e-10);
}

// ---------------------------------------------------------------------------
// Power-iteration memory footprint (resident accumulator regression)
// ---------------------------------------------------------------------------

TEST(RsvdMemory, PowerIterationPeaksBelowOneInputBlock)
{
  // The range finder holds only sketch-width panels (m_pad x l_pad and
  // n_pad x l_pad) beside the caller's input: no copy of A, padded or not,
  // is ever made. The whole solve must therefore peak below one m x n
  // block of the input type, which a padded compute-precision copy of A
  // (the accumulator a fused projection would need) cannot.
  const index_t m = 768;
  const index_t n = 192;
  TruncConfig cfg;
  cfg.rank = 16;
  cfg.oversample = 16;
  cfg.power_iters = 2;
  const Matrix<double> a = testutil::random_matrix(m, n, 777);

  matrix_reset_peak();
  const std::size_t before = matrix_live_bytes();
  const auto rep = svd_truncated_report<double>(a.view(), cfg);
  const std::size_t delta = matrix_peak_bytes() - before;

  ASSERT_FALSE(rep.dense_fallback);
  ASSERT_EQ(rep.rank, 16);
  const std::size_t block_bytes =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n) * sizeof(double);
  std::cout << "[ rsvd peak ] delta = " << delta << " bytes, m x n block = "
            << block_bytes << " bytes\n";
  EXPECT_LE(delta, block_bytes) << "the range finder holds an input-sized block";
}
