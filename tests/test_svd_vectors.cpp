/// Tests of the full SVD (U, Sigma, V^T) across precisions, shapes and
/// jobs: reconstruction residual ||A - U S V^T||_F / ||A||_F and
/// orthogonality defects ||U^T U - I||_F, ||V^T V - I||_F within 50*eps*n
/// at each precision's storage epsilon (FP16 accumulates vectors on its
/// FP32 compute path), Thin and Full values bit-identical and within
/// 50*eps*n of svd_values, agreement with
/// the baseline::jacobi oracle, exact zero singular values beside the tile
/// padding, a non-finite input solved with check_finite off, and batched
/// vectors under ErrorPolicy::Isolate.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baseline/jacobi.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "rand/spectrum.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

SvdConfig vec_config(SvdJob job = SvdJob::Thin, int ts = 8) {
  SvdConfig cfg;
  cfg.kernels.tilesize = ts;
  cfg.kernels.colperblock = std::min(8, ts);
  cfg.job = job;
  // This suite pins the PIPELINE's vector accumulation (stage timing,
  // accumulator structure) on sub-threshold sizes: fused path off.
  cfg.small_svd_threshold = 0;
  return cfg;
}

/// || A - U diag(values) V^T ||_F / || A ||_F, measured in double from the
/// report's compute-path factors. Handles thin and full shapes (columns of
/// U beyond k multiply zero).
template <class T>
double reconstruction_residual(ConstMatrixView<T> a, const SvdReport& rep) {
  const Matrix<double> ad = ref::to_double(a);
  Matrix<double> us(rep.u.rows(), rep.vt.rows(), 0.0);
  for (index_t j = 0; j < us.cols(); ++j) {
    if (j >= static_cast<index_t>(rep.values.size())) continue;
    const double s = rep.values[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < us.rows(); ++i) {
      us(i, j) = rep.u(i, j) * s;
    }
  }
  const Matrix<double> prod =
      ref::matmul(ConstMatrixView<double>(us.view()), rep.vt.view());
  const double denom = ref::fro_norm(ad.view());
  const double diff = ref::fro_diff(ad.view(), prod.view());
  return denom == 0.0 ? diff : diff / denom;
}

/// The acceptance bound: 50 * eps * n at the precision's storage epsilon.
template <class T>
double accept_tol(index_t m, index_t n) {
  return 50.0 * precision_traits<T>::storage_eps * static_cast<double>(std::max(m, n));
}

/// Orthogonality bound for the accumulated factors: the same 50 * eps * n.
/// FP16 factors are *measured* on the FP32 compute path (the report's
/// double-held u/vt, accumulated in FP32), but the reflectors they are
/// built from were rounded to FP16 storage by Stage 1, so each applied
/// transform deviates from orthogonality by O(eps_fp16) — the defect is
/// bounded by FP16's storage epsilon, not FP32's (measured ~5e-3 at n=32,
/// comfortably inside 50 * eps * n ~ 1.5).
template <class T>
double ortho_tol(index_t m, index_t n) {
  return accept_tol<T>(m, n);
}

template <class T>
void expect_valid_svd(ConstMatrixView<T> a, const SvdReport& rep, SvdJob job,
                      const char* tag) {
  const std::string what = std::string(tag) + " [" + to_string(job) + "]";
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = std::min(m, n);
  ASSERT_EQ(rep.values.size(), static_cast<std::size_t>(k)) << what;
  if (job == SvdJob::Full) {
    ASSERT_EQ(rep.u.rows(), m) << what;
    ASSERT_EQ(rep.u.cols(), m) << what;
    ASSERT_EQ(rep.vt.rows(), n) << what;
    ASSERT_EQ(rep.vt.cols(), n) << what;
  } else {
    ASSERT_EQ(rep.u.rows(), m) << what;
    ASSERT_EQ(rep.u.cols(), k) << what;
    ASSERT_EQ(rep.vt.rows(), k) << what;
    ASSERT_EQ(rep.vt.cols(), n) << what;
  }
  EXPECT_LE(reconstruction_residual(a, rep), accept_tol<T>(m, n)) << what;
  EXPECT_LE(ref::orthogonality_defect(rep.u.view()), ortho_tol<T>(m, n)) << what;
  EXPECT_LE(ref::orthogonality_defect(rep.vt.view().transposed()), ortho_tol<T>(m, n))
      << what;
  for (std::size_t i = 1; i < rep.values.size(); ++i) {
    EXPECT_LE(rep.values[i], rep.values[i - 1]) << what;
  }
}

}  // namespace

template <class T>
class SvdVectorsTyped : public ::testing::Test {};
using StorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(SvdVectorsTyped, StorageTypes);

TYPED_TEST(SvdVectorsTyped, SquareThin) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(32, 32, 501));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config());
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "square 32");
}

TYPED_TEST(SvdVectorsTyped, TallThin) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(48, 24, 502));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config());
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "tall 48x24");
}

TYPED_TEST(SvdVectorsTyped, WideThin) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(24, 40, 503));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config());
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "wide 24x40");
}

TYPED_TEST(SvdVectorsTyped, PaddedSquareThin) {
  // 33 with TILESIZE 16 pads to 48: exercises padding-row/column isolation.
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(33, 33, 504));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Thin, 16));
  EXPECT_EQ(rep.padded_n, 48);
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "padded 33 ts16");
}

TYPED_TEST(SvdVectorsTyped, SmallerThanTile) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(10, 10, 505));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Thin, 16));
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "n10 ts16");
}

TYPED_TEST(SvdVectorsTyped, SquareFull) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(20, 20, 506));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Full));
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Full, "square full 20");
}

TYPED_TEST(SvdVectorsTyped, TallFullHasOrthonormalCompletion) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(40, 16, 507));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Full));
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Full, "tall full 40x16");
}

TYPED_TEST(SvdVectorsTyped, WideFullHasOrthonormalCompletion) {
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(16, 33, 508));
  const auto rep = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Full));
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Full, "wide full 16x33");
}

TYPED_TEST(SvdVectorsTyped, UnfusedKernelsGiveValidFactorsAndThinMatchesFull) {
  // Tuned configurations may turn the fused TSQRT/TSMQR chain off; the
  // back-transformation then replays Q1, P1 and a tall input's panel Q one
  // tile row at a time. Padded square, tall and wide inputs pass the gates
  // either way, and the Thin factors are the leading block of the Full
  // ones, bit for bit.
  const std::pair<index_t, index_t> shapes[] = {{37, 37}, {53, 21}, {21, 53}};
  const auto leading = [](const Matrix<double>& full, const Matrix<double>& thin) {
    return ConstMatrixView<double>(full.data(), thin.rows(), thin.cols(), full.rows());
  };
  for (const bool fused : {true, false}) {
    for (const auto& [m, n] : shapes) {
      const std::string tag = std::to_string(m) + "x" + std::to_string(n) +
                              (fused ? " fused" : " unfused");
      const auto a = testutil::convert<TypeParam>(
          testutil::random_matrix(m, n, 520 + static_cast<std::uint64_t>(m)));
      auto thin_cfg = vec_config(SvdJob::Thin);
      auto full_cfg = vec_config(SvdJob::Full);
      thin_cfg.kernels.fused = fused;
      full_cfg.kernels.fused = fused;
      const auto thin = svd_report<TypeParam>(a.view(), thin_cfg);
      const auto full = svd_report<TypeParam>(a.view(), full_cfg);
      expect_valid_svd<TypeParam>(a.view(), thin, SvdJob::Thin, tag.c_str());
      expect_valid_svd<TypeParam>(a.view(), full, SvdJob::Full, tag.c_str());
      EXPECT_EQ(ref::fro_diff(thin.u.view(), leading(full.u, thin.u)), 0.0) << tag;
      EXPECT_EQ(ref::fro_diff(thin.vt.view(), leading(full.vt, thin.vt)), 0.0) << tag;
    }
  }
}

TYPED_TEST(SvdVectorsTyped, ValuesAgreeAcrossJobs) {
  // Thin and Full run the same stages, so their values are the same bits.
  // ValuesOnly runs implicit QR at Stage 3 where vector jobs run
  // divide-and-conquer: it agrees within the 50*eps*n accuracy gate.
  const std::pair<index_t, index_t> shapes[] = {{24, 24}, {40, 24}, {24, 40}};
  for (const auto& [m, n] : shapes) {
    const auto a = testutil::convert<TypeParam>(
        testutil::random_matrix(m, n, 600 + static_cast<std::uint64_t>(m + n)));
    const auto plain = svd_values<TypeParam>(a.view(), vec_config(SvdJob::ValuesOnly));
    const auto thin = svd<TypeParam>(a.view(), vec_config(SvdJob::Thin));
    const auto full = svd<TypeParam>(a.view(), vec_config(SvdJob::Full));
    ASSERT_EQ(plain.size(), thin.values.size());
    ASSERT_EQ(plain.size(), full.values.size());
    const double tol = accept_tol<TypeParam>(m, n) * static_cast<double>(plain[0]);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(static_cast<double>(thin.values[i]), static_cast<double>(full.values[i]))
          << "m=" << m << " n=" << n << " i=" << i;
      EXPECT_NEAR(static_cast<double>(plain[i]), static_cast<double>(thin.values[i]), tol)
          << "m=" << m << " n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(SvdVectorsTyped, PaddedExactZeroSingularValues) {
  // Exact zero singular values beside the tile padding's: the zero matrix,
  // exact zero columns and a diagonal with zeros, on padded square, tall
  // and wide shapes. The vectors of the zero values must still be real
  // orthonormal directions, and Thin and Full must share their values.
  const std::pair<index_t, index_t> shapes[] = {{21, 21}, {37, 21}, {21, 37}};
  for (const auto& [m, n] : shapes) {
    const index_t k = std::min(m, n);
    Matrix<double> zero(m, n, 0.0);
    Matrix<double> zero_cols =
        testutil::random_matrix(m, n, 640 + static_cast<std::uint64_t>(m));
    for (const index_t j : {index_t{0}, index_t{5}, n - 1}) {
      for (index_t i = 0; i < m; ++i) zero_cols(i, j) = 0.0;
    }
    Matrix<double> diag(m, n, 0.0);
    for (index_t i = 0; i < k; ++i) {
      diag(i, i) = i % 3 == 1 ? 0.0 : static_cast<double>(i + 1);
    }
    const std::pair<const char*, const Matrix<double>*> inputs[] = {
        {"zero", &zero}, {"zero columns", &zero_cols}, {"diagonal", &diag}};
    for (const auto& [name, ad] : inputs) {
      const auto a = testutil::convert<TypeParam>(*ad);
      for (const int ts : {8, 32}) {
        const std::string tag = std::string(name) + " " + std::to_string(m) + "x" +
                                std::to_string(n) + " ts" + std::to_string(ts);
        const auto thin = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Thin, ts));
        const auto full = svd_report<TypeParam>(a.view(), vec_config(SvdJob::Full, ts));
        EXPECT_GT(thin.padded_n, k) << tag;
        expect_valid_svd<TypeParam>(a.view(), thin, SvdJob::Thin, tag.c_str());
        expect_valid_svd<TypeParam>(a.view(), full, SvdJob::Full, tag.c_str());
        EXPECT_EQ(thin.values, full.values) << tag;
      }
    }
  }
}

TEST(SvdVectors, NonFiniteInputWithoutCheckFailsCleanly) {
  // check_finite off hands a NaN to the pipeline, and Stage 1 spreads it
  // into the tile padding, so NaN chase rotations land on padding
  // coordinates that the n x n factors do not have. The solve must fail
  // with an Error, never replay them outside the factor.
  for (const index_t n : {index_t{70}, index_t{100}}) {
    Matrix<float> a = testutil::convert<float>(
        testutil::random_matrix(n, n, 650 + static_cast<std::uint64_t>(n)));
    a(3, 5) = std::numeric_limits<float>::quiet_NaN();
    SvdConfig cfg = vec_config(SvdJob::Thin, 32);
    cfg.check_finite = false;
    EXPECT_THROW((void)svd_report<float>(a.view(), cfg), Error) << "n=" << n;
  }
}

TYPED_TEST(SvdVectorsTyped, AutoScaleLeavesFactorsOrthogonal) {
  // A matrix far outside [0.25, 4] triggers auto_scale; the values are
  // rescaled on output and the factors must still reconstruct the ORIGINAL
  // (unscaled) input.
  auto ad = testutil::random_matrix(24, 24, 509);
  for (index_t j = 0; j < 24; ++j) {
    for (index_t i = 0; i < 24; ++i) ad(i, j) *= 64.0;
  }
  const auto a = testutil::convert<TypeParam>(ad);
  auto cfg = vec_config();
  cfg.auto_scale = true;
  const auto rep = svd_report<TypeParam>(a.view(), cfg);
  EXPECT_NE(rep.scale_factor, 1.0);
  expect_valid_svd<TypeParam>(a.view(), rep, SvdJob::Thin, "auto-scaled");
}

TEST(SvdVectors, KnownSpectrumAndJacobiCrossValidation) {
  const index_t n = 48;
  rnd::Xoshiro256 rng(77);
  const auto sigma = rnd::make_spectrum(rnd::Spectrum::Logarithmic, n);
  const auto a = rnd::matrix_with_spectrum(sigma, rng);
  const auto rep = svd_report<double>(a.view(), vec_config());
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 1e-12);
  const auto jac = baseline::jacobi_svdvals(a.view());
  EXPECT_LT(ref::rel_sv_error(rep.values, jac), 1e-11);
  expect_valid_svd<double>(a.view(), rep, SvdJob::Thin, "spectrum 48");
}

TEST(SvdVectors, JacobiCrossValidationRectangular) {
  rnd::Xoshiro256 rng(78);
  const auto sigma = rnd::arithmetic_spectrum(16);
  const auto a = rnd::rect_matrix_with_spectrum(40, 16, sigma, rng);
  const auto rep = svd_report<double>(a.view(), vec_config());
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 1e-11);
  expect_valid_svd<double>(a.view(), rep, SvdJob::Thin, "rect spectrum 40x16");
}

TEST(SvdVectors, RankDeficientReconstructs) {
  const index_t n = 24;
  rnd::Xoshiro256 rng(79);
  Matrix<double> a(n, n, 0.0);
  std::vector<double> u(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : u) x = rng.normal();
  for (auto& x : v) x = rng.normal();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(j)];
    }
  }
  const auto rep = svd_report<double>(a.view(), vec_config());
  expect_valid_svd<double>(a.view(), rep, SvdJob::Thin, "rank-1");
  for (std::size_t i = 1; i < rep.values.size(); ++i) {
    EXPECT_LT(rep.values[i], 1e-10 * rep.values[0]);
  }
}

TEST(SvdVectors, ZeroMatrixGivesOrthogonalFactors) {
  Matrix<double> z(16, 16, 0.0);
  const auto rep = svd_report<double>(z.view(), vec_config());
  for (double s : rep.values) EXPECT_EQ(s, 0.0);
  EXPECT_LT(ref::orthogonality_defect(rep.u.view()), 1e-14);
  EXPECT_LT(ref::orthogonality_defect(rep.vt.view().transposed()), 1e-14);
}

TEST(SvdVectors, OneByOne) {
  Matrix<double> a(1, 1);
  a(0, 0) = -2.25;
  const auto out = svd<double>(a.view(), vec_config());
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_NEAR(out.values[0], 2.25, 1e-15);
  // u * sigma * vt must reproduce the NEGATIVE entry.
  EXPECT_NEAR(out.u(0, 0) * out.values[0] * out.vt(0, 0), -2.25, 1e-12);
}

TEST(SvdVectors, VectorAccumulationStageIsTimed) {
  const auto a = testutil::random_matrix(32, 32, 510);
  const auto with = svd_report<double>(a.view(), vec_config());
  EXPECT_GT(with.stage_times.get(ka::Stage::VectorAccumulation), 0.0);
  const auto without = svd_values_report<double>(a.view(), vec_config(SvdJob::ValuesOnly));
  EXPECT_EQ(without.stage_times.get(ka::Stage::VectorAccumulation), 0.0);
  EXPECT_EQ(without.u.rows(), 0);
  EXPECT_EQ(without.vt.rows(), 0);
}

TEST(SvdVectors, Stage23AccumulatorTimeAttributedToVectorStage) {
  // Stage 2 touches no factor: a vector job only logs the chase rotations,
  // the band arithmetic is the same, so d/e are bit-identical with and
  // without the log. The vectors are built after Stage 3 and booked under
  // VectorAccumulation, NOT under the band2bidiag/bidiag2diag stages.
  const index_t n = 96;
  const int bw = 8;
  const auto dense = testutil::random_matrix(n, n, 512);
  const auto make_band = [&] {
    // Keep only the upper band of bandwidth bw (a valid Stage-2 input).
    Matrix<double> banded(n, n, 0.0);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = std::max<index_t>(0, j - bw); i <= j; ++i) {
        banded(i, j) = dense(i, j);
      }
    }
    return band::extract_band<double>(banded.view(), bw);
  };

  auto b1 = make_band();
  std::vector<double> d1;
  std::vector<double> e1;
  band::ChaseLog<double> log;
  band::band_to_bidiag(b1, d1, e1, &log);
  EXPECT_FALSE(log.left.empty());
  EXPECT_FALSE(log.right.empty());

  auto b2 = make_band();
  std::vector<double> d2;
  std::vector<double> e2;
  band::band_to_bidiag(b2, d2, e2);
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_EQ(d1[i], d2[i]);
  for (std::size_t i = 0; i < e1.size(); ++i) EXPECT_EQ(e1[i], e2[i]);

  // End to end: a vector solve books strictly more under VectorAccumulation
  // than a values-only solve (which books none).
  const auto with = svd_report<double>(dense.view(), vec_config());
  const auto total = with.stage_times.total();
  EXPECT_GT(with.stage_times.get(ka::Stage::VectorAccumulation), 0.0);
  EXPECT_LT(with.stage_times.get(ka::Stage::BandToBidiagonal), total);
}

TEST(SvdVectors, DeterministicAcrossThreadCounts) {
  const auto a = testutil::random_matrix(40, 40, 511);
  ka::CpuBackend be1(1);
  ka::CpuBackend be8(8);
  const auto r1 = svd_report<double>(a.view(), vec_config(), be1);
  const auto r8 = svd_report<double>(a.view(), vec_config(), be8);
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    EXPECT_EQ(r1.values[i], r8.values[i]);
  }
  EXPECT_EQ(ref::fro_diff(r1.u.view(), r8.u.view()), 0.0);
  EXPECT_EQ(ref::fro_diff(r1.vt.view(), r8.vt.view()), 0.0);
}

TEST(SvdVectorsBatched, IsolateKeepsHealthyVectorsValid) {
  // The batched acceptance scenario: ragged batch with one poisoned problem
  // under Isolate; every healthy problem gets valid factors, the poisoned
  // one an empty report with NonFinite status. All schedules agree.
  std::vector<Matrix<float>> problems;
  problems.push_back(testutil::convert<float>(testutil::random_matrix(24, 24, 700)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(40, 16, 701)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(16, 16, 702)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(48, 48, 703)));
  problems[2](3, 3) = std::numeric_limits<float>::quiet_NaN();
  const auto views = testutil::views_of(problems);
  ka::CpuBackend backend(4);

  for (const auto schedule : {BatchSchedule::Auto, BatchSchedule::InterProblem,
                              BatchSchedule::IntraProblem, BatchSchedule::Mixed}) {
    BatchConfig cfg;
    cfg.svd = vec_config();
    cfg.schedule = schedule;
    cfg.crossover_n = 32;
    cfg.on_error = ErrorPolicy::Isolate;
    const auto rep = svd_batched_report<float>(views, cfg, backend);
    ASSERT_EQ(rep.reports.size(), problems.size());
    EXPECT_FALSE(rep.all_ok());
    EXPECT_EQ(rep.failed_count(), 1u);
    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (p == 2) {
        EXPECT_EQ(rep.reports[p].status, SvdStatus::NonFinite);
        EXPECT_EQ(rep.reports[p].u.rows(), 0);
        EXPECT_EQ(rep.reports[p].vt.rows(), 0);
        EXPECT_TRUE(rep.reports[p].values.empty());
        continue;
      }
      EXPECT_EQ(rep.reports[p].status, SvdStatus::Ok);
      expect_valid_svd<float>(views[p], rep.reports[p], SvdJob::Thin, "batched");
      // Identical to the single-problem solve, whichever schedule ran.
      const auto single = svd_report<float>(views[p], cfg.svd);
      ASSERT_EQ(single.values.size(), rep.reports[p].values.size());
      for (std::size_t i = 0; i < single.values.size(); ++i) {
        EXPECT_EQ(single.values[i], rep.reports[p].values[i]);
      }
      EXPECT_EQ(ref::fro_diff(single.u.view(), rep.reports[p].u.view()), 0.0);
      EXPECT_EQ(ref::fro_diff(single.vt.view(), rep.reports[p].vt.view()), 0.0);
    }
  }
}

TEST(SvdVectorsBatched, StorageConversionShapes) {
  std::vector<Matrix<Half>> problems;
  problems.push_back(testutil::convert<Half>(testutil::random_matrix(16, 16, 710)));
  problems.push_back(testutil::convert<Half>(testutil::random_matrix(24, 12, 711)));
  const auto views = testutil::views_of(problems);
  BatchConfig cfg;
  cfg.svd = vec_config();
  const auto out = svd_batched<Half>(views, cfg);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].u.rows(), 16);
  EXPECT_EQ(out[0].u.cols(), 16);
  EXPECT_EQ(out[1].u.rows(), 24);
  EXPECT_EQ(out[1].u.cols(), 12);
  EXPECT_EQ(out[1].vt.rows(), 12);
  EXPECT_EQ(out[1].vt.cols(), 12);
  EXPECT_EQ(out[0].values.size(), 16u);
  EXPECT_EQ(out[1].values.size(), 12u);
}
