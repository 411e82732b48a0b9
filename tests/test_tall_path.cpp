/// Tall-path suite (core/svd.cpp): every tall input — and every wide one,
/// on the lazy transpose — factors A = Q R with the replayable panel QR,
/// runs the square pipeline on R, and (vector jobs) composes U = Q * U_R by
/// blocked backward reflector replay:
///
///   * singular values bit-identical across Thin/Full and within 50*eps*n
///     of ValuesOnly on tall, wide and padded shapes in FP16/FP32/FP64;
///   * accuracy gates (reconstruction residual and orthogonality defect
///     <= 50*eps*n) on the composed factors, tall and wide, Thin and Full,
///     padded, with and without auto_scale;
///   * determinism across thread counts;
///   * batched: ragged tall/square/wide batches under all four schedules,
///     with ErrorPolicy::Isolate containment;
///   * memory: 16384 x 256 and 8192 x 256 FP32 Thin solves peak at
///     O(m_pad * n_pad) Matrix bytes (matrix_peak_bytes high-water
///     counter), far below an m_pad^2 accumulator.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "test_util.hpp"
#include "tile/tile_layout.hpp"

using namespace unisvd;

namespace {

SvdConfig vec_config(SvdJob job = SvdJob::Thin, int ts = 8) {
  SvdConfig cfg;
  cfg.kernels.tilesize = ts;
  cfg.kernels.colperblock = std::min(8, ts);
  cfg.job = job;
  // The shapes here have min(m, n) at or below the default fused
  // threshold; disable that path so the suite pins the tall path.
  cfg.small_svd_threshold = 0;
  return cfg;
}

/// || A - U diag(values) V^T ||_F / || A ||_F from the report's factors.
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
  EXPECT_LE(ref::orthogonality_defect(rep.u.view()), accept_tol<T>(m, n)) << what;
  EXPECT_LE(ref::orthogonality_defect(rep.vt.view().transposed()),
            accept_tol<T>(m, n))
      << what;
  for (std::size_t i = 1; i < rep.values.size(); ++i) {
    EXPECT_LE(rep.values[i], rep.values[i - 1]) << what;
  }
}

}  // namespace

template <class T>
class TallPathTyped : public ::testing::Test {};
using StorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(TallPathTyped, StorageTypes);

TYPED_TEST(TallPathTyped, ValuesAgreeAcrossJobsAndShapes) {
  // Every job factors the same panel with the same kernels and reduces the
  // identical re-padded R. Thin and Full then share the Stage-3 engine, so
  // their singular values are THE SAME BITS; the values-only solve runs
  // implicit QR instead of divide-and-conquer and agrees within 50*eps*n.
  const std::pair<index_t, index_t> shapes[] = {
      {40, 24},   // mildly tall
      {96, 24},   // aspect 4
      {70, 18},   // padded on both extents
      {24, 64},   // wide (runs on the lazy transpose)
  };
  for (const auto& [m, n] : shapes) {
    const auto a = testutil::convert<TypeParam>(
        testutil::random_matrix(m, n, 900 + static_cast<std::uint64_t>(m * 3 + n)));
    const auto plain =
        svd_values_report<TypeParam>(a.view(), vec_config(SvdJob::ValuesOnly));
    const auto thin = svd_values_report<TypeParam>(a.view(), vec_config(SvdJob::Thin));
    const auto full = svd_values_report<TypeParam>(a.view(), vec_config(SvdJob::Full));
    ASSERT_EQ(plain.values.size(), thin.values.size());
    ASSERT_EQ(plain.values.size(), full.values.size());
    const double tol = accept_tol<TypeParam>(m, n) * plain.values[0];
    for (std::size_t i = 0; i < plain.values.size(); ++i) {
      EXPECT_EQ(thin.values[i], full.values[i]) << m << "x" << n << " thin vs full " << i;
      EXPECT_NEAR(plain.values[i], thin.values[i], tol)
          << m << "x" << n << " thin vs values-only " << i;
    }
  }
}

TYPED_TEST(TallPathTyped, ComposedFactorsPassAccuracyGates) {
  // Residual + orthogonality of the composed U = Q * U_R within 50*eps*n,
  // tall and wide, Thin and Full — same gates as the square vector suite.
  const auto tall = testutil::convert<TypeParam>(testutil::random_matrix(96, 32, 910));
  for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
    const auto rep = svd_values_report<TypeParam>(tall.view(), vec_config(job));
    expect_valid_svd<TypeParam>(tall.view(), rep, job, "tall 96x32");
  }
  const auto wide = testutil::convert<TypeParam>(testutil::random_matrix(24, 72, 911));
  for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
    const auto rep = svd_values_report<TypeParam>(wide.view(), vec_config(job));
    expect_valid_svd<TypeParam>(wide.view(), rep, job, "wide 24x72");
  }
}

TYPED_TEST(TallPathTyped, PaddedTallShapeStaysValid) {
  // Extents that do not divide the tile grid: padding isolation must hold
  // through panel QR, the R solve, AND the backward replay.
  const auto a = testutil::convert<TypeParam>(testutil::random_matrix(70, 18, 912));
  for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
    const auto rep = svd_values_report<TypeParam>(a.view(), vec_config(job, 16));
    expect_valid_svd<TypeParam>(a.view(), rep, job, "padded 70x18 ts16");
  }
}

TEST(TallPath, AutoScaleComposesScaleInvariantFactors) {
  auto ad = testutil::random_matrix(80, 24, 923);
  for (index_t j = 0; j < ad.cols(); ++j) {
    for (index_t i = 0; i < ad.rows(); ++i) ad(i, j) *= 64.0;
  }
  const auto a = testutil::convert<float>(ad);
  auto cfg = vec_config();
  cfg.auto_scale = true;
  const auto rep = svd_values_report<float>(a.view(), cfg);
  EXPECT_NE(rep.scale_factor, 1.0);
  expect_valid_svd<float>(a.view(), rep, SvdJob::Thin, "auto-scaled 80x24");
}

TEST(TallPath, DeterministicAcrossThreadCounts) {
  const auto a = testutil::convert<float>(testutil::random_matrix(80, 24, 924));
  ka::CpuBackend be1(1);
  ka::CpuBackend be4(4);
  const auto r1 = svd_values_report<float>(a.view(), vec_config(), be1);
  const auto r4 = svd_values_report<float>(a.view(), vec_config(), be4);
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    EXPECT_EQ(r1.values[i], r4.values[i]);
  }
  EXPECT_EQ(ref::fro_diff(r1.u.view(), r4.u.view()), 0.0);
  EXPECT_EQ(ref::fro_diff(r1.vt.view(), r4.vt.view()), 0.0);
}

TEST(TallPathBatched, RaggedBatchUnderEverySchedule) {
  // A ragged batch of tall, square, mildly-tall and wide problems plus one
  // poisoned matrix: all four schedules, Isolate containment, and
  // bit-identity with the solo solves whichever schedule ran.
  std::vector<Matrix<float>> problems;
  problems.push_back(testutil::convert<float>(testutil::random_matrix(96, 24, 930)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(32, 32, 931)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(64, 24, 932)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(40, 32, 933)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(24, 56, 934)));
  problems[3](1, 1) = std::numeric_limits<float>::quiet_NaN();
  const auto views = testutil::views_of(problems);
  ka::CpuBackend backend(4);

  BatchConfig cfg;
  cfg.svd = vec_config();
  cfg.crossover_n = 48;
  cfg.on_error = ErrorPolicy::Isolate;
  for (const auto schedule : {BatchSchedule::Auto, BatchSchedule::InterProblem,
                              BatchSchedule::IntraProblem, BatchSchedule::Mixed}) {
    cfg.schedule = schedule;
    const auto rep = svd_batched_report<float>(views, cfg, backend);
    ASSERT_EQ(rep.reports.size(), problems.size());
    EXPECT_EQ(rep.failed_count(), 1u) << to_string(schedule);
    for (std::size_t p = 0; p < problems.size(); ++p) {
      if (p == 3) {
        EXPECT_EQ(rep.reports[p].status, SvdStatus::NonFinite);
        EXPECT_TRUE(rep.reports[p].values.empty());
        continue;
      }
      EXPECT_EQ(rep.reports[p].status, SvdStatus::Ok);
      expect_valid_svd<float>(views[p], rep.reports[p], SvdJob::Thin, "batched");
      const auto solo = svd_values_report<float>(views[p], cfg.svd);
      ASSERT_EQ(solo.values.size(), rep.reports[p].values.size());
      for (std::size_t i = 0; i < solo.values.size(); ++i) {
        EXPECT_EQ(solo.values[i], rep.reports[p].values[i])
            << to_string(schedule) << " problem " << p;
      }
      EXPECT_EQ(ref::fro_diff(solo.u.view(), rep.reports[p].u.view()), 0.0);
      EXPECT_EQ(ref::fro_diff(solo.vt.view(), rep.reports[p].vt.view()), 0.0);
    }
  }
}

namespace {

/// Peak live Matrix bytes of one default-config FP32 Thin solve of a random
/// m x n matrix, checked against a budget of a constant number of
/// m_pad x n_pad panels (storage panel, tau blocks, composition target,
/// double-held report factors, plus every n_pad-sized buffer).
void expect_panel_sized_peak(index_t m, index_t n, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  Matrix<float> a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<float>(rng.normal());
  }

  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  const index_t ts = cfg.kernels.tilesize;
  const index_t mpad = tile::TileLayout::make(m, ts).n;
  const index_t npad = tile::TileLayout::make(n, ts).n;
  const std::size_t budget = static_cast<std::size_t>(40 * mpad * npad);
  // An m_pad^2 compute-precision accumulator alone would blow the budget.
  ASSERT_LT(budget, static_cast<std::size_t>(mpad * mpad) * sizeof(float));

  matrix_reset_peak();
  const std::size_t before = matrix_peak_bytes();
  const auto rep = svd_values_report<float>(a.view(), cfg);
  const std::size_t peak = matrix_peak_bytes();

  expect_valid_svd<float>(a.view(), rep, SvdJob::Thin, "tall peak");
  EXPECT_GE(peak, before);
  EXPECT_LE(peak, budget) << "peak " << peak / 1e6 << " MB exceeds the "
                          << budget / 1e6 << " MB O(m_pad*n_pad) budget";
}

}  // namespace

TEST(TallPath, PeakMemoryIsPanelSizedAt16384x256) {
  // The m_pad^2 accumulator alone would be ~1074 MB here, against a
  // 168 MB budget.
  expect_panel_sized_peak(16384, 256, 940);
}

TEST(TallPath, PeakMemoryIsPanelSizedAt8192x256) {
  // The m_pad^2 accumulator alone would be ~268 MB here.
  expect_panel_sized_peak(8192, 256, 941);
}

TEST(TallPath, HighWaterCounterTracksLiveMatrices) {
  const std::size_t live0 = matrix_live_bytes();
  matrix_reset_peak();
  EXPECT_EQ(matrix_peak_bytes(), live0);
  {
    Matrix<double> a(64, 64);
    EXPECT_GE(matrix_live_bytes(), live0 + 64 * 64 * sizeof(double));
    EXPECT_GE(matrix_peak_bytes(), live0 + 64 * 64 * sizeof(double));
  }
  EXPECT_EQ(matrix_live_bytes(), live0);       // destruction released it
  EXPECT_GE(matrix_peak_bytes(), live0 + 64 * 64 * sizeof(double));  // peak sticks
  matrix_reset_peak();
  EXPECT_EQ(matrix_peak_bytes(), live0);
}
