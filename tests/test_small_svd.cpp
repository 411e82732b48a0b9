/// Tests of the fused tiny-problem path (src/small): dispatch against
/// SvdConfig::small_svd_threshold across every entry point (values, Thin,
/// Full, truncated, batched), value agreement with the tiled pipeline
/// within the suite's accuracy gates, value consistency across jobs,
/// degenerate shapes (1x1, 1xn, mx1, all-zero, threshold boundary) on BOTH
/// sides of the dispatch, nonzero rank-deficient inputs on the fused side,
/// stage attribution under ka::Stage::FusedSmall,
/// and ragged batches straddling the threshold under all four schedules
/// with ErrorPolicy::Isolate intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "small/small_svd.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

/// Fused path live at its default threshold (32); small tiles so the
/// pipeline comparison runs at sensible padding for these sizes.
SvdConfig fused_config(SvdJob job = SvdJob::ValuesOnly) {
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  cfg.job = job;
  return cfg;
}

/// Same kernels, fused path disabled: the tiled-pipeline reference.
SvdConfig pipeline_config(SvdJob job = SvdJob::ValuesOnly) {
  SvdConfig cfg = fused_config(job);
  cfg.small_svd_threshold = 0;
  return cfg;
}

/// The suite-wide acceptance gate: 50 * eps * max(m, n) at the storage
/// precision (vectors accumulate on the compute path, same as the
/// pipeline's gate in test_svd_vectors).
template <class T>
double accept_tol(index_t m, index_t n) {
  return 50.0 * precision_traits<T>::storage_eps *
         static_cast<double>(std::max<index_t>({m, n, 1}));
}

/// || A - U diag(values) V^T ||_F / || A ||_F in double (absolute when
/// ||A|| == 0), from the report's double-held factors.
template <class T>
double reconstruction_residual(ConstMatrixView<T> a, const SvdReport& rep) {
  const Matrix<double> ad = ref::to_double(a);
  Matrix<double> us(rep.u.rows(), rep.vt.rows(), 0.0);
  for (index_t j = 0; j < us.cols(); ++j) {
    if (j >= static_cast<index_t>(rep.values.size())) continue;
    const double s = rep.values[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < us.rows(); ++i) us(i, j) = rep.u(i, j) * s;
  }
  const Matrix<double> prod =
      ref::matmul(ConstMatrixView<double>(us.view()), rep.vt.view());
  const double denom = ref::fro_norm(ad.view());
  const double diff = ref::fro_diff(ad.view(), prod.view());
  return denom == 0.0 ? diff : diff / denom;
}

/// Shape contract + residual + orthogonality + descending order, for any
/// (m, n, job) — the same validity predicate the pipeline suite enforces.
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
  for (const double v : rep.values) EXPECT_GE(v, 0.0) << what;
}

/// Fused values vs pipeline values, gated against sigma_1 (both solvers
/// round through the same storage precision; neither is "the truth", so the
/// gate is the shared acceptance bound).
template <class T>
void expect_values_match(const std::vector<double>& fused,
                         const std::vector<double>& pipe, index_t m, index_t n,
                         const char* tag) {
  ASSERT_EQ(fused.size(), pipe.size()) << tag;
  const double sigma1 = pipe.empty() ? 0.0 : std::max(pipe[0], fused[0]);
  const double tol = accept_tol<T>(m, n) * std::max(sigma1, 1e-30);
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], pipe[i], tol) << tag << " value " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

TEST(SmallSvdDispatch, ThresholdBoundaryOnMinDimension) {
  // min(m, n) <= threshold takes the fused path; threshold + 1 does not;
  // threshold 0 disables it outright. The report's small_path flag and
  // padded_n (min dim, no tile padding) pin which side ran.
  SvdConfig cfg = fused_config();
  ASSERT_EQ(cfg.small_svd_threshold, 32) << "default threshold changed";

  const auto at_threshold =
      testutil::convert<float>(testutil::random_matrix(32, 32, 9001));
  auto rep = svd_values_report<float>(at_threshold.view(), cfg);
  EXPECT_TRUE(rep.small_path);
  EXPECT_EQ(rep.padded_n, 32);

  const auto above =
      testutil::convert<float>(testutil::random_matrix(33, 33, 9002));
  rep = svd_values_report<float>(above.view(), cfg);
  EXPECT_FALSE(rep.small_path);

  // Tall and wide problems dispatch on the SMALL dimension.
  const auto tall = testutil::convert<float>(testutil::random_matrix(200, 16, 9003));
  rep = svd_values_report<float>(tall.view(), cfg);
  EXPECT_TRUE(rep.small_path);
  EXPECT_EQ(rep.padded_n, 16);
  const auto wide = testutil::convert<float>(testutil::random_matrix(16, 200, 9004));
  rep = svd_values_report<float>(wide.view(), cfg);
  EXPECT_TRUE(rep.small_path);

  cfg.small_svd_threshold = 0;
  rep = svd_values_report<float>(at_threshold.view(), cfg);
  EXPECT_FALSE(rep.small_path);

  EXPECT_TRUE(smallsvd::small_svd_applicable(1, 1, 32));
  EXPECT_TRUE(smallsvd::small_svd_applicable(1000, 32, 32));
  EXPECT_FALSE(smallsvd::small_svd_applicable(33, 33, 32));
  EXPECT_FALSE(smallsvd::small_svd_applicable(4, 4, 0));
}

TEST(SmallSvdDispatch, AllTimeUnderFusedSmallStage) {
  // A fused solve books its wall clock under ka::Stage::FusedSmall and
  // touches none of the pipeline stages.
  const auto a = testutil::convert<float>(testutil::random_matrix(24, 24, 9005));
  const auto rep = svd_report<float>(a.view(), fused_config(SvdJob::Thin));
  ASSERT_TRUE(rep.small_path);
  EXPECT_GT(rep.stage_times.get(ka::Stage::FusedSmall), 0.0);
  EXPECT_EQ(rep.stage_times.get(ka::Stage::PanelFactorization), 0.0);
  EXPECT_EQ(rep.stage_times.get(ka::Stage::BidiagonalToDiagonal), 0.0);
  EXPECT_EQ(rep.stage_times.get(ka::Stage::VectorAccumulation), 0.0);
  EXPECT_EQ(rep.stage_times.total(), rep.stage_times.get(ka::Stage::FusedSmall));
}

TEST(SmallSvdDispatch, TruncatedConsultsThreshold) {
  // A tiny truncated solve goes straight to the exact dense path (which IS
  // the fused kernel at this size): dense_fallback true, no sketch rounds,
  // values matching the fused values solve's top-k within the gate (the
  // truncated path needs vectors, so Stage 3 runs the vector iteration
  // while svd_values runs the lean values-only chase).
  const auto a = testutil::convert<float>(testutil::random_matrix(16, 16, 9006));
  TruncConfig trunc;
  trunc.rank = 4;
  trunc.svd = fused_config();
  const auto rep = svd_truncated_report<float>(a.view(), trunc);
  EXPECT_TRUE(rep.dense_fallback);
  EXPECT_EQ(rep.adaptive_rounds, 0);
  ASSERT_EQ(rep.rank, 4);

  const auto dense = svd_values_report<float>(a.view(), fused_config());
  ASSERT_TRUE(dense.small_path);
  const double tol = accept_tol<float>(16, 16) * std::max(1.0, dense.values[0]);
  for (index_t i = 0; i < rep.rank; ++i) {
    EXPECT_NEAR(rep.values[static_cast<std::size_t>(i)],
                dense.values[static_cast<std::size_t>(i)], tol);
  }

  // Threshold 0 keeps the old behavior: a 16x16 rank-4 sketch still fits
  // (lpad < npad requires small tiles), no fused shortcut.
  TruncConfig off = trunc;
  off.svd.small_svd_threshold = 0;
  off.svd.kernels.tilesize = 4;
  off.svd.kernels.colperblock = 4;
  off.oversample = 4;
  const auto rep_off = svd_truncated_report<float>(a.view(), off);
  EXPECT_FALSE(rep_off.dense_fallback);
}

// ---------------------------------------------------------------------------
// Accuracy vs the pipeline, across precisions
// ---------------------------------------------------------------------------

template <class T>
class SmallSvdTyped : public ::testing::Test {};
using StorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(SmallSvdTyped, StorageTypes);

TYPED_TEST(SmallSvdTyped, ValuesMatchPipelineAcrossShapes) {
  const struct {
    index_t m, n;
    const char* tag;
  } shapes[] = {{24, 24, "square 24"}, {32, 12, "tall 32x12"},
                {12, 32, "wide 12x32"}, {200, 16, "very tall 200x16"},
                {7, 5, "odd 7x5"}};
  std::uint64_t seed = 9100;
  for (const auto& s : shapes) {
    const auto a =
        testutil::convert<TypeParam>(testutil::random_matrix(s.m, s.n, seed++));
    const auto fused = svd_values_report<TypeParam>(a.view(), fused_config());
    const auto pipe = svd_values_report<TypeParam>(a.view(), pipeline_config());
    ASSERT_TRUE(fused.small_path) << s.tag;
    ASSERT_FALSE(pipe.small_path) << s.tag;
    expect_values_match<TypeParam>(fused.values, pipe.values, s.m, s.n, s.tag);
  }
}

TYPED_TEST(SmallSvdTyped, VectorsPassTheAcceptanceGate) {
  const struct {
    index_t m, n;
    const char* tag;
  } shapes[] = {{24, 24, "square 24"}, {32, 12, "tall 32x12"},
                {12, 32, "wide 12x32"}, {48, 8, "tall 48x8"},
                {100, 6, "tall 100x6 (Full U past the stack buffer)"}};
  std::uint64_t seed = 9200;
  for (const auto& s : shapes) {
    const auto a =
        testutil::convert<TypeParam>(testutil::random_matrix(s.m, s.n, seed++));
    for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
      const auto rep = svd_report<TypeParam>(a.view(), fused_config(job));
      ASSERT_TRUE(rep.small_path) << s.tag;
      expect_valid_svd<TypeParam>(a.view(), rep, job, s.tag);
    }
  }
}

TYPED_TEST(SmallSvdTyped, ValuesConsistentAcrossJobs) {
  // Every job bidiagonalizes the same way; only the chase differs.
  // Values-only runs the lean values chase, vector jobs run the pipeline's
  // vector iteration. Thin and Full share that iteration's d/e arithmetic
  // (the accumulators never feed back into it), so THEIR values are
  // bit-identical; the values-only chase agrees with them within the
  // suite's accuracy gate.
  const auto a =
      testutil::convert<TypeParam>(testutil::random_matrix(20, 14, 9300));
  const auto values = svd_values_report<TypeParam>(a.view(), fused_config());
  const auto thin = svd_report<TypeParam>(a.view(), fused_config(SvdJob::Thin));
  const auto full = svd_report<TypeParam>(a.view(), fused_config(SvdJob::Full));
  ASSERT_TRUE(values.small_path);
  ASSERT_EQ(values.values.size(), thin.values.size());
  ASSERT_EQ(values.values.size(), full.values.size());
  const double tol = accept_tol<TypeParam>(20, 14) *
                     std::max(1.0, values.values.empty() ? 1.0 : values.values[0]);
  for (std::size_t i = 0; i < values.values.size(); ++i) {
    EXPECT_EQ(thin.values[i], full.values[i]) << "thin vs full value " << i;
    EXPECT_NEAR(values.values[i], thin.values[i], tol) << "values-only vs thin " << i;
  }
}

// ---------------------------------------------------------------------------
// Degenerate shapes, on BOTH sides of the dispatch boundary
// ---------------------------------------------------------------------------

TYPED_TEST(SmallSvdTyped, DegenerateShapesAreValidOnBothPaths) {
  // 1x1, row, column, threshold-straddling sizes: every job, fused AND
  // pipeline, must return a valid factorization, and the two paths' values
  // must agree within the gate.
  const struct {
    index_t m, n;
    const char* tag;
  } shapes[] = {{1, 1, "1x1"},       {1, 7, "row 1x7"},   {9, 1, "col 9x1"},
                {31, 31, "31x31"},   {32, 32, "32x32"},   {33, 33, "33x33"},
                {33, 32, "33x32"},   {2, 2, "2x2"},       {3, 2, "3x2"}};
  std::uint64_t seed = 9400;
  for (const auto& s : shapes) {
    const auto a =
        testutil::convert<TypeParam>(testutil::random_matrix(s.m, s.n, seed++));
    for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
      const auto fused = svd_report<TypeParam>(a.view(), fused_config(job));
      const auto pipe = svd_report<TypeParam>(a.view(), pipeline_config(job));
      EXPECT_EQ(fused.small_path, std::min(s.m, s.n) <= 32) << s.tag;
      EXPECT_FALSE(pipe.small_path) << s.tag;
      expect_valid_svd<TypeParam>(a.view(), fused, job, s.tag);
      expect_valid_svd<TypeParam>(a.view(), pipe, job, s.tag);
      expect_values_match<TypeParam>(fused.values, pipe.values, s.m, s.n, s.tag);
    }
  }
}

TYPED_TEST(SmallSvdTyped, AllZeroMatrixYieldsZeroValuesAndOrthogonalFactors) {
  const struct {
    index_t m, n;
    const char* tag;
  } shapes[] = {{1, 1, "1x1"}, {8, 8, "8x8"}, {16, 4, "16x4"}, {4, 16, "4x16"}};
  for (const auto& s : shapes) {
    const Matrix<TypeParam> a(s.m, s.n, TypeParam(0));
    for (const SvdJob job : {SvdJob::Thin, SvdJob::Full}) {
      const auto rep = svd_report<TypeParam>(a.view(), fused_config(job));
      ASSERT_TRUE(rep.small_path) << s.tag;
      expect_valid_svd<TypeParam>(a.view(), rep, job, s.tag);
      for (const double v : rep.values) EXPECT_EQ(v, 0.0) << s.tag;
    }
  }
}

TYPED_TEST(SmallSvdTyped, RankDeficientInputsKeepOrthonormalFactors) {
  // Nonzero inputs of rank r < min(m, n): the zero values' vectors come out
  // of the same reflectors and rotations as the others, with no separate
  // completion step. Factors must pass the validity gates, the
  // min(m, n) - r trailing values must sit within the gate of 0, and Thin
  // and Full must agree bitwise.
  const struct {
    index_t m, n;
    const char* tag;
  } shapes[] = {{24, 24, "square 24"}, {40, 12, "tall 40x12"}, {12, 40, "wide 12x40"}};
  std::uint64_t seed = 9550;
  for (const auto& s : shapes) {
    const index_t k = std::min(s.m, s.n);
    for (const index_t rank : {index_t{3}, index_t{5}}) {
      std::vector<double> sigma(static_cast<std::size_t>(k), 0.0);
      for (index_t i = 0; i < rank; ++i) {
        sigma[static_cast<std::size_t>(i)] = static_cast<double>(rank - i);
      }
      rnd::Xoshiro256 rng(seed++);
      const auto a =
          rnd::round_to<TypeParam>(rnd::rect_matrix_with_spectrum(s.m, s.n, sigma, rng));
      const std::string tag = std::string(s.tag) + " rank " + std::to_string(rank);
      const auto thin = svd_report<TypeParam>(a.view(), fused_config(SvdJob::Thin));
      const auto full = svd_report<TypeParam>(a.view(), fused_config(SvdJob::Full));
      ASSERT_TRUE(thin.small_path) << tag;
      ASSERT_TRUE(full.small_path) << tag;
      expect_valid_svd<TypeParam>(a.view(), thin, SvdJob::Thin, tag.c_str());
      expect_valid_svd<TypeParam>(a.view(), full, SvdJob::Full, tag.c_str());
      ASSERT_EQ(thin.values.size(), static_cast<std::size_t>(k)) << tag;
      const double tol = accept_tol<TypeParam>(s.m, s.n) * thin.values[0];
      for (index_t i = rank; i < k; ++i) {
        EXPECT_LE(thin.values[static_cast<std::size_t>(i)], tol) << tag << " value " << i;
      }
      EXPECT_EQ(thin.values, full.values) << tag;
    }
  }
}

TEST(SmallSvdDegenerate, SingleValueMatchesClosedForm) {
  // 1xn and mx1: sigma_1 is the Euclidean norm of the only row/column —
  // exact closed form, checked in double.
  const auto row64 = testutil::random_matrix(1, 13, 9500);
  const auto col64 = testutil::random_matrix(17, 1, 9501);
  for (const auto* a64 : {&row64, &col64}) {
    const auto a = testutil::convert<double>(*a64);
    const auto rep = svd_values_report<double>(a.view(), fused_config());
    ASSERT_TRUE(rep.small_path);
    ASSERT_EQ(rep.values.size(), 1u);
    EXPECT_NEAR(rep.values[0], ref::fro_norm(a64->view()),
                1e-14 * ref::fro_norm(a64->view()));
  }
}

// ---------------------------------------------------------------------------
// Batched: ragged batches straddling the threshold
// ---------------------------------------------------------------------------

namespace {

/// A ragged batch that straddles the dispatch boundary: tiny squares, a
/// tall-skinny (fused via min dim), boundary sizes, and large pipeline
/// problems. Problem `poison` (when >= 0) gets a NaN planted.
std::vector<Matrix<float>> straddling_batch(int poison) {
  const struct {
    index_t m, n;
  } shapes[] = {{8, 8},   {16, 16}, {200, 16}, {32, 32},
                {33, 33}, {64, 64}, {1, 5},    {48, 48}};
  std::vector<Matrix<float>> problems;
  std::uint64_t seed = 9600;
  for (const auto& s : shapes) {
    problems.push_back(
        testutil::convert<float>(testutil::random_matrix(s.m, s.n, seed++)));
  }
  if (poison >= 0) {
    problems[static_cast<std::size_t>(poison)](0, 0) =
        std::numeric_limits<float>::quiet_NaN();
  }
  return problems;
}

}  // namespace

TEST(SmallSvdBatched, StraddlingBatchMatchesSequentialUnderEverySchedule) {
  const auto problems = straddling_batch(-1);
  const auto views = testutil::views_of(problems);

  // Sequential reference, one problem at a time (fused path live).
  std::vector<SvdReport> refs;
  for (const auto& v : views) refs.push_back(svd_values_report<float>(v, fused_config()));

  for (const BatchSchedule sched :
       {BatchSchedule::Auto, BatchSchedule::InterProblem, BatchSchedule::IntraProblem,
        BatchSchedule::Mixed}) {
    ka::CpuBackend backend(4);
    BatchConfig cfg;
    cfg.schedule = sched;
    cfg.svd = fused_config();
    const auto rep = svd_values_batched_report<float>(views, cfg, backend);
    ASSERT_EQ(rep.reports.size(), views.size());
    ASSERT_TRUE(rep.all_ok()) << to_string(sched);
    for (std::size_t p = 0; p < views.size(); ++p) {
      const bool tiny = std::min(views[p].rows(), views[p].cols()) <= 32;
      EXPECT_EQ(rep.reports[p].small_path, tiny)
          << to_string(sched) << " problem " << p;
      // Both runs execute the identical serial kernel per problem: values
      // are bit-identical whatever the schedule.
      ASSERT_EQ(rep.reports[p].values, refs[p].values)
          << to_string(sched) << " problem " << p;
    }
  }
}

TEST(SmallSvdBatched, IsolatePoisonedTinyProblemDoesNotSpread) {
  // NaN in a FUSED-side problem under every schedule: that problem reports
  // NonFinite with empty values, all neighbors (fused and pipeline alike)
  // still match the clean sequential reference.
  const int poison = 1;  // 16x16: fused side
  const auto problems = straddling_batch(poison);
  const auto views = testutil::views_of(problems);
  const auto clean = straddling_batch(-1);

  for (const BatchSchedule sched :
       {BatchSchedule::Auto, BatchSchedule::InterProblem, BatchSchedule::IntraProblem,
        BatchSchedule::Mixed}) {
    ka::CpuBackend backend(4);
    BatchConfig cfg;
    cfg.schedule = sched;
    cfg.on_error = ErrorPolicy::Isolate;
    cfg.svd = fused_config();
    const auto rep = svd_values_batched_report<float>(views, cfg, backend);
    ASSERT_EQ(rep.reports.size(), views.size());
    for (std::size_t p = 0; p < views.size(); ++p) {
      if (static_cast<int>(p) == poison) {
        EXPECT_EQ(rep.reports[p].status, SvdStatus::NonFinite) << to_string(sched);
        EXPECT_TRUE(rep.reports[p].values.empty()) << to_string(sched);
        continue;
      }
      const auto ref = svd_values_report<float>(clean[p].view(), fused_config());
      ASSERT_EQ(rep.reports[p].values, ref.values)
          << to_string(sched) << " problem " << p;
    }
  }
}

TEST(SmallSvdBatched, FusedProblemsClassifyByMinDimensionForScheduling) {
  // A 200x16 problem is ONE fused kernel call, not a 200-extent pipeline
  // run: under Mixed with crossover 64 it must land on the inter-problem
  // (small) side, leaving Mixed stealing to the genuinely large problems.
  const auto problems = straddling_batch(-1);
  const auto views = testutil::views_of(problems);
  ka::CpuBackend backend(4);
  BatchConfig cfg;
  cfg.schedule = BatchSchedule::Mixed;
  cfg.crossover_n = 64;
  cfg.svd = fused_config();
  const auto rep = svd_values_batched_report<float>(views, cfg, backend);
  ASSERT_EQ(rep.schedules.size(), views.size());
  for (std::size_t p = 0; p < views.size(); ++p) {
    const index_t mn = std::min(views[p].rows(), views[p].cols());
    const index_t ext =
        mn <= cfg.svd.small_svd_threshold
            ? mn
            : std::max(views[p].rows(), views[p].cols());
    EXPECT_EQ(rep.schedules[p], ext <= cfg.crossover_n
                                    ? BatchSchedule::InterProblem
                                    : BatchSchedule::Mixed)
        << "problem " << p;
  }
  // The tall-skinny specifically: fused, inter-problem.
  EXPECT_TRUE(rep.reports[2].small_path);
  EXPECT_EQ(rep.schedules[2], BatchSchedule::InterProblem);
}
