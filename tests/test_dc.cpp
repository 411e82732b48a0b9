/// Divide-and-conquer Stage-3 engine suite (src/dc/):
///
///   * kernel level: D&C singular values vs the implicit-QR kernel on the
///     same bidiagonal within 50*eps*n, vector residual (B ~ U S V^T) and
///     orthogonality gates, deflation-heavy inputs (repeated / clustered /
///     zero values), tiny-to-qr_tail extents, qr_tail sensitivity;
///   * driver level: Stage3Solver dispatch (QR / DivideConquer / Auto with
///     the learnable crossover), sigma agreement vs the ValuesOnly oracle
///     across FP16/FP32/FP64 x square/tall/wide, full accuracy gates on
///     composed factors, bit-identity of the ValuesOnly path when QR is
///     forced, batched + truncated dispatch;
///   * Stage-2 rotation batching: blocked accumulator replay is
///     bit-identical to the eager path for every capacity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/band_to_bidiag.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "core/tuner.hpp"
#include "dc/dc_svd.hpp"
#include "ka/backend.hpp"
#include "ka/thread_pool.hpp"
#include "rand/rng.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

/// Dense n x (n+1)-embedded bidiagonal from d/e (square: last column 0).
Matrix<double> dense_bidiag(const std::vector<double>& d,
                            const std::vector<double>& e) {
  const auto n = static_cast<index_t>(d.size());
  Matrix<double> b(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    b(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) b(i, i + 1) = e[static_cast<std::size_t>(i)];
  }
  return b;
}

/// || B - Ut^T diag(s) Vt ||_F / ||B||_F with transposed accumulators.
double dc_residual(const std::vector<double>& d, const std::vector<double>& e,
                   const std::vector<double>& s, const Matrix<double>& ut,
                   const Matrix<double>& vt) {
  const auto n = static_cast<index_t>(d.size());
  const Matrix<double> b = dense_bidiag(d, e);
  Matrix<double> approx(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (index_t r = 0; r < n; ++r) {
        acc += ut(r, i) * s[static_cast<std::size_t>(r)] * vt(r, j);
      }
      approx(i, j) = acc;
    }
  }
  const double denom = ref::fro_norm(b.view());
  const double diff = ref::fro_diff(b.view(), approx.view());
  return denom == 0.0 ? diff : diff / denom;
}

/// Run the D&C kernel on (d, e) with identity accumulators and check the
/// full gate set against the values-only QR kernel as oracle.
void check_dc_kernel(std::vector<double> d, std::vector<double> e,
                     const char* tag, index_t qr_tail = 8,
                     dc::DcStats* stats_out = nullptr) {
  const auto n = static_cast<index_t>(d.size());
  Matrix<double> ut(n, n, 0.0);
  Matrix<double> vt(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) ut(i, i) = vt(i, i) = 1.0;
  MatrixView<double> utv = ut.view();
  MatrixView<double> vtv = vt.view();

  dc::DcOptions opts;
  opts.qr_tail = qr_tail;
  dc::DcStats stats;
  const auto s = dc::bidiag_svd_dc<double>(d, e, &utv, &vtv, opts, &stats);
  if (stats_out != nullptr) *stats_out = stats;

  const auto oracle = bidiag::bidiag_svd_qr<double>(d, e);
  ASSERT_EQ(s.size(), oracle.size()) << tag;
  double smax = oracle.empty() ? 0.0 : oracle[0];
  const double tol = 50.0 * std::numeric_limits<double>::epsilon() *
                     static_cast<double>(n) * std::max(smax, 1e-300);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s[i], oracle[i], tol) << tag << " value " << i;
    if (i > 0) {
      EXPECT_LE(s[i], s[i - 1]) << tag << " ordering at " << i;
    }
  }
  EXPECT_LE(dc_residual(d, e, s, ut, vt),
            50.0 * std::numeric_limits<double>::epsilon() * n)
      << tag;
  EXPECT_LE(ref::orthogonality_defect(ut.view().transposed()),
            50.0 * std::numeric_limits<double>::epsilon() * n)
      << tag << " ut";
  EXPECT_LE(ref::orthogonality_defect(vt.view().transposed()),
            50.0 * std::numeric_limits<double>::epsilon() * n)
      << tag << " vt";
}

std::vector<double> random_vec(index_t n, std::uint64_t seed, double scale = 1.0) {
  rnd::Xoshiro256 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = scale * rng.normal();
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel-level gates
// ---------------------------------------------------------------------------

TEST(DcKernel, RandomBidiagonalsAcrossExtents) {
  for (const index_t n : {1, 2, 3, 5, 8, 9, 17, 33, 64, 100}) {
    check_dc_kernel(random_vec(n, 100 + static_cast<std::uint64_t>(n)),
                    random_vec(std::max<index_t>(n - 1, 0),
                               200 + static_cast<std::uint64_t>(n)),
                    ("random n=" + std::to_string(n)).c_str());
  }
}

TEST(DcKernel, MergePathIsExercised) {
  // qr_tail far below n forces several recursion levels with real merges.
  dc::DcStats stats;
  check_dc_kernel(random_vec(96, 7), random_vec(95, 8), "merge n=96", 8,
                  &stats);
  EXPECT_GT(stats.merges, 0);
  EXPECT_GT(stats.tail_solves, 1);
  EXPECT_GT(stats.secular_roots, 0);
}

TEST(DcKernel, DeflationHeavyInputs) {
  // Repeated diagonal with tiny couplings: nearly every coordinate should
  // deflate, and the result must still pass all gates.
  {
    std::vector<double> d(64, 3.0);
    std::vector<double> e(63, 1e-14);
    dc::DcStats stats;
    check_dc_kernel(d, e, "repeated sigma", 8, &stats);
    EXPECT_GT(stats.deflated, 0);
  }
  // Clustered values at several magnitudes.
  {
    std::vector<double> d(48), e(47, 1e-13);
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = (i % 3 == 0) ? 1.0 : (i % 3 == 1 ? 1.0 + 1e-12 : 5.0);
    }
    check_dc_kernel(d, e, "clustered sigma");
  }
  // Exact zeros on the diagonal (rank deficiency) and in the coupling
  // (decoupled blocks).
  {
    auto d = random_vec(40, 11);
    auto e = random_vec(39, 12);
    d[5] = d[17] = d[33] = 0.0;
    e[20] = 0.0;
    check_dc_kernel(d, e, "zeros");
  }
  // All-zero matrix: every coordinate deflates, values are exactly zero.
  {
    std::vector<double> d(24, 0.0), e(23, 0.0);
    check_dc_kernel(d, e, "all zero");
  }
}

TEST(DcKernel, QrTailInsensitivity) {
  // The crossover between recursion and the QR tail must not move results
  // beyond the accuracy gate (values are NOT expected bit-identical).
  const auto d = random_vec(70, 21);
  const auto e = random_vec(69, 22);
  for (const index_t tail : {4, 16, 32, 128}) {
    check_dc_kernel(d, e, ("qr_tail=" + std::to_string(tail)).c_str(), tail);
  }
}

TEST(DcKernel, ValuesOnlyModeMatchesVectorMode) {
  const auto d = random_vec(50, 31);
  const auto e = random_vec(49, 32);
  dc::DcOptions opts;
  opts.qr_tail = 8;
  const auto vals = dc::bidiag_svd_dc<double>(d, e, nullptr, nullptr, opts);

  Matrix<double> ut(50, 50, 0.0), vt(50, 50, 0.0);
  for (index_t i = 0; i < 50; ++i) ut(i, i) = vt(i, i) = 1.0;
  MatrixView<double> utv = ut.view(), vtv = vt.view();
  const auto vals2 = dc::bidiag_svd_dc<double>(d, e, &utv, &vtv, opts);
  ASSERT_EQ(vals.size(), vals2.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(vals[i], vals2[i]) << i;  // same recursion, same bits
  }
}

TEST(DcKernel, PoolParallelismMatchesSerial) {
  // The pool only changes scheduling, never arithmetic: results must be
  // bit-identical with and without worker threads.
  const auto d = random_vec(80, 41);
  const auto e = random_vec(79, 42);
  dc::DcOptions serial;
  serial.qr_tail = 8;
  Matrix<double> ut1(80, 80, 0.0), vt1(80, 80, 0.0);
  for (index_t i = 0; i < 80; ++i) ut1(i, i) = vt1(i, i) = 1.0;
  MatrixView<double> ut1v = ut1.view(), vt1v = vt1.view();
  const auto s1 = dc::bidiag_svd_dc<double>(d, e, &ut1v, &vt1v, serial);

  ka::ThreadPool pool(4);
  dc::DcOptions par = serial;
  par.pool = &pool;
  Matrix<double> ut2(80, 80, 0.0), vt2(80, 80, 0.0);
  for (index_t i = 0; i < 80; ++i) ut2(i, i) = vt2(i, i) = 1.0;
  MatrixView<double> ut2v = ut2.view(), vt2v = vt2.view();
  const auto s2 = dc::bidiag_svd_dc<double>(d, e, &ut2v, &vt2v, par);

  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]) << i;
  EXPECT_EQ(ref::fro_diff(ut1.view(), ut2.view()), 0.0);
  EXPECT_EQ(ref::fro_diff(vt1.view(), vt2.view()), 0.0);
}

// ---------------------------------------------------------------------------
// Driver-level dispatch and accuracy (core/svd.cpp Stage-3 selection)
// ---------------------------------------------------------------------------

namespace {

SvdConfig driver_config(Stage3Solver solver, SvdJob job = SvdJob::Thin) {
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  cfg.job = job;
  cfg.small_svd_threshold = 0;  // never shortcut the pipeline under test
  cfg.stage3 = solver;
  return cfg;
}

/// || A - U diag(values) V^T ||_F / || A ||_F from the report's factors.
template <class T>
double report_residual(ConstMatrixView<T> a, const SvdReport& rep) {
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

/// The acceptance bound: 50 * eps * max(m, n) at the storage epsilon.
template <class T>
double driver_tol(index_t m, index_t n) {
  return 50.0 * precision_traits<T>::storage_eps *
         static_cast<double>(std::max(m, n));
}

}  // namespace

template <class T>
class DcDriverTyped : public ::testing::Test {};
using DcStorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(DcDriverTyped, DcStorageTypes);

TYPED_TEST(DcDriverTyped, SigmaAgreesWithValuesOnlyOracleAcrossShapes) {
  // The acceptance gate: forced D&C values vs the historic ValuesOnly QR
  // oracle within 50*eps*max(m, n) relative to sigma_max, plus the full
  // residual/orthogonality gates on the composed factors — square, tall
  // and wide.
  using T = TypeParam;
  const struct { index_t m, n; std::uint64_t seed; } shapes[] = {
      {48, 48, 301}, {72, 40, 302}, {40, 72, 303}};
  for (const auto& sh : shapes) {
    const Matrix<T> a =
        testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, sh.seed));
    const auto oracle = svd_values_report<T>(
        a.view(), driver_config(Stage3Solver::QR, SvdJob::ValuesOnly));
    const auto rep =
        svd_values_report<T>(a.view(), driver_config(Stage3Solver::DivideConquer));
    ASSERT_EQ(rep.status, SvdStatus::Ok);
    EXPECT_TRUE(rep.stage3_dc);
    EXPECT_FALSE(oracle.stage3_dc);  // ValuesOnly never ran D&C here

    const double tol =
        driver_tol<T>(sh.m, sh.n) * std::max(oracle.values.empty() ? 0.0 : oracle.values[0], 1e-30);
    ASSERT_EQ(rep.values.size(), oracle.values.size());
    for (std::size_t i = 0; i < rep.values.size(); ++i) {
      EXPECT_NEAR(rep.values[i], oracle.values[i], tol)
          << sh.m << "x" << sh.n << " value " << i;
    }
    EXPECT_LE(report_residual(a.view(), rep), driver_tol<T>(sh.m, sh.n))
        << sh.m << "x" << sh.n;
    EXPECT_LE(ref::orthogonality_defect(rep.u.view()), driver_tol<T>(sh.m, sh.n));
    EXPECT_LE(ref::orthogonality_defect(rep.vt.view().transposed()),
              driver_tol<T>(sh.m, sh.n));
  }
}

TEST(DcDriver, AutoCrossoverGatesDispatch) {
  const Matrix<float> a =
      testutil::convert<float>(testutil::random_matrix(64, 64, 310));

  // Auto with the crossover below the padded extent: vector jobs use D&C.
  SvdConfig low = driver_config(Stage3Solver::Auto);
  low.dc_crossover = 1;
  EXPECT_TRUE(svd_values_report<float>(a.view(), low).stage3_dc);

  // Auto with the crossover above: vector jobs stay on QR.
  SvdConfig high = driver_config(Stage3Solver::Auto);
  high.dc_crossover = 1'000'000;
  EXPECT_FALSE(svd_values_report<float>(a.view(), high).stage3_dc);

  // Auto + ValuesOnly NEVER dispatches D&C, whatever the crossover: the
  // historic values-only bit-identity is preserved.
  SvdConfig vals = driver_config(Stage3Solver::Auto, SvdJob::ValuesOnly);
  vals.dc_crossover = 1;
  EXPECT_FALSE(svd_values_report<float>(a.view(), vals).stage3_dc);

  // Forced engines override the crossover in both directions.
  EXPECT_FALSE(
      svd_values_report<float>(a.view(), driver_config(Stage3Solver::QR))
          .stage3_dc);
  SvdConfig forced_dc = driver_config(Stage3Solver::DivideConquer,
                                      SvdJob::ValuesOnly);
  EXPECT_TRUE(svd_values_report<float>(a.view(), forced_dc).stage3_dc);
}

TEST(DcDriver, ValuesOnlyBitIdenticalWhenQrForced) {
  // Forcing Stage3Solver::QR (or leaving Auto on a values-only job) keeps
  // the historic path: values agree BIT-FOR-BIT across jobs and solvers.
  const Matrix<float> a =
      testutil::convert<float>(testutil::random_matrix(56, 56, 311));
  const auto qr_vals = svd_values_report<float>(
      a.view(), driver_config(Stage3Solver::QR, SvdJob::ValuesOnly));
  const auto auto_vals = svd_values_report<float>(
      a.view(), driver_config(Stage3Solver::Auto, SvdJob::ValuesOnly));
  const auto qr_thin =
      svd_values_report<float>(a.view(), driver_config(Stage3Solver::QR));
  ASSERT_EQ(qr_vals.values.size(), auto_vals.values.size());
  ASSERT_EQ(qr_vals.values.size(), qr_thin.values.size());
  for (std::size_t i = 0; i < qr_vals.values.size(); ++i) {
    EXPECT_EQ(qr_vals.values[i], auto_vals.values[i]) << i;
    EXPECT_EQ(qr_vals.values[i], qr_thin.values[i]) << i;
  }
}

TEST(DcDriver, BatchedDispatchIsPerProblem) {
  // An Auto batch straddling the crossover dispatches per padded extent.
  SvdConfig cfg = driver_config(Stage3Solver::Auto);
  cfg.dc_crossover = 64;
  std::vector<Matrix<float>> problems;
  problems.push_back(testutil::convert<float>(testutil::random_matrix(40, 40, 320)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(64, 64, 321)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(24, 24, 322)));
  const auto views = testutil::views_of(problems);
  const bool expect_dc[] = {false, true, false};

  BatchConfig bc;
  bc.svd = cfg;
  const auto rep = svd_batched_report<float>(views, bc);
  ASSERT_EQ(rep.reports.size(), problems.size());
  for (std::size_t p = 0; p < rep.reports.size(); ++p) {
    EXPECT_EQ(rep.reports[p].status, SvdStatus::Ok) << p;
    EXPECT_EQ(rep.reports[p].stage3_dc, expect_dc[p]) << p;
    EXPECT_LE(report_residual(views[p], rep.reports[p]),
              driver_tol<float>(problems[p].rows(), problems[p].cols()))
        << p;
  }
}

TEST(DcDriver, TruncatedPathSolvesUnderBothEngines) {
  // The truncated pipeline's projected solve dispatches through the same
  // SvdConfig: same sketch seed, different Stage-3 engine, values within
  // the engine-agreement gate.
  const Matrix<float> a =
      testutil::convert<float>(testutil::random_matrix(96, 64, 330));
  TruncConfig tc;
  tc.rank = 8;
  tc.svd = driver_config(Stage3Solver::QR);
  const auto qr_rep = svd_truncated_report<float>(a.view(), tc);
  tc.svd = driver_config(Stage3Solver::DivideConquer);
  const auto dc_rep = svd_truncated_report<float>(a.view(), tc);

  ASSERT_EQ(qr_rep.status, SvdStatus::Ok);
  ASSERT_EQ(dc_rep.status, SvdStatus::Ok);
  ASSERT_EQ(qr_rep.values.size(), dc_rep.values.size());
  const double tol = driver_tol<float>(96, 64) *
                     std::max(qr_rep.values.empty() ? 0.0 : qr_rep.values[0], 1e-30);
  for (std::size_t i = 0; i < qr_rep.values.size(); ++i) {
    EXPECT_NEAR(qr_rep.values[i], dc_rep.values[i], tol) << i;
  }
}

TEST(DcDriver, TunerLearnsAndPersistsCrossover) {
  // tune_stage3_crossover measures both engines, learn_ deposits the
  // suffix-win crossover, the text format round-trips it, and
  // tuned_batch_config plumbs it back into SvdConfig::dc_crossover.
  ka::CpuBackend backend(2);
  SvdConfig probe_cfg;
  probe_cfg.kernels.tilesize = 8;
  probe_cfg.kernels.colperblock = 8;
  const auto result =
      core::tune_stage3_crossover<float>(backend, {32, 48}, 1, probe_cfg);
  ASSERT_EQ(result.samples.size(), 2u);
  for (const auto& s : result.samples) {
    EXPECT_GT(s.qr_seconds, 0.0);
    EXPECT_GT(s.dc_seconds, 0.0);
  }
  EXPECT_TRUE(result.crossover == 32 || result.crossover == 48 ||
              result.crossover == core::kStage3CrossoverNever);

  core::TuningTable table;
  const index_t learned = core::learn_stage3_crossover<float>(
      table, backend, {32, 48}, 1, probe_cfg);
  ASSERT_TRUE(table.get<core::Knob::Stage3Crossover>("cpu", Precision::FP32).has_value());
  EXPECT_EQ(*table.get<core::Knob::Stage3Crossover>("cpu", Precision::FP32), learned);

  // Text round-trip preserves the entry.
  std::ostringstream os;
  table.write(os);
  std::istringstream is(os.str());
  std::size_t malformed = 0;
  const auto loaded = core::TuningTable::read(is, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_TRUE(
      loaded.get<core::Knob::Stage3Crossover>("cpu", Precision::FP32).has_value());
  EXPECT_EQ(*loaded.get<core::Knob::Stage3Crossover>("cpu", Precision::FP32), learned);

  // Config plumbing: exact precision, neighbor fallback, unknown backend.
  const BatchConfig tuned =
      core::tuned_batch_config(table, backend, Precision::FP32);
  EXPECT_EQ(tuned.svd.dc_crossover, learned);
  EXPECT_EQ(core::tuned_batch_config(table, backend, Precision::FP16)
                .svd.dc_crossover,
            learned);
  ka::SerialBackend serial;
  EXPECT_EQ(core::tuned_batch_config(table, serial, Precision::FP32)
                .svd.dc_crossover,
            SvdConfig{}.dc_crossover);
}

// ---------------------------------------------------------------------------
// Stage-2 rotation batching: blocked replay == eager mirror, bitwise
// ---------------------------------------------------------------------------

namespace {

/// Random dense n x n matrix with entries only in the upper band [0, bw].
Matrix<double> random_banded(index_t n, index_t bw, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  Matrix<double> a(n, n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const index_t diag = j - i;
      if (diag >= 0 && diag <= bw) a(i, j) = rng.normal();
    }
  }
  return a;
}

}  // namespace

TEST(Stage2Batch, BlockedReplayBitIdenticalToEagerForEveryCapacity) {
  // The tentpole's correctness anchor: rotations touch each accumulator
  // column independently and the batch replays them per column in original
  // order with the same narrowed expression, so the cache-blocked replay
  // is BIT-identical to the historic eager mirror — whatever the capacity
  // (including capacity 1, which flushes every rotation).
  const index_t n = 64;
  const index_t bw = 8;
  const Matrix<double> dense = random_banded(n, bw, 401);
  ka::CpuBackend backend(4);

  // Eager baseline: the historic signature (no backend, no batching).
  auto b_eager = band::extract_band<double>(dense.view(), bw);
  Matrix<double> ut_e(n, n, 0.0), vt_e(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) ut_e(i, i) = vt_e(i, i) = 1.0;
  MatrixView<double> ut_ev = ut_e.view(), vt_ev = vt_e.view();
  std::vector<double> d_e, e_e;
  const auto stats_e = band::band_to_bidiag(b_eager, d_e, e_e, &ut_ev, &vt_ev);
  EXPECT_EQ(stats_e.batch_flushes, 0.0);

  for (const index_t capacity : {index_t{1}, index_t{3}, index_t{64},
                                 index_t{1} << 20}) {
    auto b = band::extract_band<double>(dense.view(), bw);
    Matrix<double> ut(n, n, 0.0), vt(n, n, 0.0);
    for (index_t i = 0; i < n; ++i) ut(i, i) = vt(i, i) = 1.0;
    MatrixView<double> utv = ut.view(), vtv = vt.view();
    std::vector<double> d, e;
    band::Stage2Options<double> opts;
    opts.ut = &utv;
    opts.vt = &vtv;
    opts.backend = &backend;
    opts.rot_batch = capacity;
    const auto stats = band::band_to_bidiag(b, d, e, opts);
    EXPECT_GT(stats.batch_flushes, 0.0) << "capacity " << capacity;

    ASSERT_EQ(d.size(), d_e.size()) << "capacity " << capacity;
    ASSERT_EQ(e.size(), e_e.size()) << "capacity " << capacity;
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(d[i], d_e[i]) << "capacity " << capacity << " d " << i;
    }
    for (std::size_t i = 0; i < e.size(); ++i) {
      EXPECT_EQ(e[i], e_e[i]) << "capacity " << capacity << " e " << i;
    }
    EXPECT_EQ(ref::fro_diff(ut.view(), ut_e.view()), 0.0)
        << "capacity " << capacity;
    EXPECT_EQ(ref::fro_diff(vt.view(), vt_e.view()), 0.0)
        << "capacity " << capacity;
  }
}

TEST(Stage2Batch, DriverEndToEndMatchesUnbatchedBitwise) {
  // Through the full driver: stage2_batch = 0 (eager) and the default
  // batched path produce identical factor bits — the blocked replay is
  // invisible to results, visible only to the cache.
  const Matrix<float> a =
      testutil::convert<float>(testutil::random_matrix(48, 48, 402));
  SvdConfig eager = driver_config(Stage3Solver::QR);
  eager.stage2_batch = 0;
  SvdConfig batched = driver_config(Stage3Solver::QR);
  batched.stage2_batch = 4096;
  const auto r1 = svd_values_report<float>(a.view(), eager);
  const auto r2 = svd_values_report<float>(a.view(), batched);
  ASSERT_EQ(r1.values.size(), r2.values.size());
  for (std::size_t i = 0; i < r1.values.size(); ++i) {
    EXPECT_EQ(r1.values[i], r2.values[i]) << i;
  }
  EXPECT_EQ(ref::fro_diff(r1.u.view(), r2.u.view()), 0.0);
  EXPECT_EQ(ref::fro_diff(r1.vt.view(), r2.vt.view()), 0.0);
  EXPECT_EQ(r2.chase_stats.batch_flushes > 0.0, true);
  EXPECT_EQ(r1.chase_stats.batch_flushes, 0.0);
}
