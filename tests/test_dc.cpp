/// Divide-and-conquer Stage-3 engine suite (src/dc/):
///
///   * kernel level: D&C singular values vs the implicit-QR kernel on the
///     same bidiagonal within 50*eps*n, vector residual (B ~ U S V^T) and
///     orthogonality gates, deflation-heavy inputs (repeated / clustered /
///     zero values, exactly repeated values after real Stage-1/2
///     reductions), tiny-to-leaf extents, leaf-size sensitivity (through
///     the dc::detail leaf seam);
///   * driver level: vector jobs run D&C and ValuesOnly runs QR, sigma
///     agreement vs the ValuesOnly oracle across FP16/FP32/FP64 x
///     square/tall/wide, full accuracy gates on composed factors including
///     repeated and clustered spectra on the default path, batched
///     dispatch, and the truncated projected solve honoring its SvdConfig;
///   * the merge workspace: a solve peaks at no more than 4.5 n^2 doubles;
///   * the composition GEMM (qr/gemm.hpp in double): bit-identical to a
///     plain jki loop on ragged shapes, on the serial backend and on pools
///     of width 1 to 4, and one launch per merge side covering both
///     children's products;
///   * pool parallelism (the work-stealing recursion) leaves every bit of
///     a six-level solve unchanged at pool widths 2 to 4;
///   * the D&C event counters on SvdReport;
///   * the Stage-2 rotation log: its blocked reverse replay, whole or in
///     chunks, is bit-identical to an eager reversed loop, on one and on
///     several (ragged) 64-row panels in FP64 and FP32, and logging leaves
///     d/e bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/band_to_bidiag.hpp"
#include "band/rot_batch.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "common/givens_rows.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "dc/dc_svd.hpp"
#include "ka/backend.hpp"
#include "ka/thread_pool.hpp"
#include "qr/band_reduction.hpp"
#include "qr/gemm.hpp"
#include "rand/matrix_gen.hpp"
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

/// || B - Ut^T diag(s) Vt ||_F / ||B||_F with transposed factors.
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

/// Run the D&C kernel on (d, e) and check the full gate set against the
/// values-only QR kernel as oracle.
void check_dc_kernel(std::vector<double> d, std::vector<double> e,
                     const char* tag, index_t qr_leaf = 8,
                     dc::DcStats* stats_out = nullptr) {
  const auto n = static_cast<index_t>(d.size());
  dc::DcStats stats;
  const auto res = dc::detail::bidiag_svd_dc<double>(d, e, qr_leaf, nullptr, &stats);
  if (stats_out != nullptr) *stats_out = stats;
  const std::vector<double>& s = res.values;
  const Matrix<double>& ut = res.ut;
  const Matrix<double>& vt = res.vt;
  ASSERT_EQ(ut.rows(), n) << tag;
  ASSERT_EQ(vt.rows(), n) << tag;

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
  // A leaf far below n forces several recursion levels with real merges.
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
  // Exactly repeated values through real Stage-1/2 reductions: the
  // couplings are O(1), so merges pair far-apart poles where one weight is
  // merely tiny. Deflating such a pair on the rotated off-diagonal
  // (|gap * c * s|) rather than the pole gap would report the wrong pole
  // for the rotated triple.
  {
    const index_t n = 96;
    const int ts = 32;
    std::vector<double> sigma(static_cast<std::size_t>(n), 1.0);
    std::fill(sigma.begin() + n / 2, sigma.end(), 0.5);
    rnd::Xoshiro256 rng(5);
    Matrix<double> a = rnd::rect_matrix_with_spectrum(n, n, sigma, rng);
    qr::KernelConfig kc;
    kc.tilesize = ts;
    Matrix<double> tau(n / ts, ts, 0.0);
    ka::SerialBackend serial;
    qr::band_reduction<double>(serial, a.view(), tau.view(), kc);
    auto band = band::extract_band<double>(a.view(), ts);
    std::vector<double> d, e;
    band::band_to_bidiag(band, d, e);
    check_dc_kernel(d, e, "repeated sigma after stages 1-2", 8);
  }
}

TEST(DcKernel, QrTailInsensitivity) {
  // The crossover between recursion and the QR leaf must not move results
  // beyond the accuracy gate (values are NOT expected bit-identical).
  const auto d = random_vec(70, 21);
  const auto e = random_vec(69, 22);
  for (const index_t leaf : {4, 16, 32, 128}) {
    check_dc_kernel(d, e, ("qr_leaf=" + std::to_string(leaf)).c_str(), leaf);
  }
}

TEST(DcKernel, PoolParallelismMatchesSerial) {
  // The pool only changes scheduling, never arithmetic: results must be
  // bit-identical with and without worker threads. n = 400 with leaves of
  // at most 8 recurses six merge levels, so the work-stealing top level
  // hands whole sub-trees, nested GEMM launches, secular roots and vector
  // rows to helper threads.
  const index_t n = 400;
  const index_t leaf = 8;
  const auto d = random_vec(n, 41);
  const auto e = random_vec(n - 1, 42);
  dc::DcStats serial_stats;
  const auto r1 = dc::detail::bidiag_svd_dc<double>(d, e, leaf, nullptr, &serial_stats);
  EXPECT_EQ(serial_stats.merges, 63);

  for (const unsigned width : {2u, 3u, 4u}) {
    ka::CpuBackend be(width);
    dc::DcStats stats;
    const auto r2 = dc::detail::bidiag_svd_dc<double>(d, e, leaf, &be, &stats);
    EXPECT_EQ(stats.merges, serial_stats.merges) << width;
    EXPECT_EQ(stats.deflated, serial_stats.deflated) << width;
    EXPECT_EQ(stats.secular_roots, serial_stats.secular_roots) << width;
    ASSERT_EQ(r1.values.size(), r2.values.size());
    for (std::size_t i = 0; i < r1.values.size(); ++i) {
      EXPECT_EQ(r1.values[i], r2.values[i]) << width << " value " << i;
    }
    EXPECT_EQ(std::memcmp(r1.ut.data(), r2.ut.data(),
                          static_cast<std::size_t>(n * n) * sizeof(double)),
              0)
        << width;
    EXPECT_EQ(std::memcmp(r1.vt.data(), r2.vt.data(),
                          static_cast<std::size_t>(n * n) * sizeof(double)),
              0)
        << width;
  }
}

TEST(DcKernel, MergeWorkspacePeaksAtFourSquares) {
  // The top merge reads its arrow-frame vectors um / vm in place and frees
  // um and the children's left factors before it allocates its right
  // output: it holds the children, um, vm and its left output, about 4
  // n x n double arrays.
  const index_t n = 512;
  const auto d = random_vec(n, 51);
  const auto e = random_vec(n - 1, 52);
  const std::size_t live0 = matrix_live_bytes();
  matrix_reset_peak();
  const auto res = dc::bidiag_svd_dc<double>(d, e);
  const double peak = static_cast<double>(matrix_peak_bytes() - live0);
  const double square = static_cast<double>(n * n) * sizeof(double);
  EXPECT_LE(peak, 4.5 * square) << "peak " << peak / square << " n^2 doubles";
  EXPECT_EQ(res.ut.rows(), n);
}

// ---------------------------------------------------------------------------
// The composition GEMM (src/qr/gemm.hpp in double, as the merges run it)
// ---------------------------------------------------------------------------

namespace {

/// The plain jki loop the kernel must reproduce bit for bit: each output
/// element summed from +0 in ascending inner index, zero weights skipped.
Matrix<double> naive_gemm(const Matrix<double>& a, const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols());
  for (index_t col = 0; col < b.cols(); ++col) {
    double* out = &c(0, col);
    std::fill(out, out + a.rows(), 0.0);
    for (index_t j = 0; j < a.cols(); ++j) {
      const double w = b(j, col);
      if (w == 0.0) continue;
      for (index_t r = 0; r < a.rows(); ++r) out[r] += a(r, j) * w;
    }
  }
  return c;
}

/// A random rows x cols matrix; every `zero_every`-th entry is exactly 0.
Matrix<double> random_mat(index_t rows, index_t cols, std::uint64_t seed,
                          index_t zero_every = 0) {
  rnd::Xoshiro256 rng(seed);
  Matrix<double> m(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      const index_t flat = i + j * rows;
      m(i, j) = zero_every > 0 && flat % zero_every == 0 ? 0.0 : rng.normal();
    }
  }
  return m;
}

using Product = qr::GemmProduct<double, double, double>;
constexpr qr::GemmLaunch kDcGemm{"dc_gemm", ka::Stage::BidiagonalToDiagonal};

bool same_bits(ConstMatrixView<double> x, ConstMatrixView<double> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (std::memcmp(&x.at(i, j), &y.at(i, j), sizeof(double)) != 0) return false;
    }
  }
  return true;
}

}  // namespace

TEST(DcGemm, BitIdenticalToNaiveLoopOnEveryBackend) {
  // Ragged extents around the 128 x 64 cache block and the 4 x 4 tile,
  // inner extents spanning several 256-deep chunks, k = 0, and zero
  // entries in B (the loop skips them, the kernel adds them).
  struct Shape { index_t m, n, k; };
  const Shape shapes[] = {{1, 1, 1},     {3, 5, 1},     {5, 3, 130},
                          {130, 5, 3},   {300, 130, 5}, {5, 300, 300},
                          {130, 300, 130}, {300, 3, 600}, {131, 67, 777},
                          {3, 1, 0},     {130, 130, 0}};
  std::vector<std::unique_ptr<ka::Backend>> backends;
  backends.push_back(std::make_unique<ka::SerialBackend>());
  for (unsigned w = 1; w <= 4; ++w) backends.push_back(std::make_unique<ka::CpuBackend>(w));
  std::uint64_t seed = 900;
  for (const Shape& sh : shapes) {
    const Matrix<double> a = random_mat(sh.m, sh.k, ++seed);
    const Matrix<double> b = random_mat(sh.k, sh.n, ++seed, 3);
    const Matrix<double> want = naive_gemm(a, b);
    for (const auto& be : backends) {
      Matrix<double> c(sh.m, sh.n, std::numeric_limits<double>::quiet_NaN());
      qr::gemm<double>(*be, Product{a.view(), b.view(), c.view()}, kDcGemm);
      EXPECT_TRUE(same_bits(c.view(), want.view()))
          << be->name() << " m=" << sh.m << " n=" << sh.n << " k=" << sh.k;
    }
  }
}

TEST(DcGemm, OneLaunchComposesBothChildrenIntoColumnRanges) {
  // The merge's pattern: two products with different inner extents write
  // disjoint column ranges of one output whose leading dimension exceeds
  // the rows written; the row below them and the column between them stay
  // untouched.
  const index_t m = 150;
  const index_t k1 = 70;
  const index_t k2 = 79;
  const Matrix<double> a = random_mat(m, k1 + 1 + k2, 11);
  const Matrix<double> b1 = random_mat(k1, k1, 12, 5);
  const Matrix<double> b2 = random_mat(k2, k2, 13);
  Matrix<double> c(m + 1, k1 + 1 + k2, -7.0);
  Matrix<double> a1(m, k1);
  Matrix<double> a2(m, k2);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < k1; ++j) a1(i, j) = a(i, j);
    for (index_t j = 0; j < k2; ++j) a2(i, j) = a(i, k1 + 1 + j);
  }
  const Matrix<double> want1 = naive_gemm(a1, b1);
  const Matrix<double> want2 = naive_gemm(a2, b2);

  ka::CpuBackend be(3);
  ka::TraceRecorder trace;
  be.set_trace(&trace);
  Matrix<double> am = a;  // views of a mutable matrix, as the merge takes
  const Product prods[] = {
      {am.view().block(0, 0, m, k1), b1.view(), c.view().block(0, 0, m, k1)},
      {am.view().block(0, k1 + 1, m, k2), b2.view(), c.view().block(0, k1 + 1, m, k2)}};
  qr::gemm<double>(be, std::span<const Product>(prods), kDcGemm);

  EXPECT_TRUE(same_bits(c.view().block(0, 0, m, k1), want1.view()));
  EXPECT_TRUE(same_bits(c.view().block(0, k1 + 1, m, k2), want2.view()));
  for (index_t i = 0; i <= m; ++i) EXPECT_EQ(c(i, k1), -7.0) << i;
  for (index_t j = 0; j < c.cols(); ++j) EXPECT_EQ(c(m, j), -7.0) << j;

  const auto records = trace.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "dc_gemm");
  EXPECT_EQ(records[0].stage, ka::Stage::BidiagonalToDiagonal);
  EXPECT_EQ(records[0].num_groups, 2 * (2 * 2));  // 2 x 2 cache blocks each
  EXPECT_DOUBLE_EQ(records[0].cost.flops,
                   2.0 * m * (static_cast<double>(k1) * k1 + static_cast<double>(k2) * k2));
}

// ---------------------------------------------------------------------------
// Driver-level dispatch and accuracy (core/svd.cpp: the job selects the
// Stage-3 engine)
// ---------------------------------------------------------------------------

namespace {

SvdConfig driver_config(SvdJob job = SvdJob::Thin) {
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  cfg.job = job;
  cfg.small_svd_threshold = 0;  // never shortcut the pipeline under test
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
  // The acceptance gate: D&C vector-job values vs the historic ValuesOnly
  // QR oracle within 50*eps*max(m, n) relative to sigma_max, plus the full
  // residual/orthogonality gates on the composed factors — square, tall
  // and wide.
  using T = TypeParam;
  const struct { index_t m, n; std::uint64_t seed; } shapes[] = {
      {48, 48, 301}, {72, 40, 302}, {40, 72, 303}};
  for (const auto& sh : shapes) {
    const Matrix<T> a =
        testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, sh.seed));
    const auto oracle =
        svd_values_report<T>(a.view(), driver_config(SvdJob::ValuesOnly));
    const auto rep = svd_values_report<T>(a.view(), driver_config());
    ASSERT_EQ(rep.status, SvdStatus::Ok);
    EXPECT_TRUE(rep.stage3_dc);
    EXPECT_FALSE(oracle.stage3_dc);  // ValuesOnly never runs D&C

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

namespace {

/// A default-configuration Thin solve of the square `a`, whose exact
/// spectrum is `sigma` (descending), meets the sigma, residual and
/// orthogonality gates.
template <class T>
void expect_default_thin_gates(const Matrix<T>& a, const std::vector<double>& sigma,
                               const char* tag) {
  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  const auto rep = svd_values_report<T>(a.view(), cfg);
  ASSERT_EQ(rep.status, SvdStatus::Ok) << tag;
  EXPECT_GT(rep.dc_stats.merges, 0) << tag;
  EXPECT_GT(rep.dc_stats.deflated, 0) << tag;
  ASSERT_EQ(rep.values.size(), sigma.size()) << tag;
  const double tol = driver_tol<T>(a.rows(), a.cols());
  double sigma_err = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    sigma_err = std::max(sigma_err, std::abs(rep.values[i] - sigma[i]));
  }
  EXPECT_LE(sigma_err, tol * sigma[0]) << tag;
  EXPECT_LE(report_residual(a.view(), rep), tol) << tag;
  EXPECT_LE(ref::orthogonality_defect(rep.u.view()), tol) << tag;
  EXPECT_LE(ref::orthogonality_defect(rep.vt.view().transposed()), tol) << tag;
}

}  // namespace

TEST(DcDriver, DefaultThinSolveHandlesRepeatedAndClusteredSigma) {
  // Repeated and near-equal singular values on the default path: D&C
  // merges see equal poles beside far-apart pairs with tiny weights.
  const index_t n = 384;
  {
    std::vector<double> sigma(static_cast<std::size_t>(n), 1.0);
    std::fill(sigma.begin() + n / 2, sigma.end(), 0.5);
    rnd::Xoshiro256 rng(2);
    const Matrix<double> a = rnd::rect_matrix_with_spectrum(n, n, sigma, rng);
    expect_default_thin_gates<double>(a, sigma, "FP64 sigma in {1, 0.5}");
  }
  {
    // Four clusters of 96 values, neighbours 1e-8 apart (relative).
    std::vector<double> sigma(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      sigma[static_cast<std::size_t>(i)] =
          (1.0 - 0.25 * static_cast<double>(i / 96)) *
          (1.0 - 1e-8 * static_cast<double>(i % 96));
    }
    rnd::Xoshiro256 rng(7);
    const Matrix<float> a =
        rnd::round_to<float>(rnd::rect_matrix_with_spectrum(n, n, sigma, rng));
    expect_default_thin_gates<float>(a, sigma, "FP32 four near-equal clusters");

    // The event counters belong to the D&C engine: a values-only solve of
    // the same input runs implicit QR and reports none.
    SvdConfig cfg;
    cfg.job = SvdJob::ValuesOnly;
    const auto vals = svd_values_report<float>(a.view(), cfg);
    EXPECT_EQ(vals.dc_stats.merges, 0);
    EXPECT_EQ(vals.dc_stats.tail_solves, 0);
    EXPECT_EQ(vals.dc_stats.deflated, 0);
    EXPECT_EQ(vals.dc_stats.secular_roots, 0);
  }
}

TEST(DcDriver, BatchedDispatchIsPerProblem) {
  // The job selects the engine per problem: every vector problem that takes
  // the pipeline runs D&C, the fused tiny path and ValuesOnly never do.
  SvdConfig cfg = driver_config();
  cfg.small_svd_threshold = 24;
  std::vector<Matrix<float>> problems;
  problems.push_back(testutil::convert<float>(testutil::random_matrix(40, 40, 320)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(64, 64, 321)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(24, 24, 322)));
  problems.push_back(testutil::convert<float>(testutil::random_matrix(72, 40, 323)));
  const auto views = testutil::views_of(problems);

  BatchConfig bc;
  bc.svd = cfg;
  const auto rep = svd_values_batched_report<float>(views, bc);
  ASSERT_EQ(rep.reports.size(), problems.size());
  for (std::size_t p = 0; p < rep.reports.size(); ++p) {
    const SvdReport& r = rep.reports[p];
    EXPECT_EQ(r.status, SvdStatus::Ok) << p;
    EXPECT_EQ(r.small_path, p == 2) << p;
    EXPECT_EQ(r.stage3_dc, !r.small_path) << p;
    EXPECT_LE(report_residual(views[p], r),
              driver_tol<float>(problems[p].rows(), problems[p].cols()))
        << p;
  }

  bc.svd.job = SvdJob::ValuesOnly;
  const auto vals = svd_values_batched_report<float>(views, bc);
  ASSERT_EQ(vals.reports.size(), problems.size());
  for (std::size_t p = 0; p < vals.reports.size(); ++p) {
    EXPECT_EQ(vals.reports[p].status, SvdStatus::Ok) << p;
    EXPECT_FALSE(vals.reports[p].stage3_dc) << p;
  }
}

TEST(DcDriver, TruncatedProjectedSolveHonorsSvdConfig) {
  // The truncated pipeline's projected solve runs under the caller's
  // SvdConfig: small_svd_threshold = 0 must keep its l x n problem off
  // the fused tiny path, while the default threshold takes it.
  const Matrix<float> a =
      testutil::convert<float>(testutil::random_matrix(512, 256, 330));
  TruncConfig tc;
  tc.rank = 8;
  const auto fused = svd_truncated_report<float>(a.view(), tc);
  tc.svd.small_svd_threshold = 0;
  const auto pipeline = svd_truncated_report<float>(a.view(), tc);

  ASSERT_EQ(fused.status, SvdStatus::Ok);
  ASSERT_EQ(pipeline.status, SvdStatus::Ok);
  EXPECT_FALSE(fused.dense_fallback);
  EXPECT_FALSE(pipeline.dense_fallback);
  EXPECT_GT(fused.stage_times.get(ka::Stage::FusedSmall), 0.0);
  EXPECT_EQ(pipeline.stage_times.get(ka::Stage::FusedSmall), 0.0);
  ASSERT_EQ(fused.values.size(), pipeline.values.size());
  const double tol = driver_tol<float>(512, 256) *
                     std::max(fused.values.empty() ? 0.0 : fused.values[0], 1e-30);
  for (std::size_t i = 0; i < fused.values.size(); ++i) {
    EXPECT_NEAR(fused.values[i], pipeline.values[i], tol) << i;
  }
}

// ---------------------------------------------------------------------------
// Stage-2 rotation log: blocked reverse replay == eager reversed loop, bitwise
// ---------------------------------------------------------------------------

namespace {

/// Random dense n x n matrix with entries only in the upper band [0, bw].
template <class T>
Matrix<T> random_banded(index_t n, index_t bw, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  Matrix<T> a(n, n, T(0));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const index_t diag = j - i;
      if (diag >= 0 && diag <= bw) a(i, j) = static_cast<T>(rng.normal());
    }
  }
  return a;
}

template <class T>
bool same_bits(const T* a, const T* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(T)) == 0;
}

/// Chase one random band with and without a log (d/e must match bitwise),
/// then replay each side's log onto a random n x n factor held as row
/// panels through the blocked kernel, whole or in chunks; it must match,
/// bitwise, the eager loop of apply_givens_rows with (c, -s) over the
/// reversed log on the factor's transpose.
template <class T>
void expect_blocked_replay_matches_eager(index_t n, index_t bw,
                                         std::uint64_t seed) {
  const Matrix<T> dense = random_banded<T>(n, bw, seed);
  ka::CpuBackend backend(4);

  auto b_plain = band::extract_band<T>(dense.view(), bw);
  std::vector<T> d_p, e_p;
  const auto stats_p = band::band_to_bidiag(b_plain, d_p, e_p);

  auto b = band::extract_band<T>(dense.view(), bw);
  std::vector<T> d, e;
  band::ChaseLog<T> log;
  const auto stats = band::band_to_bidiag(b, d, e, &log);
  EXPECT_EQ(stats.rotations, stats_p.rotations);
  ASSERT_EQ(d.size(), d_p.size());
  ASSERT_EQ(e.size(), e_p.size());
  EXPECT_TRUE(same_bits(d.data(), d_p.data(), d.size())) << "d";
  EXPECT_TRUE(same_bits(e.data(), e_p.data(), e.size())) << "e";
  EXPECT_EQ(static_cast<double>(log.left.size() + log.right.size()), stats.rotations);

  const Matrix<T> f0 = testutil::convert<T>(testutil::random_matrix(n, n, seed + 7));
  const auto elems = static_cast<std::size_t>(n * n);
  for (const band::RotationLog<T>* side : {&log.left, &log.right}) {
    ASSERT_FALSE(side->empty());
    Matrix<T> eager = f0;
    for (auto it = side->rbegin(); it != side->rend(); ++it) {
      apply_givens_rows(eager.view().transposed(), it->r, it->r + 1, it->c, -it->s);
    }
    for (const index_t chunk : {index_t{1}, index_t{3}, index_t{64},
                                index_t{1} << 20}) {
      const std::string where = "n " + std::to_string(n) + " chunk " +
                                std::to_string(chunk) +
                                (side == &log.left ? " left" : " right");
      // Consecutive chunks of the log, last chunk first, compose to the
      // whole reversed log.
      band::RowPanels<T> f(f0.view());
      index_t passes = 0;
      for (auto hi = static_cast<index_t>(side->size()); hi > 0; hi -= chunk) {
        const band::RotationLog<T> part(side->begin() + std::max<index_t>(0, hi - chunk),
                                        side->begin() + hi);
        passes += band::replay_reverse(backend, part, f);
      }
      const auto size = static_cast<index_t>(side->size());
      EXPECT_EQ(passes, (size + chunk - 1) / chunk) << where;
      Matrix<T> got(n, n);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) got(i, j) = f(i, j);
      }
      EXPECT_TRUE(same_bits(got.data(), eager.data(), elems)) << where;
    }
  }
}

}  // namespace

TEST(Stage2Log, BlockedReverseReplayBitIdenticalToEagerForEveryChunk) {
  // The back-transformation's Q2 anchor: a rotation of coordinates
  // (r, r+1) touches each factor row independently and the blocked kernel
  // replays them per row in reversed order with the same expression, so it
  // is BIT-identical to the eager loop, also when the log is replayed in
  // chunks (1 is one launch per rotation). n = 64 is one 64-row panel; n = 150 is
  // panels of 64, 64 and 22, so a panel-offset or ragged-panel error shows.
  // FP32 is the compute type of both FP16 and FP32 solves.
  expect_blocked_replay_matches_eager<double>(64, 8, 401);
  expect_blocked_replay_matches_eager<double>(150, 8, 402);
  expect_blocked_replay_matches_eager<float>(64, 8, 403);
  expect_blocked_replay_matches_eager<float>(150, 8, 404);
}
