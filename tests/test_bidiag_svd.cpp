/// Stage-3 tests: Golub-Reinsch QR iteration vs the independent Sturm
/// bisection oracle, known spectra, splitting/deflation edge cases, and
/// the exhaustion paths of the iteration's step budget.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bidiag/bidiag_qr.hpp"
#include "bidiag/bisection.hpp"
#include "common/error.hpp"
#include "common/linalg_ref.hpp"
#include "common/matrix.hpp"
#include "rand/rng.hpp"

using namespace unisvd;

namespace {

std::pair<std::vector<double>, std::vector<double>> random_bidiag(index_t n,
                                                                  std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  return {d, e};
}

}  // namespace

class BidiagSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(BidiagSizes, QrIterationMatchesBisection) {
  const index_t n = GetParam();
  auto [d, e] = random_bidiag(n, 500 + n);
  const auto sv_qr = bidiag::bidiag_svd_qr(d, e);
  const auto sv_bi = bidiag::bidiag_svd_bisect(d, e);
  ASSERT_EQ(sv_qr.size(), sv_bi.size());
  double scale = sv_bi.front() + 1e-300;
  for (std::size_t i = 0; i < sv_qr.size(); ++i) {
    EXPECT_NEAR(sv_qr[i], sv_bi[i], 1e-12 * scale) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BidiagSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 64, 127, 256));

TEST(BidiagQr, DiagonalInputReturnsAbsSorted) {
  std::vector<double> d = {3.0, -1.0, 2.0, -5.0};
  std::vector<double> e = {0.0, 0.0, 0.0};
  const auto sv = bidiag::bidiag_svd_qr(d, e);
  ASSERT_EQ(sv.size(), 4u);
  EXPECT_DOUBLE_EQ(sv[0], 5.0);
  EXPECT_DOUBLE_EQ(sv[1], 3.0);
  EXPECT_DOUBLE_EQ(sv[2], 2.0);
  EXPECT_DOUBLE_EQ(sv[3], 1.0);
}

TEST(BidiagQr, KnownTwoByTwo) {
  // B = [[1, 1], [0, 1]]: sigma^2 = (3 +- sqrt(5)) / 2.
  std::vector<double> d = {1.0, 1.0};
  std::vector<double> e = {1.0};
  const auto sv = bidiag::bidiag_svd_qr(d, e);
  EXPECT_NEAR(sv[0], std::sqrt((3.0 + std::sqrt(5.0)) / 2.0), 1e-14);
  EXPECT_NEAR(sv[1], std::sqrt((3.0 - std::sqrt(5.0)) / 2.0), 1e-14);
}

TEST(BidiagQr, ZeroMatrix) {
  std::vector<double> d(6, 0.0);
  std::vector<double> e(5, 0.0);
  const auto sv = bidiag::bidiag_svd_qr(d, e);
  for (double s : sv) EXPECT_EQ(s, 0.0);
}

TEST(BidiagQr, ZeroDiagonalEntryDeflates) {
  // d[1] = 0 triggers the cancellation path; cross-check with bisection.
  std::vector<double> d = {2.0, 0.0, 3.0, 1.0};
  std::vector<double> e = {1.0, 1.5, 0.5};
  const auto sv_qr = bidiag::bidiag_svd_qr(d, e);
  const auto sv_bi = bidiag::bidiag_svd_bisect(d, e);
  for (std::size_t i = 0; i < sv_qr.size(); ++i) {
    EXPECT_NEAR(sv_qr[i], sv_bi[i], 1e-13);
  }
}

TEST(BidiagQr, SplitBlocksHandledIndependently) {
  // e[2] = 0 splits the matrix into two independent blocks.
  std::vector<double> d = {4.0, 1.0, 2.0, 3.0, 0.5, 1.5};
  std::vector<double> e = {0.3, 0.2, 0.0, 0.7, 0.1};
  const auto sv_qr = bidiag::bidiag_svd_qr(d, e);
  const auto sv_bi = bidiag::bidiag_svd_bisect(d, e);
  for (std::size_t i = 0; i < sv_qr.size(); ++i) {
    EXPECT_NEAR(sv_qr[i], sv_bi[i], 1e-13);
  }
}

TEST(BidiagQr, GradedMatrixSmallValuesAccurate) {
  // Strongly graded spectrum: relative accuracy of the small values.
  const index_t n = 24;
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1), 1e-3);
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = std::pow(10.0, -0.25 * static_cast<double>(i));
  }
  const auto sv_qr = bidiag::bidiag_svd_qr(d, e);
  const auto sv_bi = bidiag::bidiag_svd_bisect(d, e);
  for (std::size_t i = 0; i < sv_qr.size(); ++i) {
    EXPECT_NEAR(sv_qr[i], sv_bi[i], 1e-10 * sv_bi[i] + 1e-15);
  }
}

TEST(BidiagQr, FloatPrecisionConverges) {
  auto [dd, ed] = random_bidiag(64, 77);
  std::vector<float> d(dd.begin(), dd.end());
  std::vector<float> e(ed.begin(), ed.end());
  const auto svf = bidiag::bidiag_svd_qr(d, e);
  const auto svd64 = bidiag::bidiag_svd_qr(dd, ed);
  for (std::size_t i = 0; i < svf.size(); ++i) {
    EXPECT_NEAR(svf[i], svd64[i], 2e-5 * svd64[0]);
  }
}

TEST(BidiagQr, InputValidation) {
  std::vector<double> d;
  std::vector<double> e;
  EXPECT_THROW(bidiag::bidiag_svd_qr(d, e), Error);
  d = {1.0, 2.0};
  e = {0.5, 0.5};  // wrong length
  EXPECT_THROW(bidiag::bidiag_svd_qr(d, e), Error);
  EXPECT_THROW(bidiag::bidiag_svd_bisect(d, e), Error);
}

TEST(Bisection, SingleElement) {
  const auto sv = bidiag::bidiag_svd_bisect({-7.0}, {});
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], 7.0, 1e-12);
}

TEST(Bisection, OrderedDescending) {
  auto [d, e] = random_bidiag(50, 3);
  const auto sv = bidiag::bidiag_svd_bisect(d, e);
  for (std::size_t i = 1; i < sv.size(); ++i) {
    EXPECT_GE(sv[i - 1], sv[i] - 1e-12);
  }
  EXPECT_GE(sv.back(), -1e-15);
}

// ---- Step budget (deterministic) ----
//
// The iteration core takes its total inner-step budget as a parameter. At a
// budget of 1 the first QR step on any block of three or more rows exhausts
// it: the values-only iteration must hand the whole bidiagonal to
// bisection and return exactly its values, and the vector iteration, which
// has no fallback, must throw.

namespace {

template <class CT>
void expect_budget_of_one_exhausts(const std::vector<CT>& d, const std::vector<CT>& e) {
  const auto n = static_cast<index_t>(d.size());
  std::vector<CT> rv1(d.size(), CT(0));
  for (std::size_t i = 1; i < d.size(); ++i) rv1[i] = e[i - 1];

  std::vector<CT> w = d;
  std::vector<CT> rv = rv1;
  bidiag::detail::NullRotationSink null_sink;
  const auto stats = bidiag::detail::golub_reinsch_iterate(w, rv, null_sink, 1);
  EXPECT_EQ(stats.sweeps, 0);
  EXPECT_EQ(stats.bisected_rows, n);
  const auto oracle = bidiag::bidiag_svd_bisect(std::vector<double>(d.begin(), d.end()),
                                                std::vector<double>(e.begin(), e.end()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], static_cast<CT>(oracle[i])) << "i=" << i;
  }

  Matrix<CT> ut(n, n, CT(0));
  Matrix<CT> vt(n, n, CT(0));
  for (index_t i = 0; i < n; ++i) ut(i, i) = vt(i, i) = CT(1);
  bidiag::detail::MatrixRotationSink<CT> sink{ut.view(), vt.view()};
  w = d;
  rv = rv1;
  EXPECT_THROW(bidiag::detail::golub_reinsch_iterate(w, rv, sink, 1), Error);
}

}  // namespace

TEST(BidiagStepBudget, Fp64BudgetOfOne) {
  expect_budget_of_one_exhausts<double>({3.0, -1.5, 0.75, 2.25, -0.5, 1.0},
                                        {0.5, 0.25, -1.0, 0.125, 0.375});
}

TEST(BidiagStepBudget, Fp64BudgetOfOneZeroCoupling) {
  // e[3] == 0 splits off the block [4, 7], which exhausts the budget first.
  expect_budget_of_one_exhausts<double>({2.0, 1.0, -3.0, 0.5, 4.0, -0.25, 1.5, 0.875},
                                        {0.5, -0.75, 0.25, 0.0, 1.0, 0.5, -0.125});
}

TEST(BidiagStepBudget, Fp32BudgetOfOne) {
  expect_budget_of_one_exhausts<float>({2.0f, 1.0f, -3.0f, 0.5f, 4.0f, -0.25f},
                                       {0.5f, -0.75f, 0.25f, 1.0f, 0.5f});
}

TEST(BidiagStepBudget, Fp32BudgetOfOneZeroCoupling) {
  expect_budget_of_one_exhausts<float>({2.0f, 1.0f, -3.0f, 0.5f, 4.0f, -0.25f},
                                       {0.5f, -0.75f, 0.0f, 1.0f, 0.5f});
}

TEST(BidiagStepBudget, FullBudgetVectorsMatchValuesOnlyBits) {
  // At the entry points' budget neither iteration exhausts it, and the
  // vector sink leaves the d/e arithmetic untouched.
  auto [d, e] = random_bidiag(40, 91);
  const auto n = static_cast<index_t>(d.size());
  std::vector<double> rv1(d.size(), 0.0);
  for (std::size_t i = 1; i < d.size(); ++i) rv1[i] = e[i - 1];

  std::vector<double> w_plain = d;
  std::vector<double> rv_plain = rv1;
  bidiag::detail::NullRotationSink null_sink;
  const auto stats = bidiag::detail::golub_reinsch_iterate(
      w_plain, rv_plain, null_sink, bidiag::step_budget(n));
  EXPECT_GT(stats.sweeps, 0);
  EXPECT_EQ(stats.bisected_rows, 0);

  Matrix<double> ut(n, n, 0.0);
  Matrix<double> vt(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) ut(i, i) = vt(i, i) = 1.0;
  bidiag::detail::MatrixRotationSink<double> sink{ut.view(), vt.view()};
  std::vector<double> w_vec = d;
  std::vector<double> rv_vec = rv1;
  bidiag::detail::golub_reinsch_iterate(w_vec, rv_vec, sink, bidiag::step_budget(n));
  for (std::size_t i = 0; i < w_vec.size(); ++i) {
    EXPECT_EQ(w_vec[i], w_plain[i]) << "i=" << i;
  }
}
