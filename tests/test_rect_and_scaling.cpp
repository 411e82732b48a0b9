/// Tests for the extension features: tall panel-QR preprocessing, rectangular
/// svd_values (tall and wide), and automatic pre-scaling — the paper's
/// future-work items "support for non-square matrices" and "default
/// rescaling for matrices with singular values outside the target
/// precision range".

#include <gtest/gtest.h>

#include "baseline/jacobi.hpp"
#include "common/linalg_ref.hpp"
#include "core/svd.hpp"
#include "ka/backend.hpp"
#include "qr/panel_qr.hpp"
#include "rand/matrix_gen.hpp"
#include "rand/spectrum.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

SvdConfig cfg_ts(int ts) {
  SvdConfig cfg;
  cfg.kernels.tilesize = ts;
  cfg.kernels.colperblock = std::min(8, ts);
  // This suite pins PIPELINE behavior on small shapes (e.g. the FP16
  // overflow-without-auto_scale failure mode, which the fused path's
  // FP32-compute kernel does not exhibit): keep the fused path off.
  cfg.small_svd_threshold = 0;
  return cfg;
}

}  // namespace

TEST(TallQr, ReducesToTriangularWithSameSpectrum) {
  const int ts = 8;
  const index_t m = 5 * ts;
  const index_t n = 2 * ts;
  rnd::Xoshiro256 rng(21);
  const auto sigma = rnd::arithmetic_spectrum(n);
  const auto a = rnd::rect_matrix_with_spectrum(m, n, sigma, rng);

  Matrix<double> work = a;
  Matrix<double> tau(qr::panel_tau_rows(m / ts, n / ts), ts, 0.0);
  qr::KernelConfig kc;
  kc.tilesize = ts;
  kc.colperblock = 8;
  ka::CpuBackend be(4);
  qr::panel_qr_factor<double>(be, work.view(), tau.view(), kc);

  // R (top n x n upper triangle) carries exactly the singular values of A.
  Matrix<double> r(n, n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) r(i, j) = work(i, j);
  }
  const auto sv = baseline::jacobi_svdvals(r.view());
  EXPECT_LT(ref::rel_sv_error(sv, sigma), 1e-12);
}

TEST(TallQr, UnfusedMatchesFused) {
  const int ts = 8;
  rnd::Xoshiro256 rng(22);
  const auto a = rnd::gaussian_matrix(4 * ts, 2 * ts, rng);
  Matrix<double> w1 = a;
  Matrix<double> w2 = a;
  Matrix<double> t1(qr::panel_tau_rows(4, 2), ts, 0.0);
  Matrix<double> t2(qr::panel_tau_rows(4, 2), ts, 0.0);
  qr::KernelConfig kc;
  kc.tilesize = ts;
  kc.colperblock = 8;
  ka::SerialBackend be;
  kc.fused = true;
  qr::panel_qr_factor<double>(be, w1.view(), t1.view(), kc);
  kc.fused = false;
  qr::panel_qr_factor<double>(be, w2.view(), t2.view(), kc);
  for (index_t j = 0; j < w1.cols(); ++j) {
    for (index_t i = 0; i < w1.rows(); ++i) ASSERT_EQ(w1(i, j), w2(i, j));
  }
}

TEST(TallQr, RejectsWideInput) {
  Matrix<double> wide(8, 16, 1.0);
  Matrix<double> tau(2, 8, 0.0);
  qr::KernelConfig kc;
  kc.tilesize = 8;
  kc.colperblock = 8;
  ka::SerialBackend be;
  EXPECT_THROW(qr::panel_qr_factor<double>(be, wide.view(), tau.view(), kc), Error);
}

struct RectCase {
  index_t m;
  index_t n;
};

class RectSweep : public ::testing::TestWithParam<RectCase> {};

TEST_P(RectSweep, KnownSpectrumRecovered) {
  const auto [m, n] = GetParam();
  rnd::Xoshiro256 rng(100 + m + n);
  const auto sigma = rnd::logarithmic_spectrum(std::min(m, n), 2.0);
  const auto a = rnd::rect_matrix_with_spectrum(m, n, sigma, rng);
  const auto rep = svd_values_report<double>(a.view(), cfg_ts(8));
  ASSERT_EQ(rep.values.size(), sigma.size());
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RectSweep,
                         ::testing::Values(RectCase{32, 16}, RectCase{16, 32},
                                           RectCase{40, 12}, RectCase{12, 40},
                                           RectCase{64, 9}, RectCase{9, 64},
                                           RectCase{17, 33}, RectCase{48, 48}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "_n" +
                                  std::to_string(info.param.n);
                         });

TEST(RectSvd, WideEqualsTransposedTall) {
  rnd::Xoshiro256 rng(5);
  const auto a = rnd::gaussian_matrix(40, 16, rng);
  Matrix<double> at(16, 40);
  for (index_t j = 0; j < 16; ++j) {
    for (index_t i = 0; i < 40; ++i) at(j, i) = a(i, j);
  }
  const auto sv_tall = svd_values_report<double>(a.view(), cfg_ts(8)).values;
  const auto sv_wide = svd_values_report<double>(at.view(), cfg_ts(8)).values;
  ASSERT_EQ(sv_tall.size(), sv_wide.size());
  for (std::size_t i = 0; i < sv_tall.size(); ++i) {
    EXPECT_EQ(sv_tall[i], sv_wide[i]);  // same lazy-transposed computation
  }
}

TEST(RectSvd, SingleColumnAndRow) {
  // A column vector's only singular value is its norm.
  Matrix<double> col(7, 1);
  double nrm2 = 0.0;
  for (index_t i = 0; i < 7; ++i) {
    col(i, 0) = static_cast<double>(i + 1);
    nrm2 += col(i, 0) * col(i, 0);
  }
  const auto sv = svd_values_report<double>(col.view(), cfg_ts(8)).values;
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], std::sqrt(nrm2), 1e-12);

  const auto sv_row =
      svd_values_report<double>(col.view().transposed(), cfg_ts(8)).values;
  ASSERT_EQ(sv_row.size(), 1u);
  EXPECT_NEAR(sv_row[0], std::sqrt(nrm2), 1e-12);
}

TEST(RectSvd, Fp16TallMatrix) {
  rnd::Xoshiro256 rng(6);
  const auto sigma = rnd::arithmetic_spectrum(16);
  const auto ad = rnd::rect_matrix_with_spectrum(48, 16, sigma, rng);
  const auto ah = testutil::convert<Half>(ad);
  const auto rep = svd_values_report<Half>(ah.view(), cfg_ts(8));
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 3e-2);
}

TEST(AutoScale, LargeMagnitudeFp16WouldOverflowWithoutIt) {
  // Construct a matrix whose ENTRIES fit in FP16 but whose leading singular
  // value exceeds the FP16 maximum (65504): during the reduction the R
  // diagonal reaches sigma_1 and overflows to Inf unless pre-scaled.
  rnd::Xoshiro256 rng(7);
  const auto sigma = rnd::arithmetic_spectrum(32);
  auto ad = rnd::matrix_with_spectrum(sigma, rng);
  double amax = 0.0;
  for (index_t j = 0; j < 32; ++j) {
    for (index_t i = 0; i < 32; ++i) amax = std::max(amax, std::abs(ad(i, j)));
  }
  const double boost = 6.0e4 / amax;  // entries up to 6e4 < 65504
  for (index_t j = 0; j < 32; ++j) {
    for (index_t i = 0; i < 32; ++i) ad(i, j) *= boost;
  }
  ASSERT_GT(boost, 65504.0);  // sigma_1 = boost * 1.0 overflows FP16
  const auto ah = testutil::convert<Half>(ad);
  ASSERT_TRUE(ref::all_finite(ConstMatrixView<Half>(ah.view())));

  SvdConfig scaled = cfg_ts(8);
  scaled.auto_scale = true;
  const auto rep = svd_values_report<Half>(ah.view(), scaled);
  EXPECT_GT(rep.scale_factor, 1.0);
  std::vector<double> expect(sigma);
  for (auto& s : expect) s *= boost;
  const double err_scaled = ref::rel_sv_error(rep.values, expect);
  EXPECT_LT(err_scaled, 3e-2);

  // Without scaling the half pipeline overflows or degrades badly.
  SvdConfig unscaled = cfg_ts(8);
  double err_raw = std::numeric_limits<double>::infinity();
  try {
    const auto rep_raw = svd_values_report<Half>(ah.view(), unscaled);
    bool finite = true;
    for (double v : rep_raw.values) finite &= std::isfinite(v);
    if (finite) err_raw = ref::rel_sv_error(rep_raw.values, expect);
  } catch (const Error&) {
    // Overflow detected mid-pipeline is also an acceptable failure mode.
  }
  EXPECT_TRUE(!std::isfinite(err_raw) || err_raw > 10.0 * err_scaled);
}

TEST(AutoScale, TinyMagnitudesRescaled) {
  rnd::Xoshiro256 rng(8);
  const auto sigma = rnd::arithmetic_spectrum(24);
  auto ad = rnd::matrix_with_spectrum(sigma, rng);
  for (index_t j = 0; j < 24; ++j) {
    for (index_t i = 0; i < 24; ++i) ad(i, j) *= 1e-4;  // near FP16 subnormals
  }
  const auto ah = testutil::convert<Half>(ad);
  SvdConfig scaled = cfg_ts(8);
  scaled.auto_scale = true;
  const auto rep = svd_values_report<Half>(ah.view(), scaled);
  EXPECT_LT(rep.scale_factor, 1.0);
  std::vector<double> expect(sigma);
  for (auto& s : expect) s *= 1e-4;
  EXPECT_LT(ref::rel_sv_error(rep.values, expect), 3e-2);
}

TEST(AutoScale, NoOpForWellScaledInput) {
  rnd::Xoshiro256 rng(9);
  const auto a = rnd::matrix_with_spectrum(rnd::arithmetic_spectrum(16), rng);
  SvdConfig scaled = cfg_ts(8);
  scaled.auto_scale = true;
  const auto rep = svd_values_report<double>(a.view(), scaled);
  EXPECT_EQ(rep.scale_factor, 1.0);  // max |a_ij| ~ 1: no rescale
}

TEST(AutoScale, Fp64ResultsUnchangedByScaling) {
  rnd::Xoshiro256 rng(10);
  auto a = rnd::matrix_with_spectrum(rnd::arithmetic_spectrum(16), rng);
  for (index_t j = 0; j < 16; ++j) {
    for (index_t i = 0; i < 16; ++i) a(i, j) *= 1e8;
  }
  SvdConfig on = cfg_ts(8);
  on.auto_scale = true;
  const auto sv_on = svd_values_report<double>(a.view(), on).values;
  const auto sv_off = svd_values_report<double>(a.view(), cfg_ts(8)).values;
  for (std::size_t i = 0; i < sv_on.size(); ++i) {
    EXPECT_NEAR(sv_on[i], sv_off[i], 1e-9 * sv_off[0]);
  }
}
