/// End-to-end tests of the unified svd_values API: accuracy across
/// precisions, sizes and spectra (the Table 1 protocol at test scale),
/// padding, degenerate inputs, failure injection, determinism, agreement
/// with both baselines, and Stage 3's step budget on graded spectra.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "baseline/jacobi.hpp"
#include "baseline/onestage.hpp"
#include "common/linalg_ref.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "rand/spectrum.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

SvdConfig small_config(int ts = 8) {
  SvdConfig cfg;
  cfg.kernels.tilesize = ts;
  cfg.kernels.colperblock = std::min(8, ts);
  // This suite pins PIPELINE internals (padding, stage attribution) on
  // sub-threshold sizes: keep the fused tiny-problem path out of the way.
  cfg.small_svd_threshold = 0;
  return cfg;
}

std::vector<double> to_doubles(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

}  // namespace

struct PipelineCase {
  index_t n;
  int ts;
  rnd::Spectrum spectrum;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, Fp64RecoversKnownSpectrum) {
  const auto [n, ts, spectrum] = GetParam();
  rnd::Xoshiro256 rng(2000 + n + ts);
  const auto sigma = rnd::make_spectrum(spectrum, n);
  const auto a = rnd::matrix_with_spectrum(sigma, rng);
  const auto rep = svd_values_report<double>(a.view(), small_config(ts));
  ASSERT_EQ(rep.values.size(), static_cast<std::size_t>(n));
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 1e-12);
  // Stage accounting covered all four stages.
  EXPECT_GT(rep.stage_times.get(ka::Stage::PanelFactorization), 0.0);
  EXPECT_GT(rep.stage_times.get(ka::Stage::BidiagonalToDiagonal), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, PipelineSweep,
    ::testing::Values(PipelineCase{16, 8, rnd::Spectrum::Arithmetic},
                      PipelineCase{24, 8, rnd::Spectrum::Logarithmic},
                      PipelineCase{32, 8, rnd::Spectrum::QuarterCircle},
                      PipelineCase{40, 16, rnd::Spectrum::Arithmetic},
                      PipelineCase{64, 16, rnd::Spectrum::Logarithmic},
                      PipelineCase{96, 32, rnd::Spectrum::QuarterCircle},
                      PipelineCase{100, 16, rnd::Spectrum::Arithmetic},  // padding
                      PipelineCase{33, 16, rnd::Spectrum::Logarithmic},  // padding
                      PipelineCase{5, 8, rnd::Spectrum::Arithmetic}),    // n < ts
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_ts" + std::to_string(info.param.ts) +
             "_" + std::string(to_string(info.param.spectrum)).substr(0, 4);
    });

TEST(SvdPipeline, Fp32Accuracy) {
  const index_t n = 64;
  rnd::Xoshiro256 rng(1);
  const auto sigma = rnd::make_spectrum(rnd::Spectrum::Logarithmic, n);
  const auto ad = rnd::matrix_with_spectrum(sigma, rng);
  const auto af = testutil::convert<float>(ad);
  const auto sv = svd_values<float>(af.view(), small_config(16));
  EXPECT_LT(ref::rel_sv_error(to_doubles(sv), sigma), 5e-6);
}

TEST(SvdPipeline, Fp16Accuracy) {
  const index_t n = 64;
  rnd::Xoshiro256 rng(2);
  const auto sigma = rnd::make_spectrum(rnd::Spectrum::Arithmetic, n);
  const auto ad = rnd::matrix_with_spectrum(sigma, rng);
  const auto ah = testutil::convert<Half>(ad);
  const auto rep = svd_values_report<Half>(ah.view(), small_config(16));
  // Half-storage error level (paper Table 1: ~1e-3..1e-2).
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 3e-2);
  EXPECT_GT(ref::rel_sv_error(rep.values, sigma), 1e-7);  // genuinely half
}

TEST(SvdPipeline, MatchesBothBaselines) {
  const index_t n = 48;
  rnd::Xoshiro256 rng(3);
  const auto a = rnd::gaussian_matrix(n, n, rng);
  const auto unified = svd_values_report<double>(a.view(), small_config(8)).values;
  const auto jac = baseline::jacobi_svdvals(a.view());
  const auto one = baseline::onestage_svdvals<double>(a.view());
  EXPECT_LT(ref::rel_sv_error(unified, jac), 1e-11);
  EXPECT_LT(ref::rel_sv_error(unified, one), 1e-11);
}

TEST(SvdPipeline, DeterministicAcrossThreadCounts) {
  const index_t n = 40;
  rnd::Xoshiro256 rng(4);
  const auto a = rnd::gaussian_matrix(n, n, rng);
  ka::CpuBackend be1(1);
  ka::CpuBackend be8(8);
  const auto v1 = svd_values_report<double>(a.view(), small_config(8), be1).values;
  const auto v8 = svd_values_report<double>(a.view(), small_config(8), be8).values;
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_EQ(v1[i], v8[i]);
}

TEST(SvdPipeline, IdentityMatrix) {
  const index_t n = 20;
  Matrix<double> eye(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  const auto sv = svd_values<double>(eye.view(), small_config(8));
  for (double s : sv) EXPECT_NEAR(s, 1.0, 1e-13);
}

TEST(SvdPipeline, ZeroMatrix) {
  Matrix<double> z(16, 16, 0.0);
  const auto sv = svd_values<double>(z.view(), small_config(8));
  for (double s : sv) EXPECT_EQ(s, 0.0);
}

TEST(SvdPipeline, OneByOne) {
  Matrix<double> a(1, 1);
  a(0, 0) = -2.25;
  const auto sv = svd_values<double>(a.view(), small_config(8));
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], 2.25, 1e-15);
}

TEST(SvdPipeline, RankDeficient) {
  // Outer product: rank 1, sigma_1 = |u||v|.
  const index_t n = 24;
  rnd::Xoshiro256 rng(5);
  std::vector<double> u(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  double nu = 0.0;
  double nv = 0.0;
  for (auto& x : u) {
    x = rng.normal();
    nu += x * x;
  }
  for (auto& x : v) {
    x = rng.normal();
    nv += x * x;
  }
  Matrix<double> a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(j)];
    }
  }
  const auto sv = svd_values<double>(a.view(), small_config(8));
  EXPECT_NEAR(sv[0], std::sqrt(nu * nv), 1e-10 * std::sqrt(nu * nv));
  for (std::size_t i = 1; i < sv.size(); ++i) EXPECT_LT(sv[i], 1e-10 * sv[0]);
}

TEST(SvdPipeline, FailureInjection) {
  Matrix<double> nan_mat(8, 8, 1.0);
  nan_mat(3, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(svd_values<double>(nan_mat.view(), small_config(8)), Error);

  Matrix<double> inf_mat(8, 8, 1.0);
  inf_mat(0, 7) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(svd_values<double>(inf_mat.view(), small_config(8)), Error);

  // check_finite=false skips the scan (caller's responsibility).
  SvdConfig loose = small_config(8);
  loose.check_finite = false;
  Matrix<double> ok(8, 8, 1.0);
  EXPECT_NO_THROW(svd_values<double>(ok.view(), loose));

  // Trace backend cannot execute a real factorization.
  ka::TraceBackend trace;
  EXPECT_THROW(svd_values<double>(ok.view(), small_config(8), trace), Error);

  // Invalid kernel configuration.
  SvdConfig bad;
  bad.kernels.tilesize = 3;
  EXPECT_THROW(svd_values<double>(ok.view(), bad), Error);
}

TEST(SvdPipeline, LargerTilesizeThanMatrixPads) {
  const index_t n = 10;
  rnd::Xoshiro256 rng(6);
  const auto sigma = rnd::arithmetic_spectrum(n);
  const auto a = rnd::matrix_with_spectrum(sigma, rng);
  const auto rep = svd_values_report<double>(a.view(), small_config(32));
  EXPECT_EQ(rep.padded_n, 32);
  EXPECT_EQ(rep.values.size(), static_cast<std::size_t>(n));
  EXPECT_LT(ref::rel_sv_error(rep.values, sigma), 1e-12);
}

TEST(SvdPipeline, ValuesReturnedInStoragePrecision) {
  rnd::Xoshiro256 rng(7);
  const auto ad = rnd::matrix_with_spectrum(rnd::arithmetic_spectrum(16), rng);
  const auto ah = testutil::convert<Half>(ad);
  const std::vector<Half> sv = svd_values<Half>(ah.view(), small_config(8));
  ASSERT_EQ(sv.size(), 16u);
  EXPECT_GT(float(sv.front()), 0.9f);
  for (std::size_t i = 1; i < sv.size(); ++i) EXPECT_LE(float(sv[i]), float(sv[i - 1]));
}

// ---- Stage-3 step budget on graded spectra ----
//
// On these inputs some singular value needs more than 60 implicit-QR
// sweeps before it deflates, although the whole solve needs only about 1.2
// sweeps per value. A per-value cap of 60 sweeps sent part or all of each
// bidiagonal to Sturm bisection (each seed is one where it did); the total
// budget of bidiag::step_budget(n) inner steps converges them all. Default
// config, so this is the library's own svdvals path.

namespace {

template <class T>
void expect_graded_spectrum_converges(index_t n, double decades, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  const auto sigma = rnd::logarithmic_spectrum(n, decades);
  const Matrix<T> a = rnd::round_to<T>(rnd::matrix_with_spectrum_fast(sigma, rng));
  const SvdReport rep = svd_values_report<T>(a.view());
  EXPECT_FALSE(rep.small_path);
  EXPECT_EQ(rep.qr_stats.bisected_rows, 0);
  EXPECT_GT(rep.qr_stats.sweeps, 0);
  ASSERT_EQ(rep.values.size(), sigma.size());
  const double tol = 50.0 * precision_traits<T>::storage_eps * static_cast<double>(n);
  double err = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    err = std::max(err, std::abs(rep.values[i] - sigma[i]) / sigma[0]);
  }
  EXPECT_LE(err, tol);
}

}  // namespace

TEST(Stage3StepBudget, Fp32DefaultSpectrumAt1024) {
  // logarithmic_spectrum(n)'s default: 3 decades.
  expect_graded_spectrum_converges<float>(1024, 3.0, 3);
}

TEST(Stage3StepBudget, Fp32FourDecadesAt256) {
  expect_graded_spectrum_converges<float>(256, 4.0, 1);
}

TEST(Stage3StepBudget, Fp64EightDecadesAt256) {
  expect_graded_spectrum_converges<double>(256, 8.0, 5);
}

TEST(Stage3StepBudget, Fp64TwelveDecadesAt256) {
  expect_graded_spectrum_converges<double>(256, 12.0, 2);
}

TEST(Stage3StepBudget, QrStatsReportValuesOnlySolves) {
  // Pipeline and fused ValuesOnly solves report their sweeps; vector jobs,
  // which run D&C, report zeros.
  const auto a = testutil::random_matrix(48, 48, 11);
  SvdConfig values_cfg = small_config();
  const SvdReport pipeline = svd_values_report<double>(a.view(), values_cfg);
  EXPECT_FALSE(pipeline.small_path);
  EXPECT_GT(pipeline.qr_stats.sweeps, 0);
  EXPECT_EQ(pipeline.qr_stats.bisected_rows, 0);

  const auto tiny = testutil::random_matrix(16, 16, 12);
  const SvdReport fused = svd_values_report<double>(tiny.view());
  EXPECT_TRUE(fused.small_path);
  EXPECT_GT(fused.qr_stats.sweeps, 0);
  EXPECT_EQ(fused.qr_stats.bisected_rows, 0);

  SvdConfig thin_cfg = small_config();
  thin_cfg.job = SvdJob::Thin;
  const SvdReport thin = svd_values_report<double>(a.view(), thin_cfg);
  EXPECT_EQ(thin.qr_stats.sweeps, 0);
  EXPECT_EQ(thin.qr_stats.bisected_rows, 0);
}
