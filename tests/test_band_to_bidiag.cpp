/// Stage-2 tests: band extraction, bulge chasing to bidiagonal form,
/// singular value preservation, transient-diagonal cleanliness, the
/// subnormal Givens rescale, and the exact zeros the tile padding leaves
/// in d, e and the rotation log.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "band/band_matrix.hpp"
#include "band/band_to_bidiag.hpp"
#include "baseline/jacobi.hpp"
#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "qr/band_reduction.hpp"
#include "qr/panel_qr.hpp"
#include "test_util.hpp"
#include "tile/tile_layout.hpp"

using namespace unisvd;
using testutil::random_matrix;

namespace {

/// Random upper band matrix (dense storage) of bandwidth bw.
Matrix<double> random_band(index_t n, index_t bw, std::uint64_t seed) {
  Matrix<double> a = random_matrix(n, n, seed);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (j < i || j - i > bw) a(i, j) = 0.0;
    }
  }
  return a;
}

}  // namespace

TEST(BandMatrix, ExtractAndDenseRoundTrip) {
  const index_t n = 12;
  const index_t bw = 3;
  Matrix<double> a = random_band(n, bw, 5);
  auto b = band::extract_band<double>(a.view(), bw);
  EXPECT_EQ(b.n(), n);
  EXPECT_EQ(b.bandwidth(), bw);
  const auto dense = b.to_dense();
  EXPECT_LT(ref::fro_diff(dense.view(), a.view()), 1e-15);
}

TEST(BandMatrix, ExtractIgnoresImplicitReflectorStorage) {
  // Extraction must take ONLY diagonals 0..bw even when the source matrix
  // has (reflector) data outside the band.
  const index_t n = 8;
  Matrix<double> a = random_matrix(n, n, 6);  // fully dense
  auto b = band::extract_band<double>(a.view(), 2);
  const auto dense = b.to_dense();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (j >= i && j - i <= 2) {
        EXPECT_EQ(dense(i, j), a(i, j));
      } else {
        EXPECT_EQ(dense(i, j), 0.0);
      }
    }
  }
}

struct ChaseCase {
  index_t n;
  index_t bw;
};

class BandToBidiagSweep : public ::testing::TestWithParam<ChaseCase> {};

TEST_P(BandToBidiagSweep, ProducesBidiagonalWithSameSingularValues) {
  const auto [n, bw] = GetParam();
  Matrix<double> a = random_band(n, bw, 100 + n + bw);
  auto b = band::extract_band<double>(a.view(), bw);
  std::vector<double> d;
  std::vector<double> e;
  const auto stats = band::band_to_bidiag(b, d, e);
  if (bw >= 2 && n > 2) {
    EXPECT_GT(stats.rotations, 0.0);
  }

  // Bidiagonal structure: all other diagonals of the packed storage clean.
  const auto dense = b.to_dense();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (j != i && j != i + 1) {
        EXPECT_NEAR(dense(i, j), 0.0, 1e-12) << i << "," << j;
      }
    }
  }

  // Spectrum preserved: bidiagonal (d, e) as dense vs original band.
  Matrix<double> bd(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    bd(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) bd(i, i + 1) = e[static_cast<std::size_t>(i)];
  }
  const auto sv_bd = baseline::jacobi_svdvals(bd.view());
  const auto sv_a = baseline::jacobi_svdvals(a.view());
  EXPECT_LT(ref::rel_sv_error(sv_bd, sv_a), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bands, BandToBidiagSweep,
                         ::testing::Values(ChaseCase{6, 2}, ChaseCase{16, 2},
                                           ChaseCase{16, 4}, ChaseCase{24, 8},
                                           ChaseCase{33, 5}, ChaseCase{48, 16},
                                           ChaseCase{64, 8}, ChaseCase{7, 6}),
                         [](const auto& info) {
                           // Built with += : chained operator+ trips a GCC 12
                           // -Wrestrict false positive (PR105329) in Release.
                           std::string name = "n";
                           name += std::to_string(info.param.n);
                           name += "_bw";
                           name += std::to_string(info.param.bw);
                           return name;
                         });

TEST(BandToBidiag, AlreadyBidiagonalIsIdentityOp) {
  const index_t n = 10;
  Matrix<double> a = random_band(n, 1, 8);
  auto b = band::extract_band<double>(a.view(), 1);
  std::vector<double> d;
  std::vector<double> e;
  const auto stats = band::band_to_bidiag(b, d, e);
  EXPECT_EQ(stats.rotations, 0.0);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(d[static_cast<std::size_t>(i)], a(i, i));
    if (i + 1 < n) {
      EXPECT_EQ(e[static_cast<std::size_t>(i)], a(i, i + 1));
    }
  }
}

TEST(BandToBidiag, DiagonalMatrixUntouched) {
  const index_t n = 9;
  Matrix<double> a(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) a(i, i) = static_cast<double>(i + 1);
  auto b = band::extract_band<double>(a.view(), 3);
  std::vector<double> d;
  std::vector<double> e;
  band::band_to_bidiag(b, d, e);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)], static_cast<double>(i + 1));
    if (i + 1 < n) {
      EXPECT_DOUBLE_EQ(e[static_cast<std::size_t>(i)], 0.0);
    }
  }
}

TEST(BandToBidiag, FloatPrecision) {
  const index_t n = 20;
  const index_t bw = 4;
  Matrix<double> ad = random_band(n, bw, 14);
  Matrix<float> af = testutil::convert<float>(ad);
  auto b = band::extract_band<float>(ConstMatrixView<float>(af.view()), bw);
  std::vector<float> d;
  std::vector<float> e;
  band::band_to_bidiag(b, d, e);
  Matrix<double> bd(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) {
    bd(i, i) = d[static_cast<std::size_t>(i)];
    if (i + 1 < n) bd(i, i + 1) = e[static_cast<std::size_t>(i)];
  }
  const auto sv_bd = baseline::jacobi_svdvals(bd.view());
  const auto sv_a = baseline::jacobi_svdvals(ad.view());
  EXPECT_LT(ref::rel_sv_error(sv_bd, sv_a), 1e-5);  // float-level
}

TEST(BandMatrix, RejectsBadShapes) {
  EXPECT_THROW(band::BandMatrix<double>(0, 1), Error);
  EXPECT_THROW(band::BandMatrix<double>(4, 0), Error);
  Matrix<double> rect(4, 6, 0.0);
  EXPECT_THROW(band::extract_band<double>(rect.view(), 2), Error);
}

namespace {

/// Max |c^2 + s^2 - 1| over one side's logged rotations.
template <class CT>
double max_unit_defect(const band::RotationLog<CT>& side) {
  double worst = 0.0;
  for (const auto& rot : side) {
    const double c = static_cast<double>(rot.c);
    const double s = static_cast<double>(rot.s);
    worst = std::max(worst, std::abs(c * c + s * s - 1.0));
  }
  return worst;
}

}  // namespace

TEST(BandToBidiag, SubnormalPairsAreRescaledAndCounted) {
  // An FP32 band scaled below FLT_MIN: every (f, g) pair the chase meets is
  // subnormal, and only the power-of-two rescale keeps (c, s) on the unit
  // circle.
  const index_t n = 24;
  const index_t bw = 4;
  Matrix<double> ad = random_band(n, bw, 15);
  Matrix<float> af(n, n, 0.0F);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      af(i, j) = static_cast<float>(ad(i, j) * 1e-40);
    }
  }
  auto b = band::extract_band<float>(ConstMatrixView<float>(af.view()), bw);
  std::vector<float> d;
  std::vector<float> e;
  band::ChaseLog<float> log;
  const auto stats = band::band_to_bidiag(b, d, e, &log);
  EXPECT_GT(stats.subnormal_rescales, 0.0);
  ASSERT_FALSE(log.left.empty());
  ASSERT_FALSE(log.right.empty());
  const double tol = 4.0 * std::numeric_limits<float>::epsilon();
  EXPECT_LE(max_unit_defect(log.left), tol);
  EXPECT_LE(max_unit_defect(log.right), tol);
}

TEST(BandToBidiag, NormalBandCountsNoRescale) {
  const index_t n = 24;
  const index_t bw = 4;
  Matrix<float> af = testutil::convert<float>(random_band(n, bw, 16));
  auto b = band::extract_band<float>(ConstMatrixView<float>(af.view()), bw);
  std::vector<float> d;
  std::vector<float> e;
  const auto stats = band::band_to_bidiag(b, d, e);
  EXPECT_GT(stats.rotations, 0.0);
  EXPECT_EQ(stats.subnormal_rescales, 0.0);
}

namespace {

/// Stages 1 and 2 of the pipeline on an m x n input (m >= n) padded to the
/// tile grid: a tall input is first reduced to its R by the panel QR. The
/// padding's d[n..] and e[n-1..] must come out exactly zero, and every
/// logged rotation must act on real coordinates (r + 1 < n), so Stage 3
/// and the back-transformation can drop the padding.
template <class T>
void expect_padding_exact(index_t m, index_t n, int ts, std::uint64_t seed) {
  using CT = compute_t<T>;
  const std::string what = std::to_string(m) + "x" + std::to_string(n) + " ts" +
                           std::to_string(ts);
  qr::KernelConfig kc;
  kc.tilesize = ts;
  kc.colperblock = std::min(8, ts);
  ka::SerialBackend be;
  const index_t npad = tile::TileLayout::make(n, ts).n;
  ASSERT_GT(npad, n) << what;
  const Matrix<T> a = testutil::convert<T>(testutil::random_matrix(m, n, seed));
  Matrix<T> square(npad, npad, T(0));
  if (m == n) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) square(i, j) = a(i, j);
    }
  } else {
    const auto rows = tile::TileLayout::make(m, ts);
    Matrix<T> panel(rows.n, npad, T(0));
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) panel(i, j) = a(i, j);
    }
    Matrix<T> ptau(qr::panel_tau_rows(rows.ntiles, npad / ts), ts, T(0));
    qr::panel_qr_factor<T>(be, panel.view(), ptau.view(), kc);
    for (index_t j = 0; j < npad; ++j) {
      for (index_t i = 0; i <= j; ++i) square(i, j) = panel(i, j);
    }
  }
  Matrix<T> tau(qr::band_tau_rows(npad / ts), ts, T(0));
  qr::band_reduction<T>(be, square.view(), tau.view(), kc);
  auto b = band::extract_band<T>(square.view(), ts);
  std::vector<CT> d;
  std::vector<CT> e;
  band::ChaseLog<CT> log;
  band::band_to_bidiag(b, d, e, &log);
  ASSERT_EQ(d.size(), static_cast<std::size_t>(npad)) << what;
  for (index_t i = n; i < npad; ++i) {
    EXPECT_EQ(d[static_cast<std::size_t>(i)], CT(0)) << what << " d" << i;
  }
  for (index_t i = n - 1; i + 1 < npad; ++i) {
    EXPECT_EQ(e[static_cast<std::size_t>(i)], CT(0)) << what << " e" << i;
  }
  EXPECT_FALSE(log.left.empty()) << what;
  for (const auto* side : {&log.left, &log.right}) {
    for (const auto& rot : *side) {
      ASSERT_LT(rot.r + 1, n) << what;
    }
  }
}

}  // namespace

template <class T>
class PaddedStage2 : public ::testing::Test {};
using StorageTypes = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(PaddedStage2, StorageTypes);

TYPED_TEST(PaddedStage2, PaddingLeavesExactZerosAndRealRotations) {
  for (const int ts : {8, 32}) {
    expect_padding_exact<TypeParam>(21, 21, ts, 601);
    expect_padding_exact<TypeParam>(45, 45, ts, 602);
    expect_padding_exact<TypeParam>(70, 21, ts, 603);
    expect_padding_exact<TypeParam>(100, 45, ts, 604);
  }
}
