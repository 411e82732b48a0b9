/// Tests for the matrix container, views, blocks and the lazy transpose
/// (the mechanism behind the paper's LQ-sweeps-through-QR-kernels trick).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "common/matrix.hpp"
#include "test_util.hpp"

using namespace unisvd;

TEST(Matrix, ColumnMajorLayout) {
  Matrix<double> a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[1], 2);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[3], 4);
  EXPECT_EQ(a.ld(), 3);
}

TEST(Matrix, FillConstructor) {
  Matrix<float> a(4, 4, 7.0f);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(a(i, j), 7.0f);
  }
}

TEST(MatrixView, LazyTransposeSwapsIndices) {
  Matrix<double> a(2, 3);
  int v = 0;
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 2; ++i) a(i, j) = ++v;
  }
  auto at = a.transposed();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(at.at(j, i), a(i, j));
  }
}

TEST(MatrixView, DoubleTransposeIsIdentity) {
  Matrix<double> a = testutil::random_matrix(5, 5, 1);
  auto att = a.view().transposed().transposed();
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 5; ++i) EXPECT_EQ(att.at(i, j), a(i, j));
  }
}

TEST(MatrixView, TransposeIsZeroCopy) {
  Matrix<double> a(4, 4, 0.0);
  auto at = a.transposed();
  at.at(1, 2) = 42.0;  // writes through to a(2, 1)
  EXPECT_EQ(a(2, 1), 42.0);
  EXPECT_EQ(at.data(), a.data());
}

TEST(MatrixView, BlockAnchorsCorrectly) {
  Matrix<double> a(6, 6);
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 6; ++i) a(i, j) = static_cast<double>(10 * i + j);
  }
  auto b = a.view().block(2, 3, 2, 2);
  EXPECT_EQ(b.at(0, 0), 23.0);
  EXPECT_EQ(b.at(1, 1), 34.0);
}

TEST(MatrixView, BlockOfTransposedView) {
  Matrix<double> a(6, 6);
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 6; ++i) a(i, j) = static_cast<double>(10 * i + j);
  }
  auto bt = a.transposed().block(2, 3, 2, 2);
  // Logical (i, j) of A^T block at (2,3) is A(3 + j, 2 + i).
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 2; ++j) EXPECT_EQ(bt.at(i, j), a(3 + j, 2 + i));
  }
}

TEST(MatrixView, TransposedBlockWritesThrough) {
  Matrix<double> a(4, 4, 0.0);
  auto bt = a.transposed().block(1, 2, 2, 2);
  bt.at(0, 1) = 5.0;  // logical (1+0, 2+1) of A^T = A(3, 1)
  EXPECT_EQ(a(3, 1), 5.0);
}

TEST(Matrix, NegativeDimensionsThrow) {
  EXPECT_THROW(Matrix<double>(-1, 3), Error);
}

TEST(LinalgRef, MatmulAndNorms) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  auto c = ref::matmul<double>(a.view(), a.view());
  EXPECT_DOUBLE_EQ(c(0, 0), 7);
  EXPECT_DOUBLE_EQ(c(0, 1), 10);
  EXPECT_DOUBLE_EQ(c(1, 0), 15);
  EXPECT_DOUBLE_EQ(c(1, 1), 22);
  EXPECT_NEAR(ref::fro_norm<double>(a.view()), std::sqrt(30.0), 1e-14);
}

TEST(LinalgRef, MatmulRespectsLazyTranspose) {
  Matrix<double> a = testutil::random_matrix(4, 3, 2);
  Matrix<double> b = testutil::random_matrix(4, 5, 3);
  auto c = ref::matmul<double>(a.view().transposed(), b.view());  // A^T B
  Matrix<double> expect(3, 5, 0.0);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      for (index_t k = 0; k < 4; ++k) expect(i, j) += a(k, i) * b(k, j);
    }
  }
  EXPECT_LT(ref::fro_diff(c.view(), expect.view()), 1e-12);
}

TEST(LinalgRef, AllFiniteDetectsNan) {
  Matrix<double> a(3, 3, 1.0);
  EXPECT_TRUE(ref::all_finite<double>(a.view()));
  a(1, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ref::all_finite<double>(a.view()));
  a(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ref::all_finite<double>(a.view()));
}

TEST(LinalgRef, HalfViewsWiden) {
  Matrix<Half> h(2, 2);
  h(0, 0) = Half(1.5f);
  h(1, 1) = Half(-2.0f);
  auto d = ref::to_double(h.view());
  EXPECT_DOUBLE_EQ(d(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(d(1, 1), -2.0);
}

namespace {

/// The plain triple loop orthogonality_defect must reproduce bit for bit.
template <class T>
double naive_orthogonality_defect(ConstMatrixView<T> q) {
  double s = 0.0;
  for (index_t j = 0; j < q.cols(); ++j) {
    for (index_t i = 0; i <= j; ++i) {
      double dot = 0.0;
      for (index_t k = 0; k < q.rows(); ++k) {
        dot += static_cast<double>(q.at(k, i)) * static_cast<double>(q.at(k, j));
      }
      s += (i == j) ? (dot - 1.0) * (dot - 1.0) : 2.0 * dot * dot;
    }
  }
  return std::sqrt(s);
}

template <class T>
void expect_same_defect(ConstMatrixView<T> q, const char* tag) {
  const double want = naive_orthogonality_defect(q);
  const double got = ref::orthogonality_defect(q);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << tag << ": " << got << " vs " << want;
}

}  // namespace

TEST(LinalgRef, BlockedOrthogonalityDefectMatchesPlainLoopBitwise) {
  // Widths around the 4-column tile and the 64-column block, row counts
  // spanning several 256-row chunks, FP64 and FP32, plain and transposed.
  for (const auto& [m, n] : {std::pair<index_t, index_t>{1, 1}, {7, 3}, {300, 70},
                             {520, 131}, {64, 200}, {0, 5}}) {
    const Matrix<double> q = testutil::random_matrix(m, n, 40 + static_cast<std::uint64_t>(n));
    const Matrix<float> qf = testutil::convert<float>(q);
    const std::string tag = std::to_string(m) + "x" + std::to_string(n);
    expect_same_defect<double>(q.view(), (tag + " fp64").c_str());
    expect_same_defect<float>(qf.view(), (tag + " fp32").c_str());
    expect_same_defect<double>(q.view().transposed(), (tag + " fp64^T").c_str());
    expect_same_defect<float>(qf.view().transposed(), (tag + " fp32^T").c_str());
  }
}
