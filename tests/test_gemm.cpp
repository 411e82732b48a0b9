/// Tests of the library's one GEMM (src/qr/gemm.hpp):
///
///   * bitwise against a plain loop that sums each output element from +0
///     in ascending inner index, in float and in double compute, with A
///     stored in Half, float or double, plain or lazily transposed operands
///     and outputs, on ragged shapes around the 128 x 64 cache block, the
///     4 x 4 tile and the 256-deep chunk (k = 0 included, every third entry
///     of B exactly 0), on SerialBackend and on CpuBackend widths 1 to 4;
///   * the range finder's sketch panel Y = A * Omega / s: the plain loop
///     followed by the range finder's epilogue (divide by s in compute
///     precision unless s is 1, round once into the storage type), with
///     the panel's padding rows untouched, in FP16, FP32 and
///     FP64, formed directly and as the range finder forms it (Y^T =
///     Omega^T * A^T), under the launch name and stage it reports.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/half.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "qr/gemm.hpp"
#include "rsvd/sketch.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

/// A rows x cols operand with random entries rounded to T (every
/// `zero_every`-th one exactly 0), stored as itself or, when `trans`, as
/// its transpose under a lazily transposed view.
template <class T>
struct Operand {
  Matrix<T> store;
  bool trans = false;

  Operand(index_t rows, index_t cols, bool transposed, std::uint64_t seed,
          index_t zero_every = 0)
      : trans(transposed) {
    Matrix<double> x = testutil::random_matrix(trans ? cols : rows, trans ? rows : cols, seed);
    if (zero_every > 0) {
      for (index_t i = 0; i < x.size(); i += zero_every) x.data()[i] = 0.0;
    }
    store = testutil::convert<T>(x);
  }
  [[nodiscard]] ConstMatrixView<T> view() const {
    return trans ? store.view().transposed() : store.view();
  }
};

/// The plain loop: c(r, j) = sum over kk ascending, from +0, of
/// CT(a(r, kk)) * CT(b(kk, j)); then divided by `scale` in CT unless it is
/// 1, and rounded once to TC.
template <class CT, class TA, class TB, class TC>
Matrix<TC> plain_gemm(ConstMatrixView<TA> a, ConstMatrixView<TB> b, double scale = 1.0) {
  const auto s = static_cast<CT>(scale);
  Matrix<TC> c(a.rows(), b.cols());
  for (index_t j = 0; j < b.cols(); ++j) {
    for (index_t r = 0; r < a.rows(); ++r) {
      CT sum = CT(0);
      for (index_t kk = 0; kk < a.cols(); ++kk) {
        sum += static_cast<CT>(a.at(r, kk)) * static_cast<CT>(b.at(kk, j));
      }
      c(r, j) = static_cast<TC>(scale == 1.0 ? sum : sum / s);
    }
  }
  return c;
}

template <class T>
bool same_bits(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (std::memcmp(&x.at(i, j), &y.at(i, j), sizeof(T)) != 0) return false;
    }
  }
  return true;
}

std::vector<std::unique_ptr<ka::Backend>> all_backends() {
  std::vector<std::unique_ptr<ka::Backend>> backends;
  backends.push_back(std::make_unique<ka::SerialBackend>());
  for (unsigned w = 1; w <= 4; ++w) backends.push_back(std::make_unique<ka::CpuBackend>(w));
  return backends;
}

/// Every shape x operand layout x backend of one type combination against
/// the plain loop, bitwise; the output is written through a transposed
/// view whenever A is.
template <class CT, class TA, class TB, class TC>
void check_against_plain_loop() {
  struct Shape { index_t m, n, k; };
  const Shape shapes[] = {{1, 1, 1},    {3, 5, 1},     {5, 3, 130},   {130, 5, 3},
                          {300, 130, 5}, {5, 300, 300}, {131, 67, 777}, {129, 65, 257},
                          {3, 1, 0},    {130, 130, 0}};
  const auto backends = all_backends();
  std::uint64_t seed = 500;
  for (const Shape& sh : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const Operand<TA> a(sh.m, sh.k, ta, ++seed);
        const Operand<TB> b(sh.k, sh.n, tb, ++seed, 3);
        const Matrix<TC> want = plain_gemm<CT, TA, TB, TC>(a.view(), b.view());
        for (const auto& be : backends) {
          Matrix<TC> c(ta ? sh.n : sh.m, ta ? sh.m : sh.n, static_cast<TC>(-7.0));
          const MatrixView<TC> cv = ta ? c.view().transposed() : c.view();
          qr::gemm<CT>(*be, qr::GemmProduct<TA, TB, TC>{a.view(), b.view(), cv},
                       {"gemm", ka::Stage::RandomizedSketch});
          EXPECT_TRUE(same_bits<TC>(cv, want.view()))
              << be->name() << " m=" << sh.m << " n=" << sh.n << " k=" << sh.k
              << " a^T=" << ta << " b^T=" << tb;
        }
      }
    }
  }
}

}  // namespace

TEST(Gemm, DoubleComputeMatchesPlainLoopBitwise) {
  check_against_plain_loop<double, double, double, double>();
}

TEST(Gemm, FloatComputeMatchesPlainLoopBitwise) {
  check_against_plain_loop<float, float, float, float>();
  // The range finder's U = Q U~: float basis, double coefficients and
  // output.
  check_against_plain_loop<float, float, double, double>();
}

TEST(Gemm, HalfOperandsConvertOnceAndMatchPlainLoopBitwise) {
  // FP16 storage, FP32 compute: into a Half panel (the sketch and power
  // iteration) and into a float one (the projection).
  check_against_plain_loop<float, Half, float, Half>();
  check_against_plain_loop<float, Half, float, float>();
}

namespace {

/// The range finder's first panel, Y = A * Omega / s into rows [0, m) of a
/// zero-padded m_pad x l panel, against the plain loop and the epilogue:
/// formed directly and as the range finder forms it, Y^T = Omega^T * A^T.
template <class T>
void check_sketch_panel(bool wide, bool as_transpose) {
  using CT = compute_t<T>;
  const index_t m = 150;
  const index_t n = 70;
  const index_t l = 40;
  const index_t mpad = 160;
  const Operand<T> a(m, n, wide, 17);
  const Matrix<CT> omega = rsvd::gaussian_sketch<CT>(n, l, 23);
  for (const double scale : {1.0, 3.0}) {
    const Matrix<T> want = plain_gemm<CT, T, CT, T>(a.view(), omega.view(), scale);
    for (const auto& be : all_backends()) {
      Matrix<T> y(mpad, l, T(0));
      ka::TraceRecorder trace;
      be->set_trace(&trace);
      ka::StageTimes times;
      const qr::GemmLaunch launch{"sketch_gemm", ka::Stage::RandomizedSketch, &times, scale};
      const MatrixView<T> panel = y.view().block(0, 0, m, l);
      if (as_transpose) {
        qr::gemm<CT>(*be,
                     qr::GemmProduct<CT, T, T>{omega.view().transposed(),
                                               a.view().transposed(), panel.transposed()},
                     launch);
      } else {
        qr::gemm<CT>(*be, qr::GemmProduct<T, CT, T>{a.view(), omega.view(), panel}, launch);
      }
      be->set_trace(nullptr);
      EXPECT_TRUE(same_bits<T>(y.view().block(0, 0, m, l), want.view()))
          << be->name() << " scale=" << scale << " wide=" << wide
          << " as_transpose=" << as_transpose;
      for (index_t j = 0; j < l; ++j) {
        for (index_t i = m; i < mpad; ++i) {
          EXPECT_EQ(static_cast<double>(y(i, j)), 0.0) << "padding row " << i;
        }
      }
      const auto records = trace.records();
      ASSERT_EQ(records.size(), 1u);
      EXPECT_EQ(records[0].name, "sketch_gemm");
      EXPECT_EQ(records[0].stage, ka::Stage::RandomizedSketch);
      EXPECT_DOUBLE_EQ(records[0].cost.flops, 2.0 * m * n * l);
      EXPECT_GT(times.get(ka::Stage::RandomizedSketch), 0.0);
    }
  }
}

}  // namespace

TEST(Gemm, SketchPanelIsPlainLoopThenDivideOnceAndRoundOnce) {
  for (const bool wide : {false, true}) {
    for (const bool as_transpose : {false, true}) {
      check_sketch_panel<Half>(wide, as_transpose);
      check_sketch_panel<float>(wide, as_transpose);
      check_sketch_panel<double>(wide, as_transpose);
    }
  }
}
