/// Trailing-update kernel tests (UNMQR / TSMQR / fused TSMQR): agreement
/// with double-precision reference application, COLPERBLOCK invariance,
/// fusion equivalence, transposed-view operation.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "common/linalg_ref.hpp"
#include "ka/backend.hpp"
#include "qr/band_reduction.hpp"
#include "test_util.hpp"

using namespace unisvd;
using testutil::random_matrix;

namespace {

/// Working matrix of nt x nt tiles with GEQRT already run on tile (0,0).
struct World {
  Matrix<double> w;
  Matrix<double> tau;
  int ts;
  index_t nt;
};

World make_world(int ts, index_t nt, std::uint64_t seed) {
  World out{random_matrix(nt * ts, nt * ts, seed), Matrix<double>(nt, ts, 0.0), ts, nt};
  return out;
}

qr::KernelConfig config(int ts, int cpb) {
  qr::KernelConfig cfg;
  cfg.tilesize = ts;
  cfg.colperblock = cpb;
  return cfg;
}

/// GEQRT + UNMQR on tile row 0, then TSQRT + fused TSMQR over tile rows
/// 1..nt-1, at one COLPERBLOCK. Returns the matrix after UNMQR and after
/// the fused TSMQR.
template <class T>
std::pair<Matrix<T>, Matrix<T>> update_at_colperblock(int ts, int cpb, index_t nt) {
  Matrix<T> w = testutil::convert<T>(random_matrix(nt * ts, nt * ts, 77));
  Matrix<T> tau(nt, ts, T(0));
  ka::CpuBackend be(4);
  const auto cfg = config(ts, cpb);
  qr::geqrt<T>(be, w.view(), 0, 0, tau.view(), cfg);
  qr::unmqr<T>(be, w.view(), 0, 0, 1, nt, tau.view(), cfg);
  Matrix<T> after_unmqr = w;
  qr::tsqrt<T>(be, w.view(), 0, 0, 1, nt, tau.view(), cfg);
  qr::tsmqr<T>(be, w.view(), 0, 0, 1, nt, 1, nt, tau.view(), cfg);
  return {std::move(after_unmqr), std::move(w)};
}

template <class T>
void expect_same_bits(const Matrix<T>& a, const Matrix<T>& b, const std::string& what) {
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << ", " << j << ")";
    }
  }
}

template <class T>
void expect_colperblock_invariant(int ts, std::initializer_list<int> cpbs) {
  const index_t nt = 3;
  const auto ref = update_at_colperblock<T>(ts, *cpbs.begin(), nt);
  for (const int cpb : cpbs) {
    const auto got = update_at_colperblock<T>(ts, cpb, nt);
    const std::string what = std::string(sizeof(T) == 4 ? "fp32" : "fp64") +
                             " ts=" + std::to_string(ts) +
                             " cpb=" + std::to_string(cpb);
    expect_same_bits(ref.first, got.first, "unmqr " + what);
    expect_same_bits(ref.second, got.second, "fused tsmqr " + what);
  }
}

}  // namespace

TEST(Unmqr, MatchesReferenceApplication) {
  const int ts = 16;
  World wd = make_world(ts, 3, 21);
  const Matrix<double> before = wd.w;
  ka::CpuBackend be(4);
  const auto cfg = config(ts, 16);
  qr::geqrt<double>(be, wd.w.view(), 0, 0, wd.tau.view(), cfg);
  qr::unmqr<double>(be, wd.w.view(), 0, 0, 1, 3, wd.tau.view(), cfg);

  // Reference: extract factored tile + tau, apply to original trailing row.
  Matrix<double> fac(ts, ts);
  std::vector<double> tau(static_cast<std::size_t>(ts));
  for (index_t j = 0; j < ts; ++j) {
    for (index_t i = 0; i < ts; ++i) fac(i, j) = wd.w(i, j);
    tau[static_cast<std::size_t>(j)] = wd.tau(0, j);
  }
  Matrix<double> x(ts, 2 * ts);
  for (index_t j = 0; j < 2 * ts; ++j) {
    for (index_t i = 0; i < ts; ++i) x(i, j) = before(i, ts + j);
  }
  testutil::apply_geqrt_qt(fac, tau, x);
  double err = 0.0;
  for (index_t j = 0; j < 2 * ts; ++j) {
    for (index_t i = 0; i < ts; ++i) {
      err = std::max(err, std::abs(x(i, j) - wd.w(i, ts + j)));
    }
  }
  EXPECT_LT(err, 1e-12);
}

TEST(Unmqr, ResultIndependentOfColperblock) {
  // COLPERBLOCK only re-partitions columns over workgroups, and each lane
  // chunk of a group (kLaneChunk columns) runs every column's own operation
  // sequence: UNMQR and fused TSMQR results are bitwise equal across it.
  // ts 32 covers groups narrower than one chunk (8, 16) and exactly one
  // (32); ts 128 adds narrower (4, 8) and several-chunk groups (64, 128).
  expect_colperblock_invariant<float>(32, {8, 16, 32});
  expect_colperblock_invariant<double>(32, {8, 16, 32});
  expect_colperblock_invariant<float>(128, {4, 8, 32, 64, 128});
  expect_colperblock_invariant<double>(128, {4, 8, 32, 64, 128});
}

TEST(Tsmqr, PairUpdateMatchesReference) {
  const int ts = 16;
  World wd = make_world(ts, 3, 31);
  const Matrix<double> before = wd.w;
  ka::CpuBackend be(4);
  const auto cfg = config(ts, 16);
  // Factor panel: GEQRT(0,0) then TSQRT over tile (1,0).
  qr::geqrt<double>(be, wd.w.view(), 0, 0, wd.tau.view(), cfg);
  qr::unmqr<double>(be, wd.w.view(), 0, 0, 1, 3, wd.tau.view(), cfg);
  const Matrix<double> after_unmqr = wd.w;  // top row state pre-TSMQR
  qr::tsqrt<double>(be, wd.w.view(), 0, 0, 1, 2, wd.tau.view(), cfg);
  qr::tsmqr<double>(be, wd.w.view(), 0, 0, 1, 2, 1, 3, wd.tau.view(), cfg);

  // Reference: apply TSQRT reflectors (stored in tile (1,0) + tau row 1)
  // to [top row; bottom row] of the pre-TSMQR state.
  Matrix<double> vt(ts, ts);
  std::vector<double> tl(static_cast<std::size_t>(ts));
  for (index_t j = 0; j < ts; ++j) {
    for (index_t i = 0; i < ts; ++i) vt(i, j) = wd.w(ts + i, j);
    tl[static_cast<std::size_t>(j)] = wd.tau(1, j);
  }
  Matrix<double> top(ts, 2 * ts);
  Matrix<double> bot(ts, 2 * ts);
  for (index_t j = 0; j < 2 * ts; ++j) {
    for (index_t i = 0; i < ts; ++i) {
      top(i, j) = after_unmqr(i, ts + j);
      bot(i, j) = before(ts + i, ts + j);
    }
  }
  testutil::apply_tsqrt_qt(vt, tl, top, bot);
  double err = 0.0;
  for (index_t j = 0; j < 2 * ts; ++j) {
    for (index_t i = 0; i < ts; ++i) {
      err = std::max(err, std::abs(top(i, j) - wd.w(i, ts + j)));
      err = std::max(err, std::abs(bot(i, j) - wd.w(ts + i, ts + j)));
    }
  }
  EXPECT_LT(err, 1e-12);
}

TEST(Tsmqr, FusedEqualsUnfusedRowSequence) {
  const int ts = 8;
  const index_t nt = 5;
  World w1 = make_world(ts, nt, 17);
  ka::SerialBackend be;
  const auto cfg = config(ts, 8);
  // Build a factored panel over rows 1..nt-1.
  qr::geqrt<double>(be, w1.w.view(), 0, 0, w1.tau.view(), cfg);
  qr::unmqr<double>(be, w1.w.view(), 0, 0, 1, nt, w1.tau.view(), cfg);
  qr::tsqrt<double>(be, w1.w.view(), 0, 0, 1, nt, w1.tau.view(), cfg);
  World w2 = w1;  // identical factored state

  qr::tsmqr<double>(be, w1.w.view(), 0, 0, 1, nt, 1, nt, w1.tau.view(), cfg);  // fused
  for (index_t l = 1; l < nt; ++l) {                                           // unfused
    qr::tsmqr<double>(be, w2.w.view(), 0, 0, l, l + 1, 1, nt, w2.tau.view(), cfg);
  }
  for (index_t j = 0; j < w1.w.cols(); ++j) {
    for (index_t i = 0; i < w1.w.rows(); ++i) {
      ASSERT_EQ(w1.w(i, j), w2.w(i, j)) << i << "," << j;
    }
  }
}

TEST(Tsmqr, WorksOnTransposedView) {
  // Run the same factor+update once on A explicitly transposed and once
  // through the lazy transpose: identical results, zero copies.
  const int ts = 8;
  const index_t nt = 3;
  Matrix<double> a = random_matrix(nt * ts, nt * ts, 5);
  Matrix<double> at(nt * ts, nt * ts);
  for (index_t j = 0; j < nt * ts; ++j) {
    for (index_t i = 0; i < nt * ts; ++i) at(i, j) = a(j, i);
  }
  Matrix<double> tau1(nt, ts, 0.0);
  Matrix<double> tau2(nt, ts, 0.0);
  ka::SerialBackend be;
  const auto cfg = config(ts, 8);

  auto run = [&](MatrixView<double> w, MatrixView<double> tau) {
    qr::geqrt<double>(be, w, 0, 0, tau, cfg);
    qr::unmqr<double>(be, w, 0, 0, 1, nt, tau, cfg);
    qr::tsqrt<double>(be, w, 0, 0, 1, nt, tau, cfg);
    qr::tsmqr<double>(be, w, 0, 0, 1, nt, 1, nt, tau, cfg);
  };
  run(a.view().transposed(), tau1.view());
  run(at.view(), tau2.view());
  for (index_t j = 0; j < nt * ts; ++j) {
    for (index_t i = 0; i < nt * ts; ++i) {
      ASSERT_EQ(a(j, i), at(i, j));
    }
  }
}

TEST(Tsmqr, HalfStorageFusionKeepsTopRowInComputePrecision) {
  // With FP16 storage the fused kernel keeps the top row in FP32 registers
  // across rows while the unfused sequence rounds it to FP16 between rows:
  // results differ slightly, and the fused one is at least as accurate.
  const int ts = 8;
  const index_t nt = 4;
  Matrix<double> base = random_matrix(nt * ts, nt * ts, 40);
  for (index_t j = 0; j < base.cols(); ++j) {
    for (index_t i = 0; i < base.rows(); ++i) base(i, j) *= 0.05;
  }
  auto run = [&](bool fused) {
    Matrix<Half> w = testutil::convert<Half>(base);
    Matrix<Half> tau(nt, ts, Half(0.0f));
    ka::SerialBackend be;
    const auto cfg = config(ts, 8);
    qr::geqrt<Half>(be, w.view(), 0, 0, tau.view(), cfg);
    qr::unmqr<Half>(be, w.view(), 0, 0, 1, nt, tau.view(), cfg);
    qr::tsqrt<Half>(be, w.view(), 0, 0, 1, nt, tau.view(), cfg);
    if (fused) {
      qr::tsmqr<Half>(be, w.view(), 0, 0, 1, nt, 1, nt, tau.view(), cfg);
    } else {
      for (index_t l = 1; l < nt; ++l) {
        qr::tsmqr<Half>(be, w.view(), 0, 0, l, l + 1, 1, nt, tau.view(), cfg);
      }
    }
    return testutil::widen(w);
  };
  const auto fused = run(true);
  const auto unfused = run(false);
  const double diff = ref::fro_diff(fused.view(), unfused.view());
  EXPECT_GT(diff, 0.0);                    // storage rounding differs...
  EXPECT_LT(diff, 0.05 * ref::fro_norm(fused.view()));  // ...but only slightly
}
