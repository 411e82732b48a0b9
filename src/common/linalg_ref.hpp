#pragma once
/// \file linalg_ref.hpp
/// Small reference linear-algebra helpers (double precision, unoptimized
/// but for orthogonality_defect, whose O(m n^2) Gram product is blocked).
///
/// These are *not* on any performance path: they exist for test oracles,
/// accuracy measurement (Frobenius-norm errors of Table 1) and example
/// programs. All computations run in double regardless of storage type so
/// that measurement noise never exceeds the quantity being measured.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/matrix.hpp"

namespace unisvd::ref {

/// C = A * B (logical views; respects lazy transposition).
template <class T>
Matrix<double> matmul(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  UNISVD_REQUIRE(a.cols() == b.rows(), "matmul: inner dimensions differ");
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  for (index_t j = 0; j < b.cols(); ++j) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const double bkj = static_cast<double>(b.at(k, j));
      if (bkj == 0.0) continue;
      for (index_t i = 0; i < a.rows(); ++i) {
        c(i, j) += static_cast<double>(a.at(i, k)) * bkj;
      }
    }
  }
  return c;
}

/// Frobenius norm of a view.
template <class T>
double fro_norm(ConstMatrixView<T> a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double v = static_cast<double>(a.at(i, j));
      s += v * v;
    }
  }
  return std::sqrt(s);
}

/// || A - B ||_F over logical elements.
template <class TA, class TB>
double fro_diff(ConstMatrixView<TA> a, ConstMatrixView<TB> b) {
  UNISVD_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                 "fro_diff: shape mismatch");
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double d =
          static_cast<double>(a.at(i, j)) - static_cast<double>(b.at(i, j));
      s += d * d;
    }
  }
  return std::sqrt(s);
}

/// || Q^T Q - I ||_F : orthogonality defect of the columns of Q. Q^T Q is
/// symmetric, so each off-diagonal dot is computed once and counted twice.
///
/// The dots are computed kCols columns of Q^T Q at a time, in 4 x 4
/// register tiles over kDepth rows of Q at a time, from a copy of Q packed
/// as 4-column slivers (each row's four entries adjacent), so the operands
/// of a tile stay in cache. Each dot still sums its products in row order
/// starting from 0, and s accumulates in (j, i <= j) order, so the value is
/// bit-identical to the plain triple loop.
template <class T>
double orthogonality_defect(ConstMatrixView<T> q) {
  constexpr index_t kTile = 4;
  constexpr index_t kCols = 64;
  constexpr index_t kDepth = 256;
  const index_t m = q.rows();
  const index_t n = q.cols();
  const index_t slivers = (n + kTile - 1) / kTile;
  const index_t ldg = slivers * kTile;
  const auto at = [](index_t i) { return static_cast<std::size_t>(i); };

  std::vector<double> packed(at(ldg * m), 0.0);  // columns past n stay 0
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < m; ++k) {
      packed[at(((j / kTile) * m + k) * kTile + j % kTile)] = static_cast<double>(q.at(k, j));
    }
  }

  std::vector<double> gram(at(kCols * ldg));  // dot(i, j) at (j - j0) * ldg + i
  double s = 0.0;
  for (index_t j0 = 0; j0 < n; j0 += kCols) {
    const index_t j1 = std::min(n, j0 + kCols);
    const index_t gj1 = (j1 + kTile - 1) / kTile;
    std::fill(gram.begin(), gram.end(), 0.0);
    for (index_t k0 = 0; k0 < m; k0 += kDepth) {
      const index_t depth = std::min(kDepth, m - k0);
      for (index_t gi = 0; gi < gj1; ++gi) {
        const double* a = packed.data() + (gi * m + k0) * kTile;
        for (index_t gj = std::max(gi, j0 / kTile); gj < gj1; ++gj) {
          const double* b = packed.data() + (gj * m + k0) * kTile;
          double* g = gram.data() + (gj * kTile - j0) * ldg + gi * kTile;
          double t[kTile * kTile];
          for (index_t jj = 0; jj < kTile; ++jj) {
            for (index_t ii = 0; ii < kTile; ++ii) t[jj * kTile + ii] = g[jj * ldg + ii];
          }
          for (index_t k = 0; k < depth; ++k) {
            const double* ak = a + k * kTile;
            const double* bk = b + k * kTile;
            for (index_t jj = 0; jj < kTile; ++jj) {
              for (index_t ii = 0; ii < kTile; ++ii) t[jj * kTile + ii] += ak[ii] * bk[jj];
            }
          }
          for (index_t jj = 0; jj < kTile; ++jj) {
            for (index_t ii = 0; ii < kTile; ++ii) g[jj * ldg + ii] = t[jj * kTile + ii];
          }
        }
      }
    }
    for (index_t j = j0; j < j1; ++j) {
      for (index_t i = 0; i <= j; ++i) {
        const double dot = gram[at((j - j0) * ldg + i)];
        s += (i == j) ? (dot - 1.0) * (dot - 1.0) : 2.0 * dot * dot;
      }
    }
  }
  return std::sqrt(s);
}

/// Relative Frobenius error between two descending singular value lists:
/// || sigma - sigma_ref ||_2 / || sigma_ref ||_2  (the Table 1 metric).
inline double rel_sv_error(const std::vector<double>& sigma,
                           const std::vector<double>& sigma_ref) {
  UNISVD_REQUIRE(sigma.size() == sigma_ref.size(), "rel_sv_error: length mismatch");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    const double d = sigma[i] - sigma_ref[i];
    num += d * d;
    den += sigma_ref[i] * sigma_ref[i];
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/// Copy any storage-typed view into a fresh double matrix.
template <class T>
Matrix<double> to_double(ConstMatrixView<T> a) {
  Matrix<double> out(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      out(i, j) = static_cast<double>(a.at(i, j));
    }
  }
  return out;
}

/// Largest absolute element, in double (any storage type).
template <class T>
double max_abs(ConstMatrixView<T> a) {
  double mx = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      mx = std::max(mx, std::abs(static_cast<double>(a.at(i, j))));
    }
  }
  return mx;
}

/// The auto_scale policy shared by the dense, randomized and fused paths:
/// divisor bringing the largest magnitude `amax` to ~1 when it sits outside
/// [0.25, 4], else 1.0 (no scaling). ONE rule so no two paths can disagree
/// on scale_factor for the same input.
inline double auto_scale_divisor_for(double amax) {
  return amax > 0.0 && (amax > 4.0 || amax < 0.25) ? amax : 1.0;
}

/// auto_scale_divisor_for over the largest magnitude of `a`.
template <class T>
double auto_scale_divisor(ConstMatrixView<T> a) {
  return auto_scale_divisor_for(max_abs(a));
}

/// || A - U[:, :k] diag(values[:k]) Vt[:k, :] ||_F with double-held factors
/// (the SvdReport / TruncReport layout) — the rank-k reconstruction metric
/// shared by the truncated-SVD tests, bench gate and tuner accuracy gate.
inline double rank_k_residual_fro(ConstMatrixView<double> a,
                                  const Matrix<double>& u,
                                  const std::vector<double>& values,
                                  const Matrix<double>& vt, index_t k) {
  UNISVD_REQUIRE(k <= u.cols() && k <= vt.rows() &&
                     static_cast<std::size_t>(k) <= values.size(),
                 "rank_k_residual_fro: k exceeds the factor extents");
  Matrix<double> recon(a.rows(), a.cols(), 0.0);
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t kk = 0; kk < k; ++kk) {
      const double sv = values[static_cast<std::size_t>(kk)] * vt(kk, j);
      if (sv == 0.0) continue;
      for (index_t i = 0; i < a.rows(); ++i) {
        recon(i, j) += u(i, kk) * sv;
      }
    }
  }
  return fro_diff(a, ConstMatrixView<double>(recon.view()));
}

/// True when every element of the view is finite.
template <class T>
bool all_finite(ConstMatrixView<T> a) {
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      if (!std::isfinite(static_cast<double>(a.at(i, j)))) return false;
    }
  }
  return true;
}

// Mutable-view conveniences: template argument deduction does not see the
// MatrixView -> ConstMatrixView conversion, so forward explicitly.
template <class TA, class TB>
Matrix<double> matmul(MatrixView<TA> a, MatrixView<TB> b) {
  return matmul(ConstMatrixView<TA>(a), ConstMatrixView<TB>(b));
}
template <class T>
double fro_norm(MatrixView<T> a) {
  return fro_norm(ConstMatrixView<T>(a));
}
template <class TA, class TB>
double fro_diff(MatrixView<TA> a, MatrixView<TB> b) {
  return fro_diff(ConstMatrixView<TA>(a), ConstMatrixView<TB>(b));
}
template <class TA, class TB>
double fro_diff(ConstMatrixView<TA> a, MatrixView<TB> b) {
  return fro_diff(a, ConstMatrixView<TB>(b));
}
template <class TA, class TB>
double fro_diff(MatrixView<TA> a, ConstMatrixView<TB> b) {
  return fro_diff(ConstMatrixView<TA>(a), b);
}
template <class T>
double orthogonality_defect(MatrixView<T> q) {
  return orthogonality_defect(ConstMatrixView<T>(q));
}
template <class T>
Matrix<double> to_double(MatrixView<T> a) {
  return to_double(ConstMatrixView<T>(a));
}
template <class T>
bool all_finite(MatrixView<T> a) {
  return all_finite(ConstMatrixView<T>(a));
}

}  // namespace unisvd::ref
