#pragma once
/// \file checks.hpp
/// Output checks, run outside every timed region: singular values against
/// the prescribed spectrum, orthogonality and residual of computed factors,
/// and byte identity of two reports.
///
/// All three error measures are scaled by the storage precision's epsilon
/// and the problem size n = max(rows, cols), so one limit applies to every
/// shape and precision:
///   sigma_err    = max_i |sigma_i - sigma_ref_i| / (eps * n * sigma_ref_1)
///   orth_err     = max(||U^T U - I||_F, ||V^T V - I||_F) / (eps * n)
///   residual_err = ||A - U diag(sigma) V^T||_F / (eps * n * sigma_ref_1)
/// The heavy products run in double on all cores.

#include <vector>

#include "common/matrix.hpp"
#include "core/svd.hpp"

namespace perfbench {

/// Largest error a correct solve may show in any of the three measures.
inline constexpr double kErrorLimit = 50.0;

[[nodiscard]] double sigma_err(const std::vector<double>& got,
                               const std::vector<double>& ref, double eps,
                               unisvd::index_t n);

/// Orthogonality error of the thin factors u (m x k) and vt (k x n).
[[nodiscard]] double orth_err(const unisvd::Matrix<double>& u,
                              const unisvd::Matrix<double>& vt, double eps,
                              unisvd::index_t n);

/// Residual of a (possibly truncated) factorization of `a`.
[[nodiscard]] double residual_err(const unisvd::Matrix<double>& a,
                                  const unisvd::Matrix<double>& u,
                                  const std::vector<double>& values,
                                  const unisvd::Matrix<double>& vt, double eps,
                                  double sigma1);

/// True when both reports carry the same status, values and factors, bit
/// for bit.
[[nodiscard]] bool same_bytes(const unisvd::SvdReport& a,
                              const unisvd::SvdReport& b);
[[nodiscard]] bool same_bytes(const unisvd::TruncReport& a,
                              const unisvd::TruncReport& b);

/// Storage-typed matrix widened to double (inputs for residual_err).
template <class T>
[[nodiscard]] unisvd::Matrix<double> widen(const unisvd::Matrix<T>& a) {
  unisvd::Matrix<double> out(a.rows(), a.cols());
  for (unisvd::index_t i = 0; i < a.size(); ++i) {
    out.data()[i] = static_cast<double>(a.data()[i]);
  }
  return out;
}

}  // namespace perfbench
