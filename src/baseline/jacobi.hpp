#pragma once
/// \file jacobi.hpp
/// One-sided Jacobi SVD (singular values only) — the high-accuracy oracle.
///
/// A genuinely different algorithm from the library's solvers, which all
/// bidiagonalize and then chase (the pipeline and the fused tiny path
/// alike): columns are orthogonalized pairwise by plane rotations until
/// convergence, after which the singular values are the column norms. The
/// library runs no one-sided Jacobi outside this oracle; its rotation and
/// tournament code lives in jacobi.cpp. Runs in double regardless of input
/// storage type. Pairs within a sweep are scheduled by a round-robin
/// tournament so each round consists of disjoint pairs that can rotate in
/// parallel.
///
/// Stands in for the reference solver (cuSOLVER in the paper's Table 1)
/// when measuring the accuracy of the unified implementation.

#include <vector>

#include "common/matrix.hpp"
#include "ka/thread_pool.hpp"

namespace unisvd::baseline {

struct JacobiOptions {
  int max_sweeps = 60;
  double tol = 1e-14;  ///< relative off-diagonal threshold
};

/// Singular values (descending) of a dense square matrix by one-sided
/// Jacobi. `pool` enables parallel rotation rounds; nullptr runs serially.
std::vector<double> jacobi_svdvals(ConstMatrixView<double> a,
                                   ka::ThreadPool* pool = nullptr,
                                   const JacobiOptions& opts = {});

/// Convenience overload for any storage type (converted to double).
template <class T>
std::vector<double> jacobi_svdvals_of(ConstMatrixView<T> a,
                                      ka::ThreadPool* pool = nullptr,
                                      const JacobiOptions& opts = {}) {
  Matrix<double> tmp(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      tmp(i, j) = static_cast<double>(a.at(i, j));
    }
  }
  return jacobi_svdvals(tmp.view(), pool, opts);
}

}  // namespace unisvd::baseline
