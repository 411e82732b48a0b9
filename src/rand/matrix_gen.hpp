#pragma once
/// \file matrix_gen.hpp
/// Test-matrix factory: A = U * diag(sigma) * V^T with known spectrum and
/// random orthogonal factors (the construction behind the paper's Table 1,
/// after RandomMatrices.jl).
///
/// Two orthogonal-factor constructions:
///   * Haar-distributed Q from the Householder QR of a Gaussian matrix —
///     statistically exact, O(n^3), used at unit-test sizes;
///   * a product of `k` random Householder reflectors — O(k n^2), spectrum
///     still *exactly* sigma (orthogonal invariance), used at benchmark
///     sizes. It substitutes for the paper's Haar factors there: the
///     spectrum, which every accuracy and timing measurement reads, is the
///     same; only the distribution of the singular vectors differs.
/// All generation runs in double; the final store rounds into the target
/// storage type, which is precisely the perturbation Table 1 measures for
/// reduced precisions.

#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "rand/rng.hpp"
#include "rand/spectrum.hpp"

namespace unisvd::rnd {

/// In-place application of one Householder reflector H = I - 2 v v^T (unit
/// v) to the rows of M (left multiply).
void apply_reflector_left(Matrix<double>& m, const std::vector<double>& v);
/// Right multiply by H (columns of M).
void apply_reflector_right(Matrix<double>& m, const std::vector<double>& v);

/// Haar-distributed random orthogonal matrix (QR of a Gaussian).
Matrix<double> haar_orthogonal(index_t n, Xoshiro256& rng);

/// A = U diag(sigma) V^T with Haar U, V. Exact spectrum, O(n^3).
Matrix<double> matrix_with_spectrum(const std::vector<double>& sigma, Xoshiro256& rng);

/// A = (H_1...H_k) diag(sigma) (G_1...G_k): reflector-product orthogonal
/// factors, O(k n^2). Exact spectrum; cheaper than Haar for large n.
Matrix<double> matrix_with_spectrum_fast(const std::vector<double>& sigma,
                                         Xoshiro256& rng, int reflectors = 32);

/// Round a double matrix into storage type T (the precision under test).
/// One correctly-rounded conversion per element (narrow_from_double): the
/// perturbation measured for reduced precisions is exactly one rounding,
/// never a double-rounded chain.
template <class T>
Matrix<T> round_to(const Matrix<double>& a) {
  Matrix<T> out(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      out(i, j) = narrow_from_double<T>(a(i, j));
    }
  }
  return out;
}

/// Dense i.i.d. Gaussian matrix (entries N(0, scale^2)).
Matrix<double> gaussian_matrix(index_t rows, index_t cols, Xoshiro256& rng,
                               double scale = 1.0);

/// Rectangular rows x cols matrix with EXACT singular values `sigma`
/// (length min(rows, cols)): diag(sigma) embedded in the rectangle, mixed
/// by `reflectors` random Householder reflectors on each side.
Matrix<double> rect_matrix_with_spectrum(index_t rows, index_t cols,
                                         const std::vector<double>& sigma,
                                         Xoshiro256& rng, int reflectors = 24);

}  // namespace unisvd::rnd
