#pragma once
/// \file dc_svd.hpp
/// Stage 3 of every vector job: divide-and-conquer bidiagonal SVD (LAPACK
/// dlasd0-family structure, after Liu et al.'s GPU-centered D&C — see
/// PAPERS.md). Where the implicit-QR kernel (src/bidiag/bidiag_qr.hpp)
/// sweeps rotations sequentially and mirrors each one across full factor
/// rows — O(n^3) strided scalar work — the D&C solver
///
///   * recursively splits the bidiagonal at its middle row into two
///     independent sub-problems (solved in parallel on the backend's pool,
///     whose idle workers steal the children's launches and rows),
///   * reduces each merge to ONE broken-arrow matrix whose squared
///     singular values are secular-equation roots (src/dc/secular.hpp),
///     solved independently per root — the parallel axis of the paper,
///   * deflates negligible weights and near-equal poles (dlasd2-style
///     two-sided Givens), re-derives the weight vector by the Loewner
///     formula so assembled vectors stay numerically orthogonal, and
///   * composes sub-problem factors with one launch of the library's
///     cache-blocked GEMM (src/qr/gemm.hpp, in double) per side of each
///     merge, reading the arrow-frame vectors in place, instead of
///     rotation-at-a-time updates.
///
/// Sub-problems of extent at most `kQrLeaf` fall back to the existing
/// implicit-QR kernel, so the recursion bottoms out on the battle-tested
/// path. All internal arithmetic runs in double regardless of the
/// pipeline's compute precision; results are narrowed once on output.
///
/// The recursion operates on the uniform n x (n+1) upper-bidiagonal
/// problem (diagonal d_i at (i,i), superdiagonal e_i at (i,i+1), e of
/// length n). A square input is embedded as [B 0] by appending a zero
/// coupling — same singular values and left vectors; the right factor
/// gains one exact null direction that is dropped again on output.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "ka/backend.hpp"

namespace unisvd::dc {

/// Sub-problems with extent <= kQrLeaf are solved by the implicit-QR
/// kernel instead of recursing further.
inline constexpr index_t kQrLeaf = 48;

/// Numerical events of one solve (reported on SvdReport::dc_stats).
struct DcStats {
  index_t merges = 0;         ///< secular merge steps performed
  index_t tail_solves = 0;    ///< leaf sub-problems sent to implicit QR
  index_t deflated = 0;       ///< coordinates removed by deflation
  index_t secular_roots = 0;  ///< secular equations actually solved
};

/// Singular values and factors of an n x n bidiagonal B:
/// B = ut^T * diag(values) * vt.
template <class CT>
struct DcResult {
  std::vector<CT> values;  ///< n singular values, descending
  Matrix<CT> ut;           ///< n x n, rows = left singular vectors (U_B^T)
  Matrix<CT> vt;           ///< n x n, rows = right singular vectors (V_B^T)
};

namespace detail {

/// bidiag_svd_dc with the leaf extent as a parameter. The entry point
/// passes kQrLeaf; tests pass less to recurse deeper.
template <class CT>
DcResult<CT> bidiag_svd_dc(std::vector<CT> d, std::vector<CT> e, index_t qr_leaf,
                           ka::Backend* backend, DcStats* stats);

}  // namespace detail

/// Divide-and-conquer bidiagonal SVD: d is the n-point diagonal, e the
/// (n-1)-point superdiagonal. Values and factors are computed in double and
/// narrowed once to CT.
///
/// `backend` runs the composition GEMM launches, and its pool
/// (batch_pool(), if any) runs sub-problems, secular roots and vector rows
/// in parallel. Nested use (from inside a batched solve) follows the
/// enclosing job, as every other pipeline stage does. nullptr runs
/// everything on the calling thread.
template <class CT>
DcResult<CT> bidiag_svd_dc(std::vector<CT> d, std::vector<CT> e,
                           ka::Backend* backend = nullptr, DcStats* stats = nullptr) {
  return detail::bidiag_svd_dc(std::move(d), std::move(e), kQrLeaf, backend, stats);
}

}  // namespace unisvd::dc
