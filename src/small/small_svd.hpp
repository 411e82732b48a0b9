#pragma once
/// \file small_svd.hpp
/// Fused tiny-problem SVD for problems with min(m, n) at or below
/// SvdConfig::small_svd_threshold: one fused call per problem.
///
/// The 3-stage tiled pipeline pays per-stage launches, tile padding to the
/// TILESIZE grid, and square accumulator traffic that are pure overhead on
/// sub-tile problems — the regime batched-SVD libraries win by fusing the
/// whole factorization into one register/stack-resident kernel. This path
/// loads the input once into compute-precision stack-first buffers at its
/// NATIVE extent (no padding round-trip) and runs the pipeline's own two
/// steps with no per-stage launches: Golub–Kahan Householder
/// bidiagonalization G = Q B P^T, then implicit-shift QR on B. The job
/// picks only the chase:
///
///   * ValuesOnly: a lean values-only chase on the diagonal pair.
///   * Thin and Full: Q and P are formed from the kept reflectors (Q has
///     m columns for Full, so the Householder product completes U's basis
///     by itself), and bidiag::bidiag_svd_qr_vectors — the pipeline's
///     vector iteration, which D&C's leaves run — rotates them into U and
///     V. Thin and Full values are bit-identical; they agree with the
///     ValuesOnly values within the accuracy gates, not bitwise. An
///     exhausted step budget throws unisvd::Error, as on D&C's leaves.
///
/// All time books under ka::Stage::FusedSmall.
///
/// Dispatch lives in svd_values_report (core/svd.cpp): shape-only, before
/// the tall-panel QR, so every entry point — svd_values, svd,
/// svd_truncated's projected solves, and the batched engine — inherits the
/// path automatically. SvdReport::small_path records that it fired.

#include <algorithm>

#include "common/matrix.hpp"
#include "core/svd.hpp"

namespace unisvd::smallsvd {

/// Shape-only dispatch predicate: true when (m, n) should take the fused
/// path under `threshold` (SvdConfig::small_svd_threshold; <= 0 disables).
/// Deliberately independent of the job, so every job and every caller
/// dispatches identically; the job picks the chase inside the path.
[[nodiscard]] constexpr bool small_svd_applicable(index_t m, index_t n,
                                                  index_t threshold) noexcept {
  return threshold > 0 && m >= 1 && n >= 1 && std::min(m, n) <= threshold;
}

/// Solve a (already validated: non-empty, finite if requested) in one fused
/// call. Returns a fully-populated SvdReport with
/// small_path = true, padded_n = min(m, n) (this path never pads), and all
/// wall clock under Stage::FusedSmall.
template <class T>
[[nodiscard]] SvdReport small_svd_solve(ConstMatrixView<T> a,
                                        const SvdConfig& config);

}  // namespace unisvd::smallsvd
