#pragma once
/// \file band_to_bidiag.hpp
/// SVD Stage 2: reduction of an upper band matrix to upper bidiagonal form
/// by Givens bulge chasing (the cache-friendly tile-kernel stage of Haidar
/// et al. that the paper adopts). Communication-avoiding variants pipeline
/// the chases of successive columns; the performance model prices Stage 2
/// that way (sim::phase2_schedule), while band_to_bidiag below chases one
/// column at a time.
///
/// For every column j and every in-band superdiagonal element beyond the
/// first, a right (column) rotation annihilates it; the resulting
/// subdiagonal bulge is chased down the band by alternating left (row) and
/// right (column) rotations, each hop advancing `bw` rows. Only orthogonal
/// transformations are used, so singular values are preserved exactly (in
/// exact arithmetic).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/rot_batch.hpp"
#include "common/error.hpp"

namespace unisvd::band {

namespace detail {

/// Givens pair (c, s) for the pair rotation (u, v) -> (c*u + s*v,
/// -s*u + c*v) used throughout Stage 2: applied to (f, g) it yields
/// (r, 0) with r = hypot(f, g). Each subnormal rescale adds one to
/// `rescales`.
template <class CT>
std::pair<CT, CT> givens(CT f, CT g, double& rescales) {
  if (g == CT(0)) return {CT(1), CT(0)};
  if (f == CT(0)) return {CT(0), CT(1)};
  // Subnormal inputs carry only a few mantissa bits, so f/r and g/r can
  // land far off the unit circle (c^2 + s^2 up to 1.06 observed at FP32 on
  // severely graded bands) and thousands of such rotations inflate the
  // vectors without ever producing a NaN. (c, s) depend only on the
  // ratio f : g, so rescale both by a power of two (exact) into the normal
  // range first.
  const CT tiny = std::numeric_limits<CT>::min();
  if (std::abs(f) < tiny && std::abs(g) < tiny) {
    const CT scale = CT(1) / tiny;
    f *= scale;
    g *= scale;
    rescales += 1.0;
  }
  const CT r = std::hypot(f, g);
  return {f / r, g / r};
}

/// Rotations one side of the chase makes at most on an n x n band of
/// bandwidth bw: each (column j, superdiagonal dd) starts one chain of
/// 1 + (n - 1 - (j + dd)) / bw left and as many right rotations (fewer when
/// a bulge is exactly zero).
inline index_t chase_rotation_bound(index_t n, index_t bw) {
  index_t count = 0;
  for (index_t j = 0; bw >= 2 && j + 2 <= n - 1; ++j) {
    for (index_t dd = std::min(bw, n - 1 - j); dd >= 2; --dd) {
      count += 1 + (n - 1 - (j + dd)) / bw;
    }
  }
  return count;
}

}  // namespace detail

/// Statistics of one Stage-2 run (reported on SvdReport::chase_stats).
struct ChaseStats {
  double rotations = 0.0;           ///< Givens rotations applied
  double batch_flushes = 0.0;       ///< replay passes of the logged rotations
  double subnormal_rescales = 0.0;  ///< (f, g) pairs detail::givens rescaled
};

/// Reduce `b` (upper band, bandwidth bw) to upper bidiagonal; returns the
/// diagonal d and superdiagonal e (compute precision).
///
/// When `log` is non-null (vector jobs) every left (row) rotation is
/// appended to log->left and every right (column) rotation to log->right,
/// in generation order, for the back-transformation's reverse replay
/// (band/rot_batch.hpp). Identity rotations (c == 1, s == 0), which the
/// padding region produces in bulk, are not logged: they are exact no-ops,
/// and skipping them keeps a padded problem's log on its real coordinates,
/// which the back-transformation's n x n factors rely on (core/svd.cpp).
/// The band arithmetic is the same with or without a log, so d/e — and the
/// singular values — stay bit-identical.
template <class CT>
ChaseStats band_to_bidiag(BandMatrix<CT>& b, std::vector<CT>& d, std::vector<CT>& e,
                          ChaseLog<CT>* log = nullptr) {
  const index_t n = b.n();
  const index_t bw = b.bandwidth();
  ChaseStats stats;
  if (log != nullptr) {
    UNISVD_REQUIRE(n <= std::numeric_limits<std::int32_t>::max(),
                   "band_to_bidiag: extent exceeds the rotation log's index range");
    const auto bound = static_cast<std::size_t>(detail::chase_rotation_bound(n, bw));
    log->left.clear();
    log->right.clear();
    log->left.reserve(bound);
    log->right.reserve(bound);
  }
  const auto record = [&](RotationLog<CT>& side, index_t r, CT c, CT s) {
    if (!(c == CT(1) && s == CT(0))) {
      side.push_back(ChaseRotation<CT>{static_cast<std::int32_t>(r), c, s});
    }
  };

  auto rotate_cols = [&](index_t c1, index_t c2, index_t ilo, index_t ihi, CT c, CT s) {
    for (index_t i = ilo; i <= ihi; ++i) {
      CT& u = b.at(i, c1);
      CT& v = b.at(i, c2);
      const CT nu = c * u + s * v;
      const CT nv = -s * u + c * v;
      u = nu;
      v = nv;
    }
    if (log != nullptr) record(log->right, c1, c, s);
    stats.rotations += 1.0;
  };
  auto rotate_rows = [&](index_t r1, index_t r2, index_t jlo, index_t jhi, CT c, CT s) {
    for (index_t j = jlo; j <= jhi; ++j) {
      CT& u = b.at(r1, j);
      CT& v = b.at(r2, j);
      const CT nu = c * u + s * v;
      const CT nv = -s * u + c * v;
      u = nu;
      v = nv;
    }
    if (log != nullptr) record(log->left, r1, c, s);
    stats.rotations += 1.0;
  };

  if (bw >= 2) {
    for (index_t j = 0; j + 2 <= n - 1; ++j) {
      for (index_t dd = std::min(bw, n - 1 - j); dd >= 2; --dd) {
        // Right rotation of columns (c2-1, c2) annihilates (j, c2).
        index_t c2 = j + dd;
        {
          const auto [c, s] =
              detail::givens(b.at(j, c2 - 1), b.at(j, c2), stats.subnormal_rescales);
          const index_t ilo = std::max<index_t>(j, c2 - 1 - bw);
          const index_t ihi = std::min(n - 1, c2);
          rotate_cols(c2 - 1, c2, ilo, ihi, c, s);
        }
        // Chase the subdiagonal bulge at (r, r-1) down the band.
        index_t r = c2;
        while (r <= n - 1 && b.at(r, r - 1) != CT(0)) {
          {
            // Left rotation of rows (r-1, r) annihilates the bulge ...
            const auto [c, s] = detail::givens(b.at(r - 1, r - 1), b.at(r, r - 1),
                                               stats.subnormal_rescales);
            const index_t jhi = std::min(n - 1, r + bw);
            rotate_rows(r - 1, r, r - 1, jhi, c, s);
            b.at(r, r - 1) = CT(0);
          }
          const index_t q = r + bw;  // ... creating fill at (r-1, q)
          if (q > n - 1) break;
          {
            // Right rotation of columns (q-1, q) annihilates the fill ...
            const auto [c, s] = detail::givens(b.at(r - 1, q - 1), b.at(r - 1, q),
                                               stats.subnormal_rescales);
            const index_t ihi = std::min(n - 1, q);
            rotate_cols(q - 1, q, r - 1, ihi, c, s);
            b.at(r - 1, q) = CT(0);
          }
          r = q;  // ... creating the next subdiagonal bulge at (q, q-1)
        }
      }
    }
  }

  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = b.at(i, i);
    if (i + 1 < n) e[static_cast<std::size_t>(i)] = b.at(i, i + 1);
  }
  return stats;
}

}  // namespace unisvd::band
