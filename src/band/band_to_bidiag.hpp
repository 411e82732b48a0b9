#pragma once
/// \file band_to_bidiag.hpp
/// SVD Stage 2: reduction of an upper band matrix to upper bidiagonal form
/// by Givens bulge chasing (the cache-friendly tile-kernel stage of Haidar
/// et al. that the paper adopts; communication-avoiding variants pipeline
/// the chases of successive columns — see band_to_bidiag_waves below).
///
/// For every column j and every in-band superdiagonal element beyond the
/// first, a right (column) rotation annihilates it; the resulting
/// subdiagonal bulge is chased down the band by alternating left (row) and
/// right (column) rotations, each hop advancing `bw` rows. Only orthogonal
/// transformations are used, so singular values are preserved exactly (in
/// exact arithmetic).

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/rot_batch.hpp"
#include "common/error.hpp"
#include "common/givens_rows.hpp"

namespace unisvd::band {

namespace detail {

/// Givens pair (c, s) for the pair rotation (u, v) -> (c*u + s*v,
/// -s*u + c*v) used throughout Stage 2: applied to (f, g) it yields
/// (r, 0) with r = hypot(f, g).
template <class CT>
std::pair<CT, CT> givens(CT f, CT g) {
  if (g == CT(0)) return {CT(1), CT(0)};
  if (f == CT(0)) return {CT(0), CT(1)};
  // Subnormal inputs carry only a few mantissa bits, so f/r and g/r can
  // land far off the unit circle (c^2 + s^2 up to 1.06 observed at FP32 on
  // severely graded bands) and thousands of such rotations inflate the
  // accumulators without ever producing a NaN. (c, s) depend only on the
  // ratio f : g, so rescale both by a power of two (exact) into the normal
  // range first.
  const CT tiny = std::numeric_limits<CT>::min();
  if (std::abs(f) < tiny && std::abs(g) < tiny) {
    const CT scale = CT(1) / tiny;
    f *= scale;
    g *= scale;
  }
  const CT r = std::hypot(f, g);
  return {f / r, g / r};
}

}  // namespace detail

/// Statistics of one Stage-2 run (reported on SvdReport::chase_stats).
struct ChaseStats {
  double rotations = 0.0;      ///< Givens rotations applied
  double batch_flushes = 0.0;  ///< rotation-batch replay passes (0 = eager)
};

/// Options of the Stage-2 chase (the accumulator-carrying overload below).
template <class CT>
struct Stage2Options {
  MatrixView<CT>* ut = nullptr;      ///< left accumulator (rows = vectors)
  MatrixView<CT>* vt = nullptr;      ///< right accumulator
  double* acc_seconds = nullptr;     ///< Stage::VectorAccumulation share
  /// Cache-blocked rotation batching (band/rot_batch.hpp): when `backend`
  /// is non-null and `rot_batch` > 0, accumulator mirroring buffers up to
  /// `rot_batch` rotations and replays each batch panel-by-panel through a
  /// backend launch — bit-identical to the eager per-rotation path, but
  /// cache-blocked, vectorized across accumulator columns and visible in
  /// traces. The accumulators must then be whole matrices (untransposed,
  /// ld == rows). Otherwise (the default) rotations mirror eagerly as they
  /// are made.
  ka::Backend* backend = nullptr;
  index_t rot_batch = 0;
};

/// Reduce `b` (upper band, bandwidth bw) to upper bidiagonal; returns the
/// diagonal d and superdiagonal e (compute precision).
///
/// Optional singular-vector accumulation: when `ut` / `vt` are non-null,
/// every left (row) rotation G applied to band rows (r1, r2) is mirrored as
/// Ut <- G * Ut and every right (column) rotation as Vt <- G^T * Vt — both
/// are exactly the apply_givens_rows pair rotation on rows of the
/// transposed accumulator (matching the Stage-1 convention), preserving the
/// invariant A = ut^T * B * vt across the chase. The band arithmetic is identical
/// with or without accumulators, so d/e — and the singular values — stay
/// bit-identical. Identity rotations (c == 1, s == 0), which the padding
/// region produces in bulk, skip the accumulator update (an exact no-op).
///
/// When `acc_seconds` is non-null, the wall clock the accumulator updates
/// consume is added to it — the pipeline driver subtracts that share from
/// the Stage-2 stopwatch and books it under Stage::VectorAccumulation, so
/// the Figure 6 breakdown attributes vector work to the vector stage.
template <class CT>
ChaseStats band_to_bidiag(BandMatrix<CT>& b, std::vector<CT>& d, std::vector<CT>& e,
                          const Stage2Options<CT>& opts) {
  const index_t n = b.n();
  const index_t bw = b.bandwidth();
  MatrixView<CT>* ut = opts.ut;
  MatrixView<CT>* vt = opts.vt;
  ChaseStats stats;
  const AccTimer acc_timer(opts.acc_seconds);

  // Rotation-batch replay: buffer the mirror rotations and apply them to
  // one 64-column accumulator panel at a time instead of sweeping the full
  // accumulator once per rotation. Bit-identical (see rot_batch.hpp); the
  // batch holds the accumulators in its own layout until finish().
  std::optional<GivensBatch<CT>> batch;
  if (opts.backend != nullptr && opts.rot_batch > 0 &&
      (ut != nullptr || vt != nullptr)) {
    batch.emplace(*opts.backend, ut, vt, opts.rot_batch, acc_timer);
  }

  auto rotate_cols = [&](index_t c1, index_t c2, index_t ilo, index_t ihi, CT c, CT s) {
    for (index_t i = ilo; i <= ihi; ++i) {
      CT& u = b.at(i, c1);
      CT& v = b.at(i, c2);
      const CT nu = c * u + s * v;
      const CT nv = -s * u + c * v;
      u = nu;
      v = nv;
    }
    if (vt != nullptr && !(c == CT(1) && s == CT(0))) {
      if (batch.has_value()) {
        batch->push(GivensBatch<CT>::Side::Right, c1, c2, c, s);
      } else {
        acc_timer.timed([&] { apply_givens_rows(*vt, c1, c2, c, s); });
      }
    }
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
    if (ut != nullptr && !(c == CT(1) && s == CT(0))) {
      if (batch.has_value()) {
        batch->push(GivensBatch<CT>::Side::Left, r1, r2, c, s);
      } else {
        acc_timer.timed([&] { apply_givens_rows(*ut, r1, r2, c, s); });
      }
    }
    stats.rotations += 1.0;
  };

  if (bw >= 2) {
    for (index_t j = 0; j + 2 <= n - 1; ++j) {
      for (index_t dd = std::min(bw, n - 1 - j); dd >= 2; --dd) {
        // Right rotation of columns (c2-1, c2) annihilates (j, c2).
        index_t c2 = j + dd;
        {
          const auto [c, s] = detail::givens(b.at(j, c2 - 1), b.at(j, c2));
          const index_t ilo = std::max<index_t>(j, c2 - 1 - bw);
          const index_t ihi = std::min(n - 1, c2);
          rotate_cols(c2 - 1, c2, ilo, ihi, c, s);
        }
        // Chase the subdiagonal bulge at (r, r-1) down the band.
        index_t r = c2;
        while (r <= n - 1 && b.at(r, r - 1) != CT(0)) {
          {
            // Left rotation of rows (r-1, r) annihilates the bulge ...
            const auto [c, s] = detail::givens(b.at(r - 1, r - 1), b.at(r, r - 1));
            const index_t jhi = std::min(n - 1, r + bw);
            rotate_rows(r - 1, r, r - 1, jhi, c, s);
            b.at(r, r - 1) = CT(0);
          }
          const index_t q = r + bw;  // ... creating fill at (r-1, q)
          if (q > n - 1) break;
          {
            // Right rotation of columns (q-1, q) annihilates the fill ...
            const auto [c, s] = detail::givens(b.at(r - 1, q - 1), b.at(r - 1, q));
            const index_t ihi = std::min(n - 1, q);
            rotate_cols(q - 1, q, r - 1, ihi, c, s);
            b.at(r - 1, q) = CT(0);
          }
          r = q;  // ... creating the next subdiagonal bulge at (q, q-1)
        }
      }
    }
  }

  if (batch.has_value()) {
    batch->finish();
    stats.batch_flushes = static_cast<double>(batch->flushes());
  }

  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = b.at(i, i);
    if (i + 1 < n) e[static_cast<std::size_t>(i)] = b.at(i, i + 1);
  }
  return stats;
}

/// Back-compatible eager-mirroring entry point (the historic signature):
/// identical arithmetic, no rotation batching.
template <class CT>
ChaseStats band_to_bidiag(BandMatrix<CT>& b, std::vector<CT>& d, std::vector<CT>& e,
                          MatrixView<CT>* ut = nullptr,
                          MatrixView<CT>* vt = nullptr,
                          double* acc_seconds = nullptr) {
  Stage2Options<CT> opts;
  opts.ut = ut;
  opts.vt = vt;
  opts.acc_seconds = acc_seconds;
  return band_to_bidiag(b, d, e, opts);
}

}  // namespace unisvd::band
