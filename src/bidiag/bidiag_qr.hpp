#pragma once
/// \file bidiag_qr.hpp
/// SVD Stage 3: singular values (and optionally singular vectors) of an
/// upper bidiagonal matrix by the Golub-Reinsch implicit-shift QR iteration
/// (the algorithm family behind LAPACK's bdsqr, which the paper delegates
/// to LAPACK).
///
/// Input: diagonal d (length n) and superdiagonal e (length n-1) in the
/// compute precision CT; output: singular values, descending.
///
/// The iteration is written once (detail::golub_reinsch_iterate) against a
/// *rotation sink*: the values-only entry point plugs in a no-op sink (the
/// compiler sees the same arithmetic on d/e as before, so values stay
/// bit-identical), while bidiag_svd_qr_vectors plugs in a sink that mirrors
/// every Givens rotation onto rows of the transposed factor accumulators
/// Ut / Vt (U = Ut^T).
///
/// Budget: like LAPACK's bdsqr, the iteration bounds its total work, not
/// each value's: it counts inner steps across the whole bidiagonal (an
/// implicit QR step on block [l, k] adds k - l) and stops before any step
/// that would pass kMaxIter * n^2. Graded spectra need many sweeps for
/// their bottom value but few per value on average, so a per-value cap
/// would stop them early. On exhaustion the values-only iteration settles
/// the unconverged leading part by Sturm bisection (bidiag_svd_bisect), an
/// independent algorithm with guaranteed convergence; the vector iteration
/// throws unisvd::Error, as bdsqr returns INFO > 0. QrStats reports the
/// sweeps and the bisected rows.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bidiag/bisection.hpp"
#include "common/error.hpp"
#include "common/givens_rows.hpp"
#include "common/matrix.hpp"

namespace unisvd::bidiag {

/// LAPACK's MAXITR: an n x n bidiagonal gets kMaxIter * n^2 inner steps in
/// total (see the file comment).
inline constexpr long kMaxIter = 6;

/// Inner-step budget of an n x n bidiagonal.
constexpr long step_budget(long n) noexcept { return kMaxIter * n * n; }

/// Numerical events of one values-only solve (reported on
/// SvdReport::qr_stats).
struct QrStats {
  index_t sweeps = 0;         ///< implicit QR steps, one chase of a block each
  index_t bisected_rows = 0;  ///< rows the exhausted budget left to bisection
};

namespace detail {

/// Sink that discards every rotation: the values-only fast path. The
/// iteration only calls a sink under `if constexpr (Sink::kActive)`.
struct NullRotationSink {
  static constexpr bool kActive = false;
};

/// Sink applying rotations to rows of the transposed accumulators Ut / Vt.
/// "Rotate U columns (j, i)" of the textbook formulation is exactly the
/// apply_givens_rows pair rotation on rows j, i of Ut (and likewise for V
/// on Vt).
template <class AT>
struct MatrixRotationSink {
  static constexpr bool kActive = true;
  MatrixView<AT> ut;
  MatrixView<AT> vt;

  void rotate_u(long r1, long r2, AT c, AT s) { apply_givens_rows(ut, r1, r2, c, s); }
  void rotate_v(long r1, long r2, AT c, AT s) { apply_givens_rows(vt, r1, r2, c, s); }
  void negate_v(long r) {
    for (index_t j = 0; j < vt.cols(); ++j) {
      vt.at(r, j) = -vt.at(r, j);
    }
  }
};

/// The values-only fallback of both iterations (this one and the fused
/// path's): overwrite the unconverged leading part w[0..k] with its
/// singular values from Sturm bisection and zero its couplings, so every
/// remaining position reads as converged.
template <class CT>
void bisect_leading(CT* w, CT* rv1, long k) {
  const auto len = static_cast<std::size_t>(k + 1);
  const std::vector<double> bd(w, w + len);
  const std::vector<double> be(rv1 + 1, rv1 + len);
  const auto vals = bidiag_svd_bisect(bd, be);  // descending
  for (std::size_t i = 0; i < len; ++i) {
    w[i] = static_cast<CT>(vals[i]);
    rv1[i] = CT(0);
  }
}

/// The Golub-Reinsch iteration on w (diagonal) and rv1 (superdiagonal,
/// rv1[i] couples w[i-1] and w[i]; rv1[0] unused), within `max_steps`
/// inner steps in total. The entry points pass step_budget(n); tests pass
/// less to reach exhaustion. On exit every w[i] is a non-negative singular
/// value (unsorted); rotations went to `sink`.
template <class CT, class Sink>
QrStats golub_reinsch_iterate(std::vector<CT>& w, std::vector<CT>& rv1, Sink& sink,
                              long max_steps) {
  const auto n = static_cast<long>(w.size());
  const CT eps = std::numeric_limits<CT>::epsilon();
  QrStats stats;
  CT anorm = CT(0);
  for (long i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::abs(w[static_cast<std::size_t>(i)]) +
                                std::abs(rv1[static_cast<std::size_t>(i)]));
  }
  if (anorm == CT(0)) {
    std::fill(w.begin(), w.end(), CT(0));
    return stats;
  }

  const auto at = [](std::vector<CT>& a, long i) -> CT& {
    return a[static_cast<std::size_t>(i)];
  };

  long steps = 0;
  for (long k = n - 1; k >= 0; --k) {
    for (;;) {
      bool flag = true;  // true: a negligible diagonal requires cancellation
      long l = k;
      for (; l >= 0; --l) {
        if (l == 0 || std::abs(at(rv1, l)) <= eps * anorm) {
          flag = false;
          break;
        }
        if (std::abs(at(w, l - 1)) <= eps * anorm) break;
      }
      if (flag) {
        // w[l-1] ~ 0 but rv1[l] != 0: rotate rv1[l..k] away (Givens from the
        // left against the negligible diagonal).
        CT c = CT(0);
        CT s = CT(1);
        for (long i = l; i <= k; ++i) {
          const CT f = s * at(rv1, i);
          at(rv1, i) = c * at(rv1, i);
          if (std::abs(f) <= eps * anorm) break;
          const CT g = at(w, i);
          const CT h = std::hypot(f, g);
          at(w, i) = h;
          const CT inv = CT(1) / h;
          c = g * inv;
          s = -f * inv;
          if constexpr (Sink::kActive) sink.rotate_u(l - 1, i, c, s);
        }
      }
      const CT z = at(w, k);
      if (l == k) {  // block of size 1: converged
        if (z < CT(0)) {
          at(w, k) = -z;
          if constexpr (Sink::kActive) sink.negate_v(k);
        }
        break;
      }
      if (steps + (k - l) > max_steps) {
        if constexpr (Sink::kActive) {
          throw Error("bidiag QR: no convergence within " + std::to_string(max_steps) +
                      " inner steps");
        } else {
          bisect_leading(w.data(), rv1.data(), k);
          stats.bisected_rows = k + 1;
          break;
        }
      }
      steps += k - l;
      ++stats.sweeps;

      // Implicit QR step on [l, k] with Wilkinson-style shift from the
      // trailing 2x2 of B^T B.
      CT x = at(w, l);
      const long nm = k - 1;
      CT y = at(w, nm);
      CT g = at(rv1, nm);
      CT h = at(rv1, k);
      CT f = ((y - z) * (y + z) + (g - h) * (g + h)) / (CT(2) * h * y);
      g = std::hypot(f, CT(1));
      const CT gs = (f >= CT(0)) ? std::abs(g) : -std::abs(g);
      f = ((x - z) * (x + z) + h * ((y / (f + gs)) - h)) / x;
      CT c = CT(1);
      CT s = CT(1);
      for (long j = l; j <= nm; ++j) {
        const long i = j + 1;
        g = at(rv1, i);
        y = at(w, i);
        h = s * g;
        g = c * g;
        CT zz = std::hypot(f, h);
        at(rv1, j) = zz;
        c = f / zz;
        s = h / zz;
        f = x * c + g * s;
        g = g * c - x * s;
        h = y * s;
        y *= c;
        if constexpr (Sink::kActive) sink.rotate_v(j, i, c, s);
        zz = std::hypot(f, h);
        at(w, j) = zz;
        if (zz != CT(0)) {
          const CT inv = CT(1) / zz;
          c = f * inv;
          s = h * inv;
        }
        f = c * g + s * y;
        x = c * y - s * g;
        if constexpr (Sink::kActive) sink.rotate_u(j, i, c, s);
      }
      at(rv1, l) = CT(0);
      at(rv1, k) = f;
      at(w, k) = x;
    }
  }
  return stats;
}

}  // namespace detail

/// Singular values, descending; `stats`, when given, receives the
/// iteration's events.
template <class CT>
std::vector<CT> bidiag_svd_qr(std::vector<CT> d, std::vector<CT> e,
                              QrStats* stats = nullptr) {
  const auto n = static_cast<long>(d.size());
  UNISVD_REQUIRE(n >= 1, "bidiag_svd_qr: empty input");
  UNISVD_REQUIRE(e.size() + 1 == d.size(), "bidiag_svd_qr: e must have length n-1");
  if (n == 1) {
    d[0] = std::abs(d[0]);
    return d;
  }

  // Internal layout follows the classic Golub-Reinsch formulation:
  // rv1[i] couples w[i-1] and w[i]; rv1[0] is unused.
  std::vector<CT>& w = d;
  std::vector<CT> rv1(static_cast<std::size_t>(n), CT(0));
  for (long i = 1; i < n; ++i) rv1[static_cast<std::size_t>(i)] = e[static_cast<std::size_t>(i - 1)];

  detail::NullRotationSink sink;
  const QrStats st = detail::golub_reinsch_iterate(w, rv1, sink, step_budget(n));
  if (stats != nullptr) *stats = st;

  for (auto& v : w) v = std::abs(v);
  std::sort(w.begin(), w.end(), std::greater<CT>());
  return w;
}

/// Stage 3 with singular-vector accumulation. Same d/e arithmetic as
/// bidiag_svd_qr — the returned values are bit-identical — with every
/// rotation mirrored onto rows of `ut` / `vt` (transposed accumulators,
/// rows = vectors; only the first n rows are touched, so they may be larger
/// than the bidiagonal, as D&C's right factor with its null row is). The
/// final descending sort permutes the first n rows of both accumulators in
/// step with the values. Throws unisvd::Error where bidiag_svd_qr would
/// fall back to bisection: the step budget ran out.
template <class CT>
std::vector<CT> bidiag_svd_qr_vectors(std::vector<CT> d, std::vector<CT> e,
                                      MatrixView<CT> ut, MatrixView<CT> vt) {
  const auto n = static_cast<long>(d.size());
  UNISVD_REQUIRE(n >= 1, "bidiag_svd_qr_vectors: empty input");
  UNISVD_REQUIRE(e.size() + 1 == d.size(),
                 "bidiag_svd_qr_vectors: e must have length n-1");
  UNISVD_REQUIRE(ut.rows() >= n && vt.rows() >= n,
                 "bidiag_svd_qr_vectors: accumulators must cover n rows");
  detail::MatrixRotationSink<CT> sink{ut, vt};
  if (n == 1) {
    if (d[0] < CT(0)) {
      d[0] = -d[0];
      sink.negate_v(0);
    }
    return d;
  }

  std::vector<CT>& w = d;
  std::vector<CT> rv1(static_cast<std::size_t>(n), CT(0));
  for (long i = 1; i < n; ++i) rv1[static_cast<std::size_t>(i)] = e[static_cast<std::size_t>(i - 1)];

  detail::golub_reinsch_iterate(w, rv1, sink, step_budget(n));

  // Descending sort with the permutation applied to the accumulator rows.
  // stable_sort on indices yields the same value sequence as the values-only
  // std::sort (same multiset, descending), keeping values bit-identical.
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return w[a] > w[b];
  });
  std::vector<CT> sorted(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < idx.size(); ++i) sorted[i] = w[idx[i]];
  w = std::move(sorted);

  const auto permute_rows = [&](MatrixView<CT> m) {
    std::vector<CT> tmp(static_cast<std::size_t>(n));
    for (index_t j = 0; j < m.cols(); ++j) {
      for (std::size_t i = 0; i < idx.size(); ++i) {
        tmp[i] = m.at(static_cast<index_t>(idx[i]), j);
      }
      for (std::size_t i = 0; i < idx.size(); ++i) {
        m.at(static_cast<index_t>(i), j) = tmp[i];
      }
    }
  };
  permute_rows(ut);
  permute_rows(vt);
  return w;
}

}  // namespace unisvd::bidiag
