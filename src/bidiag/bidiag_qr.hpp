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
/// Robustness: reduced-precision iteration can stagnate on strongly graded
/// spectra (observed in FP32 with clustered log-spaced values). When a
/// block exhausts its sweep budget, the solver falls back to Sturm
/// bisection on that block — an independent algorithm with guaranteed
/// convergence — so the routine always completes. With vectors requested,
/// the stagnated block is additionally re-iterated in double precision
/// with a larger budget to recover its rotations; the *values* still come
/// from bisection, keeping them bit-identical to the values-only path.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "bidiag/bisection.hpp"
#include "common/error.hpp"
#include "common/givens_rows.hpp"
#include "common/matrix.hpp"

namespace unisvd::bidiag {

namespace detail {

/// Sink that discards every rotation: the values-only fast path.
struct NullRotationSink {
  static constexpr bool kActive = false;
  static constexpr bool kAllowRescue = false;
  template <class S>
  void rotate_u(long, long, S, S) noexcept {}
  template <class S>
  void rotate_v(long, long, S, S) noexcept {}
  void negate_v(long) noexcept {}
};

/// Sink applying rotations to rows of the transposed accumulators Ut / Vt.
/// "Rotate U columns (j, i)" of the textbook formulation is exactly the
/// apply_givens_rows pair rotation on rows j, i of Ut (and likewise for V
/// on Vt).
template <class AT>
struct MatrixRotationSink {
  static constexpr bool kActive = true;
  static constexpr bool kAllowRescue = true;
  MatrixView<AT> ut;
  MatrixView<AT> vt;

  template <class S>
  void rotate_u(long r1, long r2, S c, S s) {
    apply_givens_rows(ut, r1, r2, c, s);
  }
  template <class S>
  void rotate_v(long r1, long r2, S c, S s) {
    apply_givens_rows(vt, r1, r2, c, s);
  }
  void negate_v(long r) {
    for (index_t j = 0; j < vt.cols(); ++j) {
      vt.at(r, j) = -vt.at(r, j);
    }
  }
};

/// Sink adapter shifting row indices by a block offset — used when the
/// double-precision stagnation rescue iterates a sub-block [l, k] whose
/// local indices must land on global accumulator rows. kAllowRescue is
/// false: the rescue itself runs with a 4x budget and settles for bisection
/// values if even double stagnates — no nested rescues (which would also
/// recurse at template-instantiation time).
template <class Base>
struct OffsetRotationSink {
  static constexpr bool kActive = true;
  static constexpr bool kAllowRescue = false;
  Base* base;
  long offset;

  template <class S>
  void rotate_u(long r1, long r2, S c, S s) {
    base->rotate_u(r1 + offset, r2 + offset, c, s);
  }
  template <class S>
  void rotate_v(long r1, long r2, S c, S s) {
    base->rotate_v(r1 + offset, r2 + offset, c, s);
  }
  void negate_v(long r) { base->negate_v(r + offset); }
};

constexpr int kMaxSweeps = 60;

/// The Golub-Reinsch iteration on w (diagonal) and rv1 (superdiagonal,
/// rv1[i] couples w[i-1] and w[i]; rv1[0] unused). On exit every w[i] is a
/// non-negative singular value (unsorted); rotations went to `sink`. The
/// stagnation rescue only compiles for sinks with kAllowRescue (the rescue
/// runs once, in double, and if it stagnates too settles for bisection
/// values).
template <class CT, class Sink>
void golub_reinsch_iterate(std::vector<CT>& w, std::vector<CT>& rv1, Sink& sink,
                           int max_sweeps) {
  const auto n = static_cast<long>(w.size());
  const CT eps = std::numeric_limits<CT>::epsilon();
  CT anorm = CT(0);
  for (long i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::abs(w[static_cast<std::size_t>(i)]) +
                                std::abs(rv1[static_cast<std::size_t>(i)]));
  }
  if (anorm == CT(0)) {
    std::fill(w.begin(), w.end(), CT(0));
    return;
  }

  const auto at = [](std::vector<CT>& a, long i) -> CT& {
    return a[static_cast<std::size_t>(i)];
  };

  for (long k = n - 1; k >= 0; --k) {
    bool converged = false;
    for (int its = 0; its < max_sweeps && !converged; ++its) {
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
        converged = true;
        break;
      }
      if (its == max_sweeps - 1) {
        // Stagnation: resolve the active block [l, k] by bisection (the
        // values stay bit-identical to the values-only path). With vectors
        // requested, additionally recover the block's rotations by
        // re-running the iteration on a double-precision copy with a 4x
        // budget — double converges where reduced precision stagnated —
        // then order the block's vectors descending to match the bisection
        // values assigned below.
        std::vector<double> bd;
        std::vector<double> be;
        for (long i = l; i <= k; ++i) {
          bd.push_back(static_cast<double>(at(w, i)));
          if (i > l) be.push_back(static_cast<double>(at(rv1, i)));
        }
        if constexpr (Sink::kAllowRescue) {
          {
            const auto bn = static_cast<std::size_t>(k - l + 1);
            std::vector<double> wd(bd);
            std::vector<double> rvd(bn, 0.0);
            for (std::size_t i = 1; i < bn; ++i) rvd[i] = be[i - 1];
            OffsetRotationSink<Sink> osink{&sink, l};
            // 4x budget with a floor: the rescue must get a real chance to
            // converge even when the caller's budget is tiny (tests pin
            // this path with max_sweeps == 1).
            golub_reinsch_iterate(wd, rvd, osink,
                                  std::max(4 * max_sweeps, 4 * kMaxSweeps));
            // Sort the rescued block descending (rows of Ut/Vt follow) so
            // vector i pairs with the i-th largest bisection value. Each
            // exchange is the rotation (c, s) = (0, 1) applied to BOTH
            // accumulators: it swaps the two rows and negates one of them
            // in U and V alike, leaving u_i * v_i^T — and the product
            // U diag(w) V^T — unchanged.
            std::vector<std::size_t> idx(bn);
            std::iota(idx.begin(), idx.end(), std::size_t{0});
            std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
              return wd[a] > wd[b];
            });
            for (std::size_t i = 0; i < bn; ++i) {
              std::size_t target = idx[i];
              while (target < i) target = idx[target];
              if (target == i) continue;
              std::swap(wd[i], wd[target]);
              sink.rotate_u(l + static_cast<long>(i), l + static_cast<long>(target),
                            0.0, 1.0);
              sink.rotate_v(l + static_cast<long>(i), l + static_cast<long>(target),
                            0.0, 1.0);
            }
          }
        }
        const auto vals = bidiag_svd_bisect(bd, be);  // descending
        for (long i = l; i <= k; ++i) {
          at(w, i) = static_cast<CT>(vals[static_cast<std::size_t>(i - l)]);
          at(rv1, i) = CT(0);
        }
        converged = true;
        break;
      }

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
}

}  // namespace detail

template <class CT>
std::vector<CT> bidiag_svd_qr(std::vector<CT> d, std::vector<CT> e) {
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
  detail::golub_reinsch_iterate(w, rv1, sink, detail::kMaxSweeps);

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
/// step with the values.
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

  detail::golub_reinsch_iterate(w, rv1, sink, detail::kMaxSweeps);

  for (long i = 0; i < n; ++i) {
    auto& v = w[static_cast<std::size_t>(i)];
    if (v < CT(0)) {  // defensive: the iteration leaves values non-negative
      v = -v;
      sink.negate_v(i);
    }
  }

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
