#include "small/small_svd.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "bidiag/bidiag_qr.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "small/jacobi_kernel.hpp"

namespace unisvd::smallsvd {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Stack-first working storage: problems up to 64 x 64 elements live in a
/// fixed std::array on the stack (the "register/stack-resident" working set
/// of the fused kernel); a tall input whose m * n overflows the capacity
/// falls back to one heap block. Either way the buffer is acquired once —
/// there is no per-stage allocation churn on this path.
template <class CT>
class Buffer {
 public:
  static constexpr std::size_t kStackElems = std::size_t{64} * 64;

  [[nodiscard]] CT* acquire(std::size_t elems) {
    if (elems <= kStackElems) return stack_.data();
    heap_.resize(elems);
    return heap_.data();
  }

 private:
  std::array<CT, kStackElems> stack_;
  std::vector<CT> heap_;
};

/// Fill the columns listed in `pending` (in order) with a deterministic
/// orthonormal completion of the columns in `filled`: each slot takes the
/// first canonical basis vector whose component orthogonal to everything
/// placed so far survives two modified-Gram-Schmidt passes with norm above
/// 1/4. The zero-sigma columns of a rank-deficient input and the Full-job
/// columns [n, m) land here; the result is orthonormal to working accuracy
/// and identical on every run (no randomness).
void complete_columns(Matrix<double>& u, std::vector<index_t> filled,
                      const std::vector<index_t>& pending) {
  const index_t m = u.rows();
  std::vector<double> w(static_cast<std::size_t>(m));
  for (const index_t col : pending) {
    double accept = 0.25;
    index_t cand = 0;
    for (;;) {
      if (cand >= m) {
        // Exhausted the basis at the strict threshold: mathematically at
        // most |filled| < m candidates can fail it, but guard the loop by
        // relaxing once rather than spinning.
        UNISVD_REQUIRE(accept > 1e-8,
                       "small_svd: orthonormal completion exhausted the basis");
        accept = 1e-8;
        cand = 0;
      }
      std::fill(w.begin(), w.end(), 0.0);
      w[static_cast<std::size_t>(cand)] = 1.0;
      ++cand;
      for (int pass = 0; pass < 2; ++pass) {
        for (const index_t f : filled) {
          double dot = 0.0;
          for (index_t r = 0; r < m; ++r) dot += w[static_cast<std::size_t>(r)] * u(r, f);
          for (index_t r = 0; r < m; ++r) w[static_cast<std::size_t>(r)] -= dot * u(r, f);
        }
      }
      double nrm = 0.0;
      for (index_t r = 0; r < m; ++r) {
        nrm += w[static_cast<std::size_t>(r)] * w[static_cast<std::size_t>(r)];
      }
      nrm = std::sqrt(nrm);
      if (nrm > accept) {
        for (index_t r = 0; r < m; ++r) u(r, col) = w[static_cast<std::size_t>(r)] / nrm;
        filled.push_back(col);
        break;
      }
    }
  }
}

// unisvd-lint: begin-kernel(small-svd-fused)
// The stack-resident compute core: bidiagonalization, 2x2 closure and the
// implicit-shift QR chase. Everything until end-kernel works in caller
// scratch (Buffer above) and must stay allocation-free — unisvd_lint.py
// rule kernel-alloc fails the build on any heap use introduced here.

/// In-place Householder (Golub-Kahan) bidiagonalization of the column-major
/// buffer g (m x n, ld = m, m >= n): d gets the diagonal, e the
/// superdiagonal (length n-1). Reflector norms accumulate in double; the
/// bulk dot/axpy updates run in CT over four independent partial chains so
/// the trailing-update loops pipeline/vectorize instead of serializing on
/// one accumulator. `vrow` and `dotbuf` are caller scratch (>= n and >= m).
template <class CT>
void bidiagonalize_small(CT* g, index_t m, index_t n, CT* d, CT* e, CT* vrow,
                         CT* dotbuf) noexcept {
  for (index_t k = 0; k < n; ++k) {
    CT* ck = g + k * m;
    {  // Left reflector: zero ck[k+1..m).
      const index_t len = m - k;
      double nrm2 = 0.0;
      for (index_t i = 1; i < len; ++i) {
        nrm2 += static_cast<double>(ck[k + i]) * static_cast<double>(ck[k + i]);
      }
      CT tau = CT(0);
      if (nrm2 != 0.0) {
        const double alpha = static_cast<double>(ck[k]);
        const double r = std::sqrt(alpha * alpha + nrm2);
        const double beta = alpha >= 0.0 ? -r : r;
        tau = static_cast<CT>((beta - alpha) / beta);
        const CT inv = static_cast<CT>(1.0 / (alpha - beta));
        for (index_t i = 1; i < len; ++i) ck[k + i] *= inv;
        ck[k] = static_cast<CT>(beta);
      }
      d[k] = ck[k];
      if (tau != CT(0)) {
        // Distinct columns of g never alias; __restrict drops the runtime
        // overlap checks GCC otherwise plants ahead of these short loops.
        const CT* __restrict ckv = ck;
        for (index_t j = k + 1; j < n; ++j) {
          CT* __restrict cj = g + j * m;
          CT s0 = cj[k];  // v[0] == 1
          CT s1 = CT(0);
          CT s2 = CT(0);
          CT s3 = CT(0);
          index_t i = k + 1;
          for (; i + 4 <= m; i += 4) {
            s0 += ckv[i] * cj[i];
            s1 += ckv[i + 1] * cj[i + 1];
            s2 += ckv[i + 2] * cj[i + 2];
            s3 += ckv[i + 3] * cj[i + 3];
          }
          for (; i < m; ++i) s0 += ckv[i] * cj[i];
          const CT f = tau * ((s0 + s1) + (s2 + s3));
          cj[k] -= f;
          for (i = k + 1; i < m; ++i) cj[i] -= f * ckv[i];
        }
      }
    }
    if (k + 1 >= n) continue;
    {  // Right reflector: zero row k beyond the superdiagonal. The row is
      // strided in the column-major buffer, so stage it into vrow.
      const index_t rlen = n - k - 1;
      for (index_t j = 0; j < rlen; ++j) vrow[j] = g[k + (k + 1 + j) * m];
      CT tau = CT(0);
      if (rlen > 1) {
        double nrm2 = 0.0;
        for (index_t j = 1; j < rlen; ++j) {
          nrm2 += static_cast<double>(vrow[j]) * static_cast<double>(vrow[j]);
        }
        if (nrm2 != 0.0) {
          const double alpha = static_cast<double>(vrow[0]);
          const double r = std::sqrt(alpha * alpha + nrm2);
          const double beta = alpha >= 0.0 ? -r : r;
          tau = static_cast<CT>((beta - alpha) / beta);
          const CT inv = static_cast<CT>(1.0 / (alpha - beta));
          for (index_t j = 1; j < rlen; ++j) vrow[j] *= inv;
          vrow[0] = static_cast<CT>(beta);
        }
      }
      e[k] = vrow[0];
      for (index_t j = 0; j < rlen; ++j) g[k + (k + 1 + j) * m] = vrow[j];
      if (tau != CT(0)) {
        // Apply (I - tau v v^T) from the right to rows k+1..m: accumulate
        // the per-row dots column by column (unit stride), then the rank-1
        // update the same way.
        const index_t rows = m - k - 1;
        CT* __restrict db = dotbuf;  // scratch, never aliases g's columns
        CT* __restrict c0 = g + (k + 1) * m + k + 1;
        for (index_t i = 0; i < rows; ++i) db[i] = c0[i];  // v[0] == 1
        for (index_t j = 1; j < rlen; ++j) {
          const CT vj = vrow[j];
          const CT* __restrict cj = g + (k + 1 + j) * m + k + 1;
          for (index_t i = 0; i < rows; ++i) db[i] += cj[i] * vj;
        }
        for (index_t i = 0; i < rows; ++i) {
          const CT t = tau * db[i];
          db[i] = t;
          c0[i] -= t;
        }
        for (index_t j = 1; j < rlen; ++j) {
          const CT vj = vrow[j];
          CT* __restrict cj = g + (k + 1 + j) * m + k + 1;
          for (index_t i = 0; i < rows; ++i) cj[i] -= db[i] * vj;
        }
      }
    }
  }
}

/// Singular values of the 2x2 upper bidiagonal [[f, g], [0, h]] by the
/// LAPACK las2 formulas: branch on the dominant magnitude so every
/// intermediate stays O(1) — no overflow, full relative accuracy. Closing
/// out 2x2 blocks in one shot removes the QR chase's convergence tail,
/// which is pure serial sqrt/divide latency.
template <class CT>
void svd_2x2_values(CT f, CT g, CT h, CT& ssmin, CT& ssmax) noexcept {
  const CT fa = std::abs(f);
  const CT ga = std::abs(g);
  const CT ha = std::abs(h);
  const CT fhmn = std::min(fa, ha);
  const CT fhmx = std::max(fa, ha);
  if (fhmn == CT(0)) {
    ssmin = CT(0);
    if (fhmx == CT(0)) {
      ssmax = ga;
    } else {
      const CT mn = std::min(fhmx, ga);
      const CT mx = std::max(fhmx, ga);
      const CT r = mn / mx;
      ssmax = mx * std::sqrt(CT(1) + r * r);
    }
    return;
  }
  if (ga < fhmx) {
    const CT as = CT(1) + fhmn / fhmx;
    const CT at = (fhmx - fhmn) / fhmx;
    const CT au = (ga / fhmx) * (ga / fhmx);
    const CT c = CT(2) / (std::sqrt(as * as + au) + std::sqrt(at * at + au));
    ssmin = fhmn * c;
    ssmax = fhmx / c;
  } else {
    const CT au = fhmx / ga;
    if (au == CT(0)) {
      // ga overwhelms: the product would underflow its way through zero.
      ssmin = (fhmn * fhmx) / ga;
      ssmax = ga;
    } else {
      const CT as = CT(1) + fhmn / fhmx;
      const CT at = (fhmx - fhmn) / fhmx;
      const CT asu = as * au;
      const CT atu = at * au;
      const CT c = CT(1) / (std::sqrt(CT(1) + asu * asu) + std::sqrt(CT(1) + atu * atu));
      ssmin = ((fhmn * c) * au) * CT(2);
      ssmax = ga / (c + c);
    }
  }
}

/// Golub-Reinsch implicit-shift QR on the bidiagonal (w = diagonal, rv1[i]
/// couples w[i-1] and w[i], rv1[0] unused), values only, in compute
/// precision. This is the fused path's lean sibling of
/// bidiag::golub_reinsch_iterate, tuned for the tiny-problem regime where
/// the chase is a serial latency chain:
///
///   * the whole bidiagonal is prescaled by 1/anorm, so plain
///     sqrt(f^2 + h^2) replaces std::hypot (no overflow left to guard) and
///     each Givens pair costs ONE reciprocal instead of two divides;
///   * a block that shrinks to 2x2 closes in one svd_2x2_values call
///     instead of iterating its tail away;
///   * it shares the pipeline's total budget of bidiag::step_budget(n)
///     inner steps and its one fallback: an exhausted budget leaves the
///     unconverged leading part to Sturm bisection (bidiag::detail::
///     bisect_leading).
///
/// On exit w holds the unsorted non-negative singular values; `stats`
/// receives the sweeps and bisected rows.
template <class CT>
void gr_values_small(CT* w, CT* rv1, index_t n, bidiag::QrStats& stats) {
  const CT eps = CT(16) * std::numeric_limits<CT>::epsilon();
  CT anorm = CT(0);
  for (index_t i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::abs(w[i]) + std::abs(rv1[i]));
  }
  if (anorm == CT(0)) {
    std::fill(w, w + n, CT(0));
    return;
  }
  const CT prescale = CT(1) / anorm;
  for (index_t i = 0; i < n; ++i) {
    w[i] *= prescale;
    rv1[i] *= prescale;
  }
  const long budget = bidiag::step_budget(n);
  long steps = 0;
  for (index_t k = n - 1; k >= 0; --k) {
    for (;;) {
      bool flag = true;  // true: negligible diagonal needs cancellation
      index_t l = k;
      for (; l >= 0; --l) {
        if (l == 0 || std::abs(rv1[l]) <= eps) {
          flag = false;
          break;
        }
        if (std::abs(w[l - 1]) <= eps) break;
      }
      if (flag) {
        // w[l-1] ~ 0 but rv1[l] != 0: rotate the couplings away.
        CT c = CT(0);
        CT s = CT(1);
        for (index_t i = l; i <= k; ++i) {
          const CT f = s * rv1[i];
          rv1[i] = c * rv1[i];
          if (std::abs(f) <= eps) break;
          const CT g = w[i];
          const CT h = std::sqrt(f * f + g * g);
          w[i] = h;
          const CT inv = CT(1) / h;
          c = g * inv;
          s = -f * inv;
        }
      }
      const CT z = w[k];
      if (l == k) {  // 1x1 block: converged
        if (z < CT(0)) w[k] = -z;
        break;
      }
      if (l == k - 1) {  // 2x2 block: closed form, done
        svd_2x2_values(w[l], rv1[k], w[k], w[k], w[l]);
        rv1[k] = CT(0);
        break;
      }
      if (steps + (k - l) > budget) {
        // unisvd-lint: begin-allow(kernel-alloc) cold fallback, entered only
        // when the whole solve exhausts its step budget — never on the hot
        // path; it allocates because bidiag_svd_bisect takes vectors.
        bidiag::detail::bisect_leading(w, rv1, k);
        // unisvd-lint: end-allow
        stats.bisected_rows = k + 1;
        break;
      }
      steps += k - l;
      ++stats.sweeps;

      // Implicit QR step on [l, k], Wilkinson-style shift from the trailing
      // 2x2 of B^T B. The chase is a serial latency chain — every position
      // waits on the previous Givens pair — so the body is restructured to
      // propagate UNNORMALIZED rotation products: with u, v, p, wt the
      // cross terms of the textbook update, the second rotation comes out
      // as c2 = u*r2, s2 = p*r2 with r2 = 1/sqrt(u^2 + p^2), and the
      // carried (f, x) fold both normalizations into one late multiply.
      // The two reciprocal square roots then depend only on (f, h) — not on
      // each other — and issue in parallel, roughly halving the carried
      // latency. The arithmetic is algebraically identical to the classic
      // normalized form (same rotations, same lengths), with everything
      // O(1) under the 1/anorm prescale.
      CT x = w[l];
      const index_t nm = k - 1;
      CT y = w[nm];
      CT g = rv1[nm];
      CT h = rv1[k];
      CT f = ((y - z) * (y + z) + (g - h) * (g + h)) / (CT(2) * h * y);
      g = std::sqrt(f * f + CT(1));
      const CT gs = (f >= CT(0)) ? std::abs(g) : -std::abs(g);
      f = ((x - z) * (x + z) + h * ((y / (f + gs)) - h)) / x;
      CT c = CT(1);
      CT s = CT(1);
      for (index_t j = l; j <= nm; ++j) {
        const index_t i = j + 1;
        const CT gl = rv1[i];
        const CT yl = w[i];
        h = s * gl;
        g = c * gl;
        const CT t1 = f * f + h * h;
        const CT inv1 = CT(1) / std::sqrt(t1);
        rv1[j] = t1 * inv1;
        const CT u = x * f + g * h;   // zz1 * f_mid
        const CT v = g * f - x * h;   // zz1 * g_mid
        const CT p = yl * h;          // zz1 * h_mid
        const CT wt = yl * f;         // zz1 * y_mid
        const CT q = u * u + p * p;
        if (q != CT(0)) {
          const CT r2 = CT(1) / std::sqrt(q);
          const CT nrm = inv1 * r2;
          w[j] = (q * r2) * inv1;
          c = u * r2;
          s = p * r2;
          f = (u * v + p * wt) * nrm;
          x = (u * wt - p * v) * nrm;
        } else {
          // Fully cancelled pair: keep the first rotation (the classic
          // code's zz == 0 branch) and carry the normalized update.
          w[j] = CT(0);
          c = f * inv1;
          s = h * inv1;
          const CT gm = v * inv1;
          const CT ym = wt * inv1;
          f = c * gm + s * ym;
          x = c * ym - s * gm;
        }
      }
      rv1[l] = CT(0);
      rv1[k] = f;
      w[k] = x;
    }
  }
  for (index_t i = 0; i < n; ++i) w[i] = std::abs(w[i]) * anorm;
}
// unisvd-lint: end-kernel

}  // namespace

template <class T>
SvdReport small_svd_solve(ConstMatrixView<T> a, const SvdConfig& config) {
  using CT = compute_t<T>;
  const auto t0 = std::chrono::steady_clock::now();

  SvdReport rep;
  rep.small_path = true;

  // Tall orientation, like the pipeline: sigma(A) == sigma(A^T) and the
  // factors swap roles at extraction (A = at^T  =>  A's U = V_t).
  const bool wide = a.rows() < a.cols();
  const ConstMatrixView<T> at = wide ? a.transposed() : a;
  const index_t m = at.rows();
  const index_t n = at.cols();
  rep.padded_n = n;  // no tile padding on this path: working extent IS min(m, n)

  const bool want_vectors = config.job != SvdJob::ValuesOnly;
  const bool full = config.job == SvdJob::Full;

  // Load G <- A_tall once, in compute precision, column-major at native
  // extent (ld = m, no padding). The auto_scale magnitude scan then runs
  // over this CONTIGUOUS buffer instead of a second strided pass through
  // the view — casting T to compute precision is exact for every supported
  // pairing, so the maximum matches ref::max_abs(a) and the divisor rule
  // below is ref::auto_scale_divisor verbatim.
  Buffer<CT> gbuf;
  const std::size_t elems =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  CT* g = gbuf.acquire(elems);
  for (index_t j = 0; j < n; ++j) {
    CT* col = g + j * m;
    for (index_t i = 0; i < m; ++i) col[i] = static_cast<CT>(at.at(i, j));
  }
  if (config.auto_scale) {
    CT mx = CT(0);
    for (std::size_t i = 0; i < elems; ++i) mx = std::max(mx, std::abs(g[i]));
    const auto amax = static_cast<double>(mx);
    rep.scale_factor = amax > 0.0 && (amax > 4.0 || amax < 0.25) ? amax : 1.0;
    if (rep.scale_factor != 1.0) {
      // Scale by the reciprocal when normal (one multiply per element
      // instead of a divide); an extreme divisor whose reciprocal would
      // denormalize keeps the exact division.
      const auto s = static_cast<CT>(rep.scale_factor);
      const auto inv_s = static_cast<CT>(1.0 / rep.scale_factor);
      if (std::isnormal(inv_s)) {
        for (std::size_t i = 0; i < elems; ++i) g[i] *= inv_s;
      } else {
        for (std::size_t i = 0; i < elems; ++i) g[i] /= s;
      }
    }
  }

  if (!want_vectors) {
    // Values-only jobs take the fused Golub-Kahan route: bidiagonalize the
    // stack buffer in place, then run the lean implicit-QR chase on the
    // n-length diagonal pair. At ~8n^3/3 flops this is several times
    // cheaper than sweeping Jacobi rotations to convergence, which is what
    // the tiny-batch throughput gate is won on; the one-sided Jacobi kernel
    // below stays the vector path, where its one-pass U/Sigma/V is the
    // point. Values agree across the two within the accuracy gates (both
    // are backward-stable to a few ulps of sigma_1).
    Buffer<CT> wbuf;
    CT* ws = wbuf.acquire(static_cast<std::size_t>(3 * n + m));
    CT* d = ws;          // diagonal, then the unsorted values
    CT* e = ws + n;      // superdiagonal (length n-1)
    CT* rv1 = ws + 2 * n;  // doubles as the right-reflector staging row
    CT* dotbuf = ws + 3 * n;
    bidiagonalize_small(g, m, n, d, e, rv1, dotbuf);
    rv1[0] = CT(0);
    for (index_t i = 1; i < n; ++i) rv1[i] = e[i - 1];
    gr_values_small(d, rv1, n, rep.qr_stats);
    std::sort(d, d + n, std::greater<CT>());
    rep.values.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      rep.values[static_cast<std::size_t>(i)] =
          static_cast<double>(d[i]) * rep.scale_factor;
    }
    rep.stage_times.add(ka::Stage::FusedSmall, seconds_since(t0));
    return rep;
  }

  // Right-rotation accumulator V (identity-seeded) only when the job wants
  // vectors. V never feeds back into the rotation decisions, so the G sweep
  // — and with it the values — is bit-identical across jobs.
  Buffer<CT> vbuf;
  CT* v = nullptr;
  if (want_vectors) {
    v = vbuf.acquire(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    std::fill(v, v + n * n, CT(0));
    for (index_t i = 0; i < n; ++i) v[i + i * n] = CT(1);
  }

  // Sweep the round-robin tournament until no pair rotates. The threshold
  // scales with the COMPUTE epsilon: the float path stops where float
  // arithmetic stops improving instead of spinning on the double oracle's
  // 1e-14.
  const double tol = 16.0 * static_cast<double>(std::numeric_limits<CT>::epsilon());
  constexpr int kMaxJacobiSweeps = 60;
  Tournament tour(n);
  // Cached squared column norms: each pair probe then costs one cross dot
  // (rotate_pair_cached) instead of the three-measure Gram pass. Refreshed
  // from G at every sweep start so closed-form update drift never
  // accumulates past a sweep.
  std::vector<double> norm_sq(static_cast<std::size_t>(n));
  bool converged = false;
  for (int sweep = 0; sweep < kMaxJacobiSweeps && !converged; ++sweep) {
    for (index_t j = 0; j < n; ++j) {
      norm_sq[static_cast<std::size_t>(j)] = norm_sq_column<CT>(g + j * m, m);
    }
    bool any = false;
    tour.reset();
    for (index_t round = 0; round < tour.rounds(); ++round) {
      for (index_t r = 0; r < tour.pairs_per_round(); ++r) {
        const auto [p, q] = tour.pair(r);
        if (p < 0) continue;  // bye slot of an odd column count
        const bool rotated = rotate_pair_cached<CT>(
            g + p * m, g + q * m, m, norm_sq[static_cast<std::size_t>(p)],
            norm_sq[static_cast<std::size_t>(q)],
            v != nullptr ? v + p * n : nullptr,
            v != nullptr ? v + q * n : nullptr, n, tol);
        any = any || rotated;
      }
      tour.advance();
    }
    converged = !any;
  }

  // Values: column norms of the rotated G, accumulated in double, sorted
  // descending with a stable order index so equal values (and their
  // vectors) come out deterministically.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const CT* col = g + j * m;
    double ss = 0.0;
    for (index_t i = 0; i < m; ++i) {
      const double x = static_cast<double>(col[i]);
      ss += x * x;
    }
    sigma[static_cast<std::size_t>(j)] = std::sqrt(ss);
  }
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
    return sigma[static_cast<std::size_t>(x)] > sigma[static_cast<std::size_t>(y)];
  });
  rep.values.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    rep.values[static_cast<std::size_t>(i)] =
        sigma[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] *
        rep.scale_factor;
  }

  if (want_vectors) {
    // Tall-orientation factors: V^T rows are the sigma-sorted V columns;
    // U's nonzero-sigma columns are the normalized rotated G columns, and
    // zero-sigma slots plus the Full columns [n, m) take the deterministic
    // orthonormal completion.
    Matrix<double> vt_t(n, n);
    for (index_t i = 0; i < n; ++i) {
      const CT* vc = v + order[static_cast<std::size_t>(i)] * n;
      for (index_t j = 0; j < n; ++j) {
        vt_t(i, j) = static_cast<double>(vc[j]);
      }
    }

    const index_t ucols = full ? m : n;
    Matrix<double> u_t(m, ucols, 0.0);
    std::vector<index_t> filled;
    std::vector<index_t> pending;
    for (index_t i = 0; i < n; ++i) {
      const index_t src = order[static_cast<std::size_t>(i)];
      const double sig = sigma[static_cast<std::size_t>(src)];
      if (sig > 0.0) {
        const CT* col = g + src * m;
        for (index_t r = 0; r < m; ++r) {
          u_t(r, i) = static_cast<double>(col[r]) / sig;
        }
        filled.push_back(i);
      } else {
        pending.push_back(i);
      }
    }
    for (index_t i = n; i < ucols; ++i) pending.push_back(i);
    complete_columns(u_t, std::move(filled), pending);

    if (!wide) {
      rep.u = std::move(u_t);
      rep.vt = std::move(vt_t);
    } else {
      // A = at^T: A's U is V_t (n x n — Thin and Full coincide, min(m, n)
      // equals A's row count) and A's V^T is U_t^T (ucols x m).
      rep.u = Matrix<double>(n, n);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) {
          rep.u(i, j) = vt_t(j, i);
        }
      }
      rep.vt = Matrix<double>(ucols, m);
      for (index_t j = 0; j < m; ++j) {
        for (index_t i = 0; i < ucols; ++i) {
          rep.vt(i, j) = u_t(j, i);
        }
      }
    }
  }

  rep.stage_times.add(ka::Stage::FusedSmall, seconds_since(t0));
  return rep;
}

template SvdReport small_svd_solve<Half>(ConstMatrixView<Half>, const SvdConfig&);
template SvdReport small_svd_solve<float>(ConstMatrixView<float>, const SvdConfig&);
template SvdReport small_svd_solve<double>(ConstMatrixView<double>, const SvdConfig&);

}  // namespace unisvd::smallsvd
