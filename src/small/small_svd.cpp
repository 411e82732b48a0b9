#include "small/small_svd.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "bidiag/bidiag_qr.hpp"
#include "common/half.hpp"
#include "common/linalg_ref.hpp"

namespace unisvd::smallsvd {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Stack-first working storage: problems up to 64 x 64 elements live in a
/// fixed std::array on the stack (the "register/stack-resident" working set
/// of the fused kernel); a buffer that overflows the capacity (a tall
/// input's m x n, a Full U's m x m) falls back to one heap block. Either
/// way each buffer is acquired once — there is no per-stage allocation
/// churn on this path.
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

// unisvd-lint: begin-kernel(small-svd-fused)
// The stack-resident compute core: bidiagonalization, the formation of Q
// and P from its reflectors, and the values-only implicit-shift QR chase.
// Everything until end-kernel works in caller scratch (Buffer above) and
// must stay allocation-free — unisvd_lint.py rule kernel-alloc fails the
// build on any heap use introduced here.

/// Apply H = I - tau v v^T from the left to rows [k, rows) of columns
/// [c0, c1) of the column-major buffer g (leading dimension ld). v is read
/// from rows (k, rows) of the column `v` (indexed by row), with v[k] == 1
/// implicit. The dots run in CT over four independent partial chains so
/// the loops pipeline/vectorize instead of serializing on one accumulator.
template <class CT>
void reflect_columns(const CT* v, CT tau, CT* g, index_t ld, index_t rows, index_t k,
                     index_t c0, index_t c1) noexcept {
  // Distinct columns of g never alias; __restrict drops the runtime
  // overlap checks GCC otherwise plants ahead of these short loops.
  const CT* __restrict vk = v;
  for (index_t j = c0; j < c1; ++j) {
    CT* __restrict cj = g + j * ld;
    CT s0 = cj[k];  // v[k] == 1
    CT s1 = CT(0);
    CT s2 = CT(0);
    CT s3 = CT(0);
    index_t i = k + 1;
    for (; i + 4 <= rows; i += 4) {
      s0 += vk[i] * cj[i];
      s1 += vk[i + 1] * cj[i + 1];
      s2 += vk[i + 2] * cj[i + 2];
      s3 += vk[i + 3] * cj[i + 3];
    }
    for (; i < rows; ++i) s0 += vk[i] * cj[i];
    const CT f = tau * ((s0 + s1) + (s2 + s3));
    cj[k] -= f;
    for (i = k + 1; i < rows; ++i) cj[i] -= f * vk[i];
  }
}

/// In-place Householder (Golub-Kahan) bidiagonalization of the column-major
/// buffer g (m x n, ld = m, m >= n): d gets the diagonal, e the
/// superdiagonal (length n-1). The reflectors stay behind, LAPACK-style:
/// left reflector k is (1, g[k+1..m) of column k) with scale tauq[k], and
/// right reflector k (k < n-1) acts on indices [k+1, n) as (1, row k of g
/// from column k+2 on) with scale taup[k]. Reflector norms accumulate in
/// double. `vrow` and `dotbuf` are caller scratch (>= n and >= m).
template <class CT>
void bidiagonalize_small(CT* g, index_t m, index_t n, CT* d, CT* e, CT* tauq,
                         CT* taup, CT* vrow, CT* dotbuf) noexcept {
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
      tauq[k] = tau;
      if (tau != CT(0)) reflect_columns(ck, tau, g, m, m, k, k + 1, n);
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
      taup[k] = tau;
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

/// Overwrite the column-major rows x cols buffer q (leading dimension ld)
/// with the first `cols` columns of H_0 H_1 ... H_{nrefl-1}, where column
/// i < nrefl holds reflector i below its diagonal as bidiagonalize_small
/// leaves it (scale tau[i]). Backward accumulation (LAPACK's dorg2r): each
/// reflector meets only the trailing block that is not yet the identity.
/// Columns past nrefl start as unit vectors, so with cols > nrefl the
/// product completes the orthonormal basis by itself.
template <class CT>
void form_q(CT* q, index_t ld, index_t rows, index_t cols, index_t nrefl,
            const CT* tau) noexcept {
  for (index_t j = nrefl; j < cols; ++j) {
    CT* cj = q + j * ld;
    std::fill(cj, cj + rows, CT(0));
    cj[j] = CT(1);
  }
  for (index_t i = nrefl - 1; i >= 0; --i) {
    CT* ci = q + i * ld;
    const CT t = tau[i];
    if (t != CT(0)) reflect_columns(ci, t, q, ld, rows, i, i + 1, cols);
    std::fill(ci, ci + i, CT(0));
    ci[i] = CT(1) - t;
    for (index_t r = i + 1; r < rows; ++r) ci[r] *= -t;
  }
}

/// The n x n right factor P = G_0 G_1 ... G_{n-2} into p (leading dimension
/// n) from the right reflectors bidiagonalize_small left in the rows of g
/// (m x n). G_k acts on indices [k+1, n), so P is 1 (+) a product of n-1
/// reflectors of order n-1: stage each vector into column k+1 of p one
/// row down (LAPACK's dorgbr) and run form_q on the trailing block.
template <class CT>
void form_p(const CT* g, index_t m, index_t n, const CT* taup, CT* p) noexcept {
  std::fill(p, p + n * n, CT(0));
  p[0] = CT(1);
  for (index_t k = 0; k + 2 < n; ++k) {
    for (index_t i = k + 2; i < n; ++i) p[i + (k + 1) * n] = g[k + i * m];
  }
  if (n > 1) form_q(p + 1 + n, n, n - 1, n - 1, n - 1, taup);
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

  // Load G <- A_tall once, in compute precision, column-major at native
  // extent (ld = m, no padding). The auto_scale magnitude scan then runs
  // over this CONTIGUOUS buffer instead of a second strided pass through
  // the view — casting T to compute precision is exact for every supported
  // pairing, so the maximum matches ref::max_abs(a).
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
    rep.scale_factor = ref::auto_scale_divisor_for(static_cast<double>(mx));
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

  // Every job bidiagonalizes the stack buffer in place, G = Q B P^T, and
  // leaves its values in d, descending.
  Buffer<CT> wbuf;
  CT* ws = wbuf.acquire(static_cast<std::size_t>(5 * n + m));
  CT* d = ws;            // diagonal, then the values
  CT* e = ws + n;        // superdiagonal (length n-1)
  CT* tauq = ws + 2 * n;
  CT* taup = ws + 3 * n;
  CT* rv1 = ws + 4 * n;  // doubles as the right-reflector staging row
  CT* dotbuf = ws + 5 * n;
  bidiagonalize_small(g, m, n, d, e, tauq, taup, rv1, dotbuf);

  if (config.job == SvdJob::ValuesOnly) {
    // The lean chase on the n-length diagonal pair: the tiny-batch
    // throughput gate is won here.
    rv1[0] = CT(0);
    for (index_t i = 1; i < n; ++i) rv1[i] = e[i - 1];
    gr_values_small(d, rv1, n, rep.qr_stats);
    std::sort(d, d + n, std::greater<CT>());
  } else {
    // Vector jobs: form P (n x n) and Q (m x n, or m x m for Full) from the
    // kept reflectors — P first, since it reads the rows of G that forming
    // a Thin Q in place overwrites — then run the pipeline's vector
    // iteration with Q^T and P^T as its transposed accumulators: every
    // rotation lands on two contiguous columns of Q or P, and the
    // descending sort permutes those columns with the values. Q's columns
    // past n never rotate; they are the basis completion of a Full U. The
    // d/e arithmetic does not depend on the job, so Thin and Full values
    // are bit-identical.
    const index_t qc = config.job == SvdJob::Full ? m : n;
    Buffer<CT> pbuf;
    CT* p = pbuf.acquire(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    form_p(g, m, n, taup, p);
    Buffer<CT> qbuf;
    CT* q = g;
    if (qc > n) {
      q = qbuf.acquire(static_cast<std::size_t>(m) * static_cast<std::size_t>(qc));
      std::copy(g, g + elems, q);
    }
    form_q(q, m, m, qc, n, tauq);
    const MatrixView<CT> qv(q, m, qc, m);
    const MatrixView<CT> pv(p, n, n, n);
    const std::vector<CT> sigma = bidiag::bidiag_svd_qr_vectors<CT>(
        std::vector<CT>(d, d + n), std::vector<CT>(e, e + n - 1), qv.transposed(),
        pv.transposed());
    std::copy(sigma.begin(), sigma.end(), d);
    // Tall orientation: U = Q and V^T = P^T. A wide input solved at = A^T,
    // so its factors swap: U = P (Thin and Full coincide, min(m, n) is A's
    // row count) and V^T = Q^T.
    rep.u = ref::to_double<CT>(wide ? pv : qv);
    rep.vt = ref::to_double<CT>(wide ? qv.transposed() : pv.transposed());
  }

  rep.values.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    rep.values[static_cast<std::size_t>(i)] =
        static_cast<double>(d[i]) * rep.scale_factor;
  }
  rep.stage_times.add(ka::Stage::FusedSmall, seconds_since(t0));
  return rep;
}

template SvdReport small_svd_solve<Half>(ConstMatrixView<Half>, const SvdConfig&);
template SvdReport small_svd_solve<float>(ConstMatrixView<float>, const SvdConfig&);
template SvdReport small_svd_solve<double>(ConstMatrixView<double>, const SvdConfig&);

}  // namespace unisvd::smallsvd
