/// \file dc_svd.cpp
/// Divide-and-conquer bidiagonal SVD — recursion, deflation, secular
/// merges and blocked composition. See dc_svd.hpp for the contract and
/// secular.hpp for the root-finder analysis.

#include "dc/dc_svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "bidiag/bidiag_qr.hpp"
#include "common/error.hpp"
#include "common/givens_rows.hpp"
#include "dc/secular.hpp"

namespace unisvd::dc {
namespace {

/// Pool-parallel flat loop; serial (or inline under a nested job) without
/// a pool. All call sites are data-parallel with disjoint writes.
void pfor(ka::ThreadPool* pool, index_t n,
          const std::function<void(index_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (index_t i = 0; i < n; ++i) fn(i);
  }
}

/// One sub-problem factorization of the uniform n x (n+1) problem:
/// B = ut^T * diag(s) * vt-rows, with `vt` carrying n+1 rows whose last is
/// the right null direction. `s` is descending (the tail solver's order,
/// kept by every merge so parents can rely on it).
struct Factor {
  std::vector<double> s;  ///< n singular values, descending
  Matrix<double> ut;      ///< n x n, rows = left singular vectors
  Matrix<double> vt;      ///< (n+1) x (n+1), rows = right vectors + null
};

Matrix<double> identity(index_t n) {
  Matrix<double> m(n, n, 0.0);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

/// Leaf solver: annihilate the extra column with a bottom-up chain of
/// right Givens rotations (each kill at (j, n) fills (j-1, n)), mirror the
/// chain onto the (n+1)-row right accumulator, then run the implicit-QR
/// kernel on the now-square bidiagonal. An exactly-zero coupling (the
/// appended column of a square embedding) short-circuits to identity
/// rotations, keeping the null row exactly e_{n+1}.
Factor solve_tail(const double* d, const double* e, index_t n,
                  DcStats* stats) {
  Factor f;
  f.ut = identity(n);
  f.vt = identity(n + 1);
  std::vector<double> dd(d, d + n);
  std::vector<double> sup(n > 1 ? static_cast<std::size_t>(n - 1) : 0);
  for (index_t j = 0; j + 1 < n; ++j) sup[static_cast<std::size_t>(j)] = e[j];

  double fill = e[n - 1];  // current (j, n) entry, walking j upward
  for (index_t j = n - 1; j >= 0 && fill != 0.0; --j) {
    const double r = std::hypot(dd[static_cast<std::size_t>(j)], fill);
    const double c = dd[static_cast<std::size_t>(j)] / r;
    const double s = fill / r;
    dd[static_cast<std::size_t>(j)] = r;
    apply_givens_rows(f.vt.view(), j, n, c, s);
    if (j > 0) {
      fill = -s * sup[static_cast<std::size_t>(j - 1)];
      sup[static_cast<std::size_t>(j - 1)] *= c;
    } else {
      fill = 0.0;
    }
  }

  f.s = bidiag::bidiag_svd_qr_vectors<double>(std::move(dd), std::move(sup),
                                              f.ut.view(), f.vt.view());
  if (stats != nullptr) ++stats->tail_solves;
  return f;
}

/// A two-sided deflation rotation on arrow coordinates (i, j):
/// basis rows mix as row_i' = c*row_i - s*row_j, row_j' = s*row_i + c*row_j,
/// chosen to zero the weight of coordinate i.
struct DeflRot {
  index_t i, j;
  double c, s;
};

/// Replay recorded deflation rotations onto the COLUMNS of a coefficient
/// matrix (in reverse order): result rows satisfy
/// coef * (R_m ... R_1 * basis) == (coef * R_m ... R_1) * basis, so the
/// block-sparse basis never needs densifying.
void apply_rots_to_coefficients(const std::vector<DeflRot>& rots,
                                Matrix<double>& coef) {
  const index_t rows = coef.rows();
  for (auto it = rots.rbegin(); it != rots.rend(); ++it) {
    double* ci = &coef(0, it->i);
    double* cj = &coef(0, it->j);
    for (index_t r = 0; r < rows; ++r) {
      const double a = ci[r];
      const double b = cj[r];
      ci[r] = it->c * a + it->s * b;
      cj[r] = -it->s * a + it->c * b;
    }
  }
}

/// C(:, c0+c) = sum_j A(:, j) * B(j, c) for c in [0, B.cols()), blocked
/// over output columns through the pool. Plain jki order keeps every
/// inner access contiguous in the column-major layout.
void gemm_into(ka::ThreadPool* pool, const Matrix<double>& a,
               const Matrix<double>& b, Matrix<double>& c, index_t c0) {
  const index_t rows = a.rows();
  const index_t inner = a.cols();
  const index_t cols = b.cols();
  constexpr index_t kColBlock = 32;
  const index_t nblocks = (cols + kColBlock - 1) / kColBlock;
  pfor(pool, nblocks, [&](index_t blk) {
    const index_t cbeg = blk * kColBlock;
    const index_t cend = std::min(cols, cbeg + kColBlock);
    for (index_t col = cbeg; col < cend; ++col) {
      double* out = &c(0, c0 + col);
      std::fill(out, out + rows, 0.0);
      for (index_t j = 0; j < inner; ++j) {
        const double w = b(j, col);
        if (w == 0.0) continue;
        const double* aj = &a(0, j);
        for (index_t r = 0; r < rows; ++r) out[r] += aj[r] * w;
      }
    }
  });
}

/// Merge two children across removed row k of the size-n problem
/// (alpha = d_k, beta = e_k): build the broken-arrow coordinates, deflate,
/// solve the secular roots, assemble arrow-frame vectors from the Loewner
/// weights, and compose back to the original row/column bases with two
/// block GEMMs per side.
Factor merge(const Factor& f1, const Factor& f2, double alpha, double beta,
             index_t k, index_t n, ka::ThreadPool* pool, DcStats* stats) {
  const index_t n2 = n - 1 - k;  // child-2 extent

  // --- Arrow coordinates -------------------------------------------------
  // Coordinate 0 is the Givens combination of the two child null
  // directions (the only right basis vectors without a diagonal partner);
  // its weight never deflates (LAPACK convention: floor it at tol so the
  // smallest root stays well-posed). Coordinates p >= 1 carry one child
  // singular triple each, sorted ascending by value.
  const double z1null = alpha * f1.vt(k, k);
  const double z2null = beta * f2.vt(n2, 0);
  double cnull = 1.0, snull = 0.0, z0 = z1null;
  if (z2null != 0.0) {
    const double r0 = std::hypot(z1null, z2null);
    cnull = z1null / r0;
    snull = z2null / r0;
    z0 = r0;
  }

  struct Coord {
    double d, z;
    std::int8_t child;  // 1 or 2; coordinate 0 handled separately
    index_t row;        // child triple index
  };
  std::vector<Coord> coords(static_cast<std::size_t>(n));
  coords[0] = {0.0, z0, 0, 0};
  for (index_t j = 0; j < k; ++j) {
    coords[static_cast<std::size_t>(1 + j)] = {
        f1.s[static_cast<std::size_t>(j)], alpha * f1.vt(j, k), 1, j};
  }
  for (index_t j = 0; j < n2; ++j) {
    coords[static_cast<std::size_t>(1 + k + j)] = {
        f2.s[static_cast<std::size_t>(j)], beta * f2.vt(j, 0), 2, j};
  }
  std::stable_sort(coords.begin() + 1, coords.end(),
                   [](const Coord& a, const Coord& b) { return a.d < b.d; });

  // --- Deflation (dlasd2-style) -----------------------------------------
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol =
      8.0 * eps *
      std::max({coords[static_cast<std::size_t>(n - 1)].d, std::abs(alpha),
                std::abs(beta)});
  if (tol > 0.0 && std::abs(coords[0].z) < tol) {
    coords[0].z = std::copysign(tol, coords[0].z == 0.0 ? 1.0 : coords[0].z);
  }

  std::vector<char> is_deflated(static_cast<std::size_t>(n), 0);
  // tol == 0 means the merged matrix is exactly zero (every child value,
  // alpha and beta vanish): every coordinate deflates, including slot 0.
  if (coords[0].z == 0.0) is_deflated[0] = 1;
  std::vector<DeflRot> rots;
  index_t prev = -1;
  for (index_t p = 1; p < n; ++p) {
    auto& cp = coords[static_cast<std::size_t>(p)];
    if (std::abs(cp.z) <= tol) {  // negligible weight: triple is exact
      is_deflated[static_cast<std::size_t>(p)] = 1;
      continue;
    }
    if (prev >= 0) {
      auto& cq = coords[static_cast<std::size_t>(prev)];
      const double rr = std::hypot(cq.z, cp.z);
      const double c = cp.z / rr;
      const double s = cq.z / rr;
      if (std::abs(cp.d - cq.d) <= tol) {
        // Near-equal poles (dlasd2's test): one two-sided Givens zeroes
        // the earlier weight while both poles keep their values, so the
        // error is the pole gap itself, bounded by tol.
        rots.push_back({prev, p, c, s});
        cp.z = rr;
        cq.z = 0.0;
        is_deflated[static_cast<std::size_t>(prev)] = 1;
      }
    }
    prev = p;
  }

  // --- Secular problem over the surviving coordinates --------------------
  std::vector<index_t> nd;  // arrow indices of non-deflated coordinates
  nd.reserve(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p) {
    if (!is_deflated[static_cast<std::size_t>(p)]) nd.push_back(p);
  }
  const auto ndk = static_cast<index_t>(nd.size());
  std::vector<double> nd_d(static_cast<std::size_t>(ndk));
  std::vector<double> nd_z(static_cast<std::size_t>(ndk));
  for (index_t j = 0; j < ndk; ++j) {
    nd_d[static_cast<std::size_t>(j)] =
        coords[static_cast<std::size_t>(nd[static_cast<std::size_t>(j)])].d;
    nd_z[static_cast<std::size_t>(j)] =
        coords[static_cast<std::size_t>(nd[static_cast<std::size_t>(j)])].z;
  }
  // Deflation dropped off-diagonals of size <= tol; nudging surviving
  // poles apart by the same amount keeps the interlacing (and the Loewner
  // denominators) strictly positive at no extra accuracy cost.
  for (index_t j = 1; j < ndk; ++j) {
    auto& dj = nd_d[static_cast<std::size_t>(j)];
    const double floor_d = nd_d[static_cast<std::size_t>(j - 1)] + tol;
    if (dj < floor_d) dj = floor_d;
  }

  std::vector<SecularRoot> roots(static_cast<std::size_t>(ndk));
  pfor(pool, ndk, [&](index_t r) {
    roots[static_cast<std::size_t>(r)] = solve_secular_root(nd_d, nd_z, r);
  });
  const std::vector<double> zhat =
      ndk > 0 ? loewner_weights(nd_d, nd_z, roots) : std::vector<double>{};
  if (stats != nullptr) {
    ++stats->merges;
    stats->deflated += n - ndk;
    stats->secular_roots += ndk;
  }

  // --- Output ordering: n triples, descending ---------------------------
  struct Triple {
    double sigma;
    index_t nd_slot;  // secular slot, or -1 for a deflated coordinate
    index_t coord;    // arrow coordinate (deflated case)
  };
  std::vector<Triple> triples;
  triples.reserve(static_cast<std::size_t>(n));
  for (index_t r = 0; r < ndk; ++r) {
    triples.push_back({roots[static_cast<std::size_t>(r)].sigma, r,
                       nd[static_cast<std::size_t>(r)]});
  }
  for (index_t p = 0; p < n; ++p) {
    if (is_deflated[static_cast<std::size_t>(p)]) {
      triples.push_back({coords[static_cast<std::size_t>(p)].d, -1, p});
    }
  }
  std::stable_sort(triples.begin(), triples.end(),
                   [](const Triple& a, const Triple& b) {
                     return a.sigma > b.sigma;
                   });

  // --- Arrow-frame singular vectors -------------------------------------
  // Row r of um / vm holds output triple r in arrow coordinates. Secular
  // rows come from the Loewner weights (v_j ~ zhat_j / (d_j^2 - s^2),
  // u_0 ~ -1, u_j ~ d_j zhat_j / (d_j^2 - s^2)); deflated rows are unit
  // coordinates. Deflation rotations then replay onto the columns.
  Matrix<double> um(n, n, 0.0);
  Matrix<double> vm(n, n, 0.0);
  pfor(pool, n, [&](index_t r) {
    const Triple& t = triples[static_cast<std::size_t>(r)];
    if (t.nd_slot < 0) {
      um(r, t.coord) = 1.0;
      vm(r, t.coord) = 1.0;
      return;
    }
    const SecularRoot& root = roots[static_cast<std::size_t>(t.nd_slot)];
    double unorm = 1.0;  // the -1 component at the z-row slot
    double vnorm = 0.0;
    um(r, 0) = -1.0;
    for (index_t j = 0; j < ndk; ++j) {
      const double diff = secular_diff(nd_d, root, j);  // sigma^2 - d_j^2
      const double vj = -zhat[static_cast<std::size_t>(j)] / diff;
      vm(r, nd[static_cast<std::size_t>(j)]) = vj;
      vnorm += vj * vj;
      if (j > 0) {
        const double uj = nd_d[static_cast<std::size_t>(j)] * vj;
        um(r, nd[static_cast<std::size_t>(j)]) = uj;
        unorm += uj * uj;
      }
    }
    unorm = 1.0 / std::sqrt(unorm);
    vnorm = 1.0 / std::sqrt(vnorm);
    for (index_t j = 0; j < ndk; ++j) {
      const index_t q = nd[static_cast<std::size_t>(j)];
      vm(r, q) *= vnorm;
      if (q != 0) um(r, q) *= unorm;
    }
    um(r, 0) *= unorm;
  });
  apply_rots_to_coefficients(rots, um);
  apply_rots_to_coefficients(rots, vm);

  // --- Compose back to the original bases -------------------------------
  // Left basis: slot 0 = e_k (the removed row), child-1 rows in columns
  // [0, k), child-2 rows in [k+1, n). Right basis: child-1 rows in
  // columns [0, k], child-2 rows in [k+1, n], with the null-combination
  // folded into the coefficient of each child's own null row. um / vm are
  // released before the outputs are allocated, so the merge never holds
  // both: its peak is the children plus a1/a2/b1/b2 plus the output.
  Matrix<double> a1(n, k);
  Matrix<double> a2(n, n2);
  Matrix<double> b1(n, k + 1);
  Matrix<double> b2(n, n2 + 1);
  for (index_t p = 1; p < n; ++p) {
    const Coord& cp = coords[static_cast<std::size_t>(p)];
    for (index_t r = 0; r < n; ++r) {
      if (cp.child == 1) {
        a1(r, cp.row) = um(r, p);
        b1(r, cp.row) = vm(r, p);
      } else {
        a2(r, cp.row) = um(r, p);
        b2(r, cp.row) = vm(r, p);
      }
    }
  }
  std::vector<double> um0(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r) {
    b1(r, k) = cnull * vm(r, 0);
    b2(r, n2) = snull * vm(r, 0);
    um0[static_cast<std::size_t>(r)] = um(r, 0);
  }
  um = Matrix<double>();
  vm = Matrix<double>();

  Factor out;
  out.s.resize(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r) {
    out.s[static_cast<std::size_t>(r)] =
        triples[static_cast<std::size_t>(r)].sigma;
  }
  out.ut = Matrix<double>(n, n);
  out.vt = Matrix<double>(n + 1, n + 1);
  std::copy(um0.begin(), um0.end(), &out.ut(0, k));

  gemm_into(pool, a1, f1.ut, out.ut, 0);
  gemm_into(pool, a2, f2.ut, out.ut, k + 1);
  // The k-th output column was written above; gemm_into only touches its
  // own column ranges [0, k) and [k+1, n).
  gemm_into(pool, b1, f1.vt, out.vt, 0);
  gemm_into(pool, b2, f2.vt, out.vt, k + 1);

  // Global null row: the orthogonal complement of the null combination.
  for (index_t j = 0; j <= k; ++j) out.vt(n, j) = -snull * f1.vt(k, j);
  for (index_t j = 0; j <= n2; ++j) out.vt(n, k + 1 + j) = cnull * f2.vt(n2, j);
  return out;
}

/// gemm_into writes full column ranges of out.vt, but b1/b2 only span n
/// coefficient rows while out.vt has n+1 — the null row is overwritten
/// afterwards, so the GEMM target is the n-row block.
Factor solve_recursive(const double* d, const double* e, index_t n,
                       const DcOptions& opts, DcStats* stats) {
  if (n <= opts.qr_tail || n < 3) return solve_tail(d, e, n, stats);
  const index_t k = n / 2;
  Factor f1, f2;
  // Children are independent: let the pool run them as two tasks at the
  // top of the tree (nested calls degrade gracefully to inline).
  DcStats child_stats[2];
  pfor(opts.pool, 2, [&](index_t half) {
    if (half == 0) {
      f1 = solve_recursive(d, e, k, opts,
                           stats != nullptr ? &child_stats[0] : nullptr);
    } else {
      f2 = solve_recursive(d + k + 1, e + k + 1, n - 1 - k, opts,
                           stats != nullptr ? &child_stats[1] : nullptr);
    }
  });
  if (stats != nullptr) {
    for (const auto& cs : child_stats) {
      stats->merges += cs.merges;
      stats->tail_solves += cs.tail_solves;
      stats->deflated += cs.deflated;
      stats->secular_roots += cs.secular_roots;
    }
  }
  return merge(f1, f2, d[k], e[k], k, n, opts.pool, stats);
}

/// The leading n x n block of `f`, narrowed once to CT.
template <class CT>
Matrix<CT> narrow_leading(const Matrix<double>& f, index_t n) {
  Matrix<CT> out(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) out(i, j) = static_cast<CT>(f(i, j));
  }
  return out;
}

}  // namespace

template <class CT>
DcResult<CT> bidiag_svd_dc(std::vector<CT> d, std::vector<CT> e,
                           const DcOptions& opts, DcStats* stats) {
  const auto n = static_cast<index_t>(d.size());
  UNISVD_REQUIRE(n >= 1, "bidiag_svd_dc: empty input");
  UNISVD_REQUIRE(e.size() + 1 == d.size(),
                 "bidiag_svd_dc: e must have length n-1");
  UNISVD_REQUIRE(opts.qr_tail >= 1, "bidiag_svd_dc: qr_tail must be >= 1");

  // Embed the square problem as [B 0]: the appended zero coupling adds an
  // exact right null direction that the recursion preserves bit-for-bit
  // (solve_tail short-circuits zero fills, merges see a zero weight).
  std::vector<double> dd(static_cast<std::size_t>(n));
  std::vector<double> ee(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    dd[static_cast<std::size_t>(i)] = static_cast<double>(d[static_cast<std::size_t>(i)]);
  }
  for (index_t i = 0; i + 1 < n; ++i) {
    ee[static_cast<std::size_t>(i)] = static_cast<double>(e[static_cast<std::size_t>(i)]);
  }

  Factor f = solve_recursive(dd.data(), ee.data(), n, opts, stats);

  DcResult<CT> out;
  out.values.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    out.values[static_cast<std::size_t>(i)] =
        static_cast<CT>(f.s[static_cast<std::size_t>(i)]);
  }
  out.ut = narrow_leading<CT>(f.ut, n);
  f.ut = Matrix<double>();
  out.vt = narrow_leading<CT>(f.vt, n);  // drops the embedding's null row
  return out;
}

template DcResult<float> bidiag_svd_dc<float>(std::vector<float>, std::vector<float>,
                                              const DcOptions&, DcStats*);
template DcResult<double> bidiag_svd_dc<double>(std::vector<double>,
                                                std::vector<double>,
                                                const DcOptions&, DcStats*);

}  // namespace unisvd::dc
