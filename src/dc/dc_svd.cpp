/// \file dc_svd.cpp
/// Divide-and-conquer bidiagonal SVD — recursion, deflation, secular
/// merges and their composition. See dc_svd.hpp for the contract,
/// secular.hpp for the root-finder analysis and qr/gemm.hpp for the
/// composition kernel.

#include "dc/dc_svd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "bidiag/bidiag_qr.hpp"
#include "common/error.hpp"
#include "common/givens_rows.hpp"
#include "dc/secular.hpp"
#include "ka/thread_pool.hpp"
#include "qr/gemm.hpp"

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

/// The merges' composition products, launched as "dc_gemm" in Stage 3 with
/// no StageTimes: dc.stage3_s stays D&C's only stopwatch.
using Product = qr::GemmProduct<double, double, double>;
constexpr qr::GemmLaunch kCompose{"dc_gemm", ka::Stage::BidiagonalToDiagonal};

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
/// block-sparse basis never needs densifying. `col` maps an arrow
/// coordinate to its coefficient column.
void apply_rots_to_coefficients(const std::vector<DeflRot>& rots,
                                const std::vector<index_t>& col,
                                Matrix<double>& coef) {
  const index_t rows = coef.rows();
  for (auto it = rots.rbegin(); it != rots.rend(); ++it) {
    double* ci = &coef(0, col[static_cast<std::size_t>(it->i)]);
    double* cj = &coef(0, col[static_cast<std::size_t>(it->j)]);
    for (index_t r = 0; r < rows; ++r) {
      const double a = ci[r];
      const double b = cj[r];
      ci[r] = it->c * a + it->s * b;
      cj[r] = -it->s * a + it->c * b;
    }
  }
}

/// Merge two children across removed row k of the size-n problem
/// (alpha = d_k, beta = e_k): build the broken-arrow coordinates, deflate,
/// solve the secular roots, assemble arrow-frame vectors from the Loewner
/// weights, and compose back to the original row/column bases with one
/// GEMM launch per side. The children are consumed: each factor is freed
/// once its product is done.
Factor merge(Factor f1, Factor f2, double alpha, double beta, index_t k,
             index_t n, ka::Backend& be, DcStats* stats) {
  ka::ThreadPool* const pool = be.batch_pool();
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
  // Row r of um / vm holds output triple r in arrow coordinates. Their
  // columns are grouped by child in ascending child row (dlasd2's column
  // types), so each GEMM below reads one column range in place:
  //   um: [0, k) child 1, k coordinate 0 (the removed row e_k), [k+1, n)
  //       child 2;
  //   vm: [0, k) child 1, k coordinate 0 times cnull (child 1's null row),
  //       [k+1, n) child 2, n coordinate 0 times snull (child 2's null row).
  // Secular rows come from the Loewner weights (v_j ~ zhat_j / (d_j^2 - s^2),
  // u_0 ~ -1, u_j ~ d_j zhat_j / (d_j^2 - s^2)); deflated rows are unit
  // coordinates. Deflation rotations then replay onto the columns; they
  // never involve coordinate 0.
  std::vector<index_t> col(static_cast<std::size_t>(n));
  col[0] = k;
  for (index_t p = 1; p < n; ++p) {
    const Coord& cp = coords[static_cast<std::size_t>(p)];
    col[static_cast<std::size_t>(p)] = cp.child == 1 ? cp.row : k + 1 + cp.row;
  }
  Matrix<double> um(n, n, 0.0);
  Matrix<double> vm(n, n + 1, 0.0);
  const auto set_v0 = [&](index_t r, double v0) {
    vm(r, k) = cnull * v0;
    vm(r, n) = snull * v0;
  };
  pfor(pool, n, [&](index_t r) {
    const Triple& t = triples[static_cast<std::size_t>(r)];
    if (t.nd_slot < 0) {
      um(r, col[static_cast<std::size_t>(t.coord)]) = 1.0;
      if (t.coord == 0) {
        set_v0(r, 1.0);
      } else {
        vm(r, col[static_cast<std::size_t>(t.coord)]) = 1.0;
      }
      return;
    }
    const SecularRoot& root = roots[static_cast<std::size_t>(t.nd_slot)];
    double unorm = 1.0;  // the -1 component at the z-row slot
    double vnorm = 0.0;
    um(r, k) = -1.0;
    for (index_t j = 0; j < ndk; ++j) {
      const index_t q = col[static_cast<std::size_t>(nd[static_cast<std::size_t>(j)])];
      const double diff = secular_diff(nd_d, root, j);  // sigma^2 - d_j^2
      const double vj = -zhat[static_cast<std::size_t>(j)] / diff;
      vm(r, q) = vj;
      vnorm += vj * vj;
      if (j > 0) {
        const double uj = nd_d[static_cast<std::size_t>(j)] * vj;
        um(r, q) = uj;
        unorm += uj * uj;
      }
    }
    unorm = 1.0 / std::sqrt(unorm);
    vnorm = 1.0 / std::sqrt(vnorm);
    for (index_t j = 0; j < ndk; ++j) {
      const index_t p = nd[static_cast<std::size_t>(j)];
      const index_t q = col[static_cast<std::size_t>(p)];
      if (p == 0) {
        set_v0(r, vm(r, q) * vnorm);
      } else {
        vm(r, q) *= vnorm;
        um(r, q) *= unorm;
      }
    }
    um(r, k) *= unorm;
  });
  apply_rots_to_coefficients(rots, col, um);
  apply_rots_to_coefficients(rots, col, vm);

  // --- Compose back to the original bases -------------------------------
  // out.ut = [um(:, 0:k) f1.ut | um(:, k) | um(:, k+1:n) f2.ut], and rows
  // [0, n) of out.vt = [vm(:, 0:k+1) f1.vt | vm(:, k+1:n+1) f2.vt]. Each
  // side is one launch over both children's products. um and the
  // children's ut are released before out.vt is allocated, so the merge
  // holds at most the children, um, vm and out.ut: about 4 n^2 doubles.
  Factor out;
  out.s.resize(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r) {
    out.s[static_cast<std::size_t>(r)] =
        triples[static_cast<std::size_t>(r)].sigma;
  }
  out.ut = Matrix<double>(n, n);
  std::copy(&um(0, k), &um(0, k) + n, &out.ut(0, k));
  const Product uprods[] = {
      {um.view().block(0, 0, n, k), f1.ut.view(), out.ut.view().block(0, 0, n, k)},
      {um.view().block(0, k + 1, n, n2), f2.ut.view(),
       out.ut.view().block(0, k + 1, n, n2)}};
  qr::gemm<double>(be, std::span<const Product>(uprods), kCompose);
  um = Matrix<double>();
  f1.ut = Matrix<double>();
  f2.ut = Matrix<double>();

  out.vt = Matrix<double>(n + 1, n + 1);
  const Product vprods[] = {
      {vm.view().block(0, 0, n, k + 1), f1.vt.view(),
       out.vt.view().block(0, 0, n, k + 1)},
      {vm.view().block(0, k + 1, n, n2 + 1), f2.vt.view(),
       out.vt.view().block(0, k + 1, n, n2 + 1)}};
  qr::gemm<double>(be, std::span<const Product>(vprods), kCompose);

  // Global null row: the orthogonal complement of the null combination.
  for (index_t j = 0; j <= k; ++j) out.vt(n, j) = -snull * f1.vt(k, j);
  for (index_t j = 0; j <= n2; ++j) out.vt(n, k + 1 + j) = cnull * f2.vt(n2, j);
  return out;
}

Factor solve_recursive(const double* d, const double* e, index_t n,
                       index_t qr_leaf, ka::Backend& be, DcStats* stats) {
  if (n <= qr_leaf || n < 3) return solve_tail(d, e, n, stats);
  const index_t k = n / 2;
  Factor f1, f2;
  DcStats child_stats[2];
  const std::function<void(index_t)> child = [&](index_t half) {
    if (half == 0) {
      f1 = solve_recursive(d, e, k, qr_leaf, be,
                           stats != nullptr ? &child_stats[0] : nullptr);
    } else {
      f2 = solve_recursive(d + k + 1, e + k + 1, n - 1 - k, qr_leaf, be,
                           stats != nullptr ? &child_stats[1] : nullptr);
    }
  };
  // Children are independent. The top of the tree submits them to the
  // pool with work stealing: two workers take one child each, and the
  // others help with the children's launches, secular roots and vector
  // rows instead of sleeping. Below the top (and inside an enclosing job)
  // the flag is moot: nested calls publish or run inline as the enclosing
  // job decides.
  ka::ThreadPool* const pool = be.batch_pool();
  if (pool != nullptr) {
    ka::ParallelForOptions steal;
    steal.work_stealing = true;
    pool->parallel_for(2, child, steal);
  } else {
    child(0);
    child(1);
  }
  if (stats != nullptr) {
    for (const auto& cs : child_stats) {
      stats->merges += cs.merges;
      stats->tail_solves += cs.tail_solves;
      stats->deflated += cs.deflated;
      stats->secular_roots += cs.secular_roots;
    }
  }
  return merge(std::move(f1), std::move(f2), d[k], e[k], k, n, be, stats);
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

namespace detail {

template <class CT>
DcResult<CT> bidiag_svd_dc(std::vector<CT> d, std::vector<CT> e, index_t qr_leaf,
                           ka::Backend* backend, DcStats* stats) {
  const auto n = static_cast<index_t>(d.size());
  UNISVD_REQUIRE(n >= 1, "bidiag_svd_dc: empty input");
  UNISVD_REQUIRE(e.size() + 1 == d.size(),
                 "bidiag_svd_dc: e must have length n-1");
  UNISVD_REQUIRE(qr_leaf >= 1, "bidiag_svd_dc: qr_leaf must be >= 1");
  ka::SerialBackend serial;
  ka::Backend& be = backend != nullptr ? *backend : serial;
  UNISVD_REQUIRE(be.executes(), "bidiag_svd_dc: backend does not execute kernels");

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

  Factor f = solve_recursive(dd.data(), ee.data(), n, qr_leaf, be, stats);

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
                                              index_t, ka::Backend*, DcStats*);
template DcResult<double> bidiag_svd_dc<double>(std::vector<double>,
                                                std::vector<double>, index_t,
                                                ka::Backend*, DcStats*);

}  // namespace detail

}  // namespace unisvd::dc
