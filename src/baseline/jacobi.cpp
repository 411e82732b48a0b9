#include "baseline/jacobi.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace unisvd::baseline {

namespace {

/// 2x2 Gram measures of a column pair: app = ||g_p||^2, aqq = ||g_q||^2,
/// apq = <g_p, g_q>.
struct PairGram {
  double app = 0.0;
  double aqq = 0.0;
  double apq = 0.0;
};

PairGram column_gram(const double* gp, const double* gq, index_t m) noexcept {
  PairGram g;
  for (index_t i = 0; i < m; ++i) {
    g.app += gp[i] * gp[i];
    g.aqq += gq[i] * gq[i];
    g.apq += gp[i] * gq[i];
  }
  return g;
}

/// Rotation (c, s) diagonalizing the 2x2 Gram block [[app, apq], [apq, aqq]]
/// (Rutishauser's stable formulation). False when the pair is already
/// orthogonal within `tol` relative to the column norms — including any
/// exactly-zero column, whose rotation would be undefined.
bool jacobi_rotation(const PairGram& g, double tol, double& c, double& s) noexcept {
  const double denom = std::sqrt(g.app * g.aqq);
  if (denom == 0.0 || std::abs(g.apq) <= tol * denom) return false;
  const double zeta = (g.aqq - g.app) / (2.0 * g.apq);
  const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                   (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
  c = 1.0 / std::sqrt(1.0 + t * t);
  s = t * c;
  return true;
}

/// Apply the rotation to a column pair: [g_p g_q] <- [g_p g_q]·[[c, s], [-s, c]].
void apply_rotation(double* gp, double* gq, index_t m, double c, double s) noexcept {
  for (index_t i = 0; i < m; ++i) {
    const double a = gp[i];
    const double b = gq[i];
    gp[i] = c * a - s * b;
    gq[i] = s * a + c * b;
  }
}

/// Orthogonalize one column pair (length m). Returns true when a rotation
/// was applied (off-diagonal above `tol`).
bool rotate_pair(double* gp, double* gq, index_t m, double tol) noexcept {
  double c = 1.0;
  double s = 0.0;
  if (!jacobi_rotation(column_gram(gp, gq, m), tol, c, s)) return false;
  apply_rotation(gp, gq, m, c, s);
  return true;
}

/// Round-robin tournament pairing over n columns: m = n + n%2 slots, m-1
/// rounds of m/2 DISJOINT pairs per sweep (disjointness is what lets a
/// round's pairs rotate in parallel), every (p, q) pair visited exactly
/// once per sweep. Slot 0 stays fixed while slots 1..m-1 rotate between
/// rounds — the standard schedule.
class Tournament {
 public:
  explicit Tournament(index_t n)
      : n_(n), m_(n + (n % 2)), slot_(static_cast<std::size_t>(m_)) {
    reset();
  }

  [[nodiscard]] index_t rounds() const noexcept { return m_ - 1; }
  [[nodiscard]] index_t pairs_per_round() const noexcept { return m_ / 2; }

  /// Pair r of the current round as (p, q) with p < q, or (-1, -1) when one
  /// side is the bye slot of an odd column count.
  [[nodiscard]] std::pair<index_t, index_t> pair(index_t r) const noexcept {
    const index_t i1 = slot_[static_cast<std::size_t>(r)];
    const index_t i2 = slot_[static_cast<std::size_t>(m_ - 1 - r)];
    if (i1 >= n_ || i2 >= n_) return {index_t{-1}, index_t{-1}};
    return {std::min(i1, i2), std::max(i1, i2)};
  }

  /// Rotate slots 1..m-1 (slot 0 fixed) to the next round's pairing.
  void advance() noexcept {
    const index_t last = slot_[static_cast<std::size_t>(m_ - 1)];
    for (index_t i = m_ - 1; i > 1; --i) {
      slot_[static_cast<std::size_t>(i)] = slot_[static_cast<std::size_t>(i - 1)];
    }
    slot_[1] = last;
  }

  /// Back to the first round's pairing (start of a sweep).
  void reset() noexcept {
    for (index_t i = 0; i < m_; ++i) slot_[static_cast<std::size_t>(i)] = i;
  }

 private:
  index_t n_;
  index_t m_;
  std::vector<index_t> slot_;
};

}  // namespace

std::vector<double> jacobi_svdvals(ConstMatrixView<double> a, ka::ThreadPool* pool,
                                   const JacobiOptions& opts) {
  UNISVD_REQUIRE(a.rows() == a.cols(), "jacobi_svdvals: matrix must be square");
  const index_t n = a.rows();
  Matrix<double> g(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) g(i, j) = a.at(i, j);
  }

  // Round-robin tournament pairing: m-1 rounds of disjoint pairs per
  // sweep. Disjointness makes rounds parallel.
  Tournament tour(n);

  bool converged = false;
  for (int sweep = 0; sweep < opts.max_sweeps && !converged; ++sweep) {
    std::atomic<bool> any_rotation{false};
    tour.reset();
    for (index_t round = 0; round < tour.rounds(); ++round) {
      auto do_pair = [&](index_t r) {
        const auto [p, q] = tour.pair(r);
        if (p < 0) return;  // bye slot
        if (rotate_pair(g.data() + p * n, g.data() + q * n, n, opts.tol)) {
          any_rotation.store(true, std::memory_order_relaxed);
        }
      };
      if (pool != nullptr) {
        pool->parallel_for(tour.pairs_per_round(), do_pair);
      } else {
        for (index_t r = 0; r < tour.pairs_per_round(); ++r) do_pair(r);
      }
      tour.advance();
    }
    converged = !any_rotation.load();
  }

  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < n; ++i) s += g(i, j) * g(i, j);
    sigma[static_cast<std::size_t>(j)] = std::sqrt(s);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<double>());
  return sigma;
}

}  // namespace unisvd::baseline
