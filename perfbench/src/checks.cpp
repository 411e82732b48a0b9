#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common.hpp"

namespace perfbench {

using unisvd::index_t;
using unisvd::Matrix;

namespace {

/// The products below are O(m k^2) flops: worth threads only when large
/// (the served requests' checks already run one per core).
template <class Body>
void stripes_if_large(std::size_t count, double flops, const Body& body) {
  if (flops < 1e8) {
    body(std::size_t{0}, std::size_t{1});
  } else {
    parallel_stripes(count, body);
  }
}

double dot(const double* x, const double* y, index_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

/// ||Q^T Q - I||_F for the k columns (length m, contiguous) of q.
double column_defect(const double* q, index_t m, index_t k) {
  std::vector<double> partial(static_cast<std::size_t>(std::max<index_t>(k, 1)), 0.0);
  const double flops = static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(k);
  stripes_if_large(static_cast<std::size_t>(k), flops, [&](std::size_t w, std::size_t workers) {
    double acc = 0.0;
    for (auto j = static_cast<index_t>(w); j < k; j += static_cast<index_t>(workers)) {
      for (index_t i = 0; i <= j; ++i) {
        const double g = dot(q + i * m, q + j * m, m) - (i == j ? 1.0 : 0.0);
        acc += (i == j ? 1.0 : 2.0) * g * g;
      }
    }
    partial[static_cast<std::size_t>(w)] = acc;
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return std::sqrt(total);
}

}  // namespace

double sigma_err(const std::vector<double>& got, const std::vector<double>& ref,
                 double eps, index_t n) {
  if (got.size() != ref.size() || ref.empty()) return HUGE_VAL;
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = std::abs(got[i] - ref[i]);
    if (!(d <= worst)) worst = d;  // NaN propagates as the worst error
  }
  return worst / (eps * static_cast<double>(n) * ref[0]);
}

double orth_err(const Matrix<double>& u, const Matrix<double>& vt, double eps,
                index_t n) {
  // The rows of vt are the right vectors: transpose so they are contiguous.
  Matrix<double> v(vt.cols(), vt.rows());
  for (index_t j = 0; j < vt.cols(); ++j) {
    for (index_t i = 0; i < vt.rows(); ++i) v(j, i) = vt(i, j);
  }
  const double du = column_defect(u.data(), u.rows(), u.cols());
  const double dv = column_defect(v.data(), v.rows(), v.cols());
  return std::max(du, dv) / (eps * static_cast<double>(n));
}

double residual_err(const Matrix<double>& a, const Matrix<double>& u,
                    const std::vector<double>& values, const Matrix<double>& vt,
                    double eps, double sigma1) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = static_cast<index_t>(values.size());
  if (u.rows() != m || u.cols() != k || vt.rows() != k || vt.cols() != n) {
    return HUGE_VAL;
  }
  std::vector<double> partial(static_cast<std::size_t>(std::max<index_t>(n, 1)), 0.0);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
  stripes_if_large(static_cast<std::size_t>(n), flops, [&](std::size_t w, std::size_t workers) {
    std::vector<double> r(static_cast<std::size_t>(m));
    double acc = 0.0;
    for (auto j = static_cast<index_t>(w); j < n; j += static_cast<index_t>(workers)) {
      std::copy(a.data() + j * m, a.data() + (j + 1) * m, r.begin());
      for (index_t p = 0; p < k; ++p) {
        const double c = values[static_cast<std::size_t>(p)] * vt(p, j);
        const double* up = u.data() + p * m;
        for (index_t i = 0; i < m; ++i) r[static_cast<std::size_t>(i)] -= up[i] * c;
      }
      for (const double x : r) acc += x * x;
    }
    partial[static_cast<std::size_t>(w)] = acc;
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return std::sqrt(total) /
         (eps * static_cast<double>(std::max(m, n)) * sigma1);
}

namespace {

bool same_matrix(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.size()) * sizeof(double)) == 0);
}

bool same_values(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool same_bytes(const unisvd::SvdReport& a, const unisvd::SvdReport& b) {
  return a.status == b.status && same_values(a.values, b.values) &&
         same_matrix(a.u, b.u) && same_matrix(a.vt, b.vt);
}

bool same_bytes(const unisvd::TruncReport& a, const unisvd::TruncReport& b) {
  return a.status == b.status && a.rank == b.rank &&
         same_values(a.values, b.values) && same_matrix(a.u, b.u) &&
         same_matrix(a.vt, b.vt);
}

}  // namespace perfbench
