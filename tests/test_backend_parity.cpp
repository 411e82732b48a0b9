/// Backend parity: the serial reference backend and the multithreaded CPU
/// backend run the same kernel bodies, so singular values, Thin factors,
/// truncated factors and batched values must agree bit for bit. The
/// compiler vectorizes those bodies for the build's ISA; the build pins
/// -ffp-contract=off, so the same bits come out at every ISA (CI diffs a
/// digest between a baseline and an x86-64-v3 build).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "ka/backend.hpp"
#include "test_util.hpp"

using namespace unisvd;

namespace {

struct Shape {
  index_t m;
  index_t n;
  const char* tag;
};

// Tall, square and wide: exercises the lazy transpose, padding and (for the
// tall vector job) the panel-QR composition.
constexpr Shape kShapes[] = {{48, 20, "tall"}, {40, 40, "square"}, {20, 48, "wide"}};

template <class T>
std::string type_tag() {
  if constexpr (std::is_same_v<T, Half>) return "fp16";
  if constexpr (std::is_same_v<T, float>) return "fp32";
  return "fp64";
}

/// Exact elementwise equality — bit identity for the finite values the
/// solver produces (NaN would fail, which is what we want).
template <class T>
void expect_bit_identical(const std::vector<T>& a, const std::vector<T>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " value " << i;
  }
}

/// Elementwise equality of two factor matrices (same shape).
void expect_bit_identical(const Matrix<double>& a, const Matrix<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_EQ(a(i, j), b(i, j)) << what << " (" << i << ", " << j << ")";
    }
  }
}

template <class T>
double accept_tol(index_t m, index_t n) {
  return 50.0 * precision_traits<T>::storage_eps * static_cast<double>(std::max(m, n));
}

/// Residual of a report's factors against the input, in double.
template <class T>
double residual(ConstMatrixView<T> a, const SvdReport& rep) {
  const Matrix<double> ad = ref::to_double(a);
  Matrix<double> us(rep.u.rows(), rep.vt.rows(), 0.0);
  for (index_t j = 0; j < us.cols(); ++j) {
    if (j >= static_cast<index_t>(rep.values.size())) continue;
    for (index_t i = 0; i < us.rows(); ++i) {
      us(i, j) = rep.u(i, j) * rep.values[static_cast<std::size_t>(j)];
    }
  }
  const Matrix<double> prod =
      ref::matmul(ConstMatrixView<double>(us.view()), rep.vt.view());
  const double denom = ref::fro_norm(ad.view());
  return ref::fro_diff(ad.view(), prod.view()) / denom;
}

template <class T>
class BackendParity : public ::testing::Test {};

using Precisions = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(BackendParity, Precisions);

}  // namespace

TYPED_TEST(BackendParity, ValuesBitIdenticalAcrossShapes) {
  using T = TypeParam;
  ka::SerialBackend serial;
  ka::CpuBackend cpu(2);
  std::uint64_t seed = 7001;
  for (const auto& sh : kShapes) {
    const auto a = testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, seed++));
    const auto serial_vals = svd_values<T>(a.view(), {}, serial);
    const auto cpu_vals = svd_values<T>(a.view(), {}, cpu);
    expect_bit_identical(serial_vals, cpu_vals,
                         type_tag<T>() + " " + sh.tag + " serial-vs-cpu");
  }
}

TYPED_TEST(BackendParity, ThinFactorsBitIdenticalAndWithinGates) {
  using T = TypeParam;
  ka::SerialBackend serial;
  ka::CpuBackend cpu(2);
  std::uint64_t seed = 7101;
  for (const auto& sh : kShapes) {
    const auto a = testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, seed++));
    SvdConfig cfg;
    cfg.job = SvdJob::Thin;
    const SvdReport rep_serial = svd_values_report<T>(a.view(), cfg, serial);
    const SvdReport rep_cpu = svd_values_report<T>(a.view(), cfg, cpu);
    const std::string what = type_tag<T>() + " " + sh.tag + " thin";
    // Both backends run the same kernel bodies: values AND factors agree
    // exactly.
    expect_bit_identical(rep_serial.values, rep_cpu.values, what);
    expect_bit_identical(rep_serial.u, rep_cpu.u, what + " u");
    expect_bit_identical(rep_serial.vt, rep_cpu.vt, what + " vt");
    // And the factors satisfy the standing accuracy gates.
    const double tol = accept_tol<T>(sh.m, sh.n);
    EXPECT_LE(residual(a.view(), rep_cpu), tol) << what;
    EXPECT_LE(ref::orthogonality_defect(rep_cpu.u.view()), tol) << what;
    EXPECT_LE(ref::orthogonality_defect(rep_cpu.vt.view().transposed()), tol)
        << what;
  }
}

TYPED_TEST(BackendParity, TruncatedDeterministicAcrossBackends) {
  using T = TypeParam;
  ka::SerialBackend serial;
  ka::CpuBackend cpu(2);
  const auto a = testutil::convert<T>(testutil::random_matrix(60, 30, 7201));
  TruncConfig cfg;
  cfg.rank = 6;
  cfg.seed = 99;
  const TruncReport rep_serial = svd_truncated_report<T>(a.view(), cfg, serial);
  const TruncReport rep_cpu = svd_truncated_report<T>(a.view(), cfg, cpu);
  const std::string what = type_tag<T>() + " truncated";
  ASSERT_EQ(rep_serial.rank, rep_cpu.rank) << what;
  // svd_truncated is documented deterministic per seed across backends: the
  // sketch stream is derived from the seed alone and every kernel is
  // bit-identical, so values AND factors agree exactly.
  expect_bit_identical(rep_serial.values, rep_cpu.values, what);
  expect_bit_identical(rep_serial.u, rep_cpu.u, what + " u");
  expect_bit_identical(rep_serial.vt, rep_cpu.vt, what + " vt");
}

TYPED_TEST(BackendParity, BatchedSchedulesBitIdenticalAcrossBackends) {
  using T = TypeParam;
  ka::SerialBackend serial;
  ka::CpuBackend cpu(2);
  // Mixed sizes so Auto exercises its inter/intra split; explicit schedules
  // pin each engine path.
  std::vector<Matrix<T>> problems;
  std::uint64_t seed = 7301;
  for (index_t n : {12, 40, 20, 33}) {
    problems.push_back(testutil::convert<T>(testutil::random_matrix(n, n, seed++)));
  }
  const auto views = testutil::views_of(problems);
  for (const auto schedule : {BatchSchedule::Auto, BatchSchedule::InterProblem,
                              BatchSchedule::IntraProblem, BatchSchedule::Mixed}) {
    BatchConfig cfg;
    cfg.schedule = schedule;
    const auto serial_batch = svd_values_batched<T>(
        std::span<const ConstMatrixView<T>>(views), cfg, serial);
    const auto cpu_batch = svd_values_batched<T>(
        std::span<const ConstMatrixView<T>>(views), cfg, cpu);
    ASSERT_EQ(serial_batch.size(), cpu_batch.size());
    for (std::size_t p = 0; p < serial_batch.size(); ++p) {
      expect_bit_identical(serial_batch[p], cpu_batch[p],
                           type_tag<T>() + " batched " +
                               std::string(to_string(schedule)) + " problem " +
                               std::to_string(p));
    }
  }
}
