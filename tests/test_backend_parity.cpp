/// Scalar-vs-SIMD backend parity: the vectorized CPU backend must reproduce
/// the scalar CPU backend EXACTLY for singular values (the ValuesOnly
/// determinism contract extends across the backend axis — the SIMD kernel
/// bodies perform the identical per-lane operation sequence, and the build
/// pins -ffp-contract=off so neither path fuses multiply-adds), and within
/// the existing residual/orthogonality gates for singular vectors and
/// truncated factors. Runs in every build: in a scalar build (or on a
/// non-AVX2 machine) the "simd" backend executes the reference bodies and
/// parity holds trivially — the suite then pins that the fallback is
/// actually wired, not that vectorization happened.
///
/// Also proves the runtime fallback: a SimdCpuBackend constructed under
/// UNISVD_FORCE_SCALAR=1 produces the same bits as the enabled one.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "core/tuner.hpp"
#include "ka/backend.hpp"
#include "ka/simd/dispatch.hpp"
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

void expect_bit_identical_d(const std::vector<double>& a,
                            const std::vector<double>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " value " << i;
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

/// RAII environment override for the forced-scalar fallback test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

template <class T>
class BackendParity : public ::testing::Test {};

using Precisions = ::testing::Types<Half, float, double>;
TYPED_TEST_SUITE(BackendParity, Precisions);

}  // namespace

TYPED_TEST(BackendParity, ValuesBitIdenticalAcrossShapes) {
  using T = TypeParam;
  ka::CpuBackend cpu(2);
  auto& simd = ka::simd_backend();
  std::uint64_t seed = 7001;
  for (const auto& sh : kShapes) {
    const auto a = testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, seed++));
    const auto ref_vals = svd_values<T>(a.view(), {}, cpu);
    const auto simd_vals = svd_values<T>(a.view(), {}, simd);
    expect_bit_identical(ref_vals, simd_vals,
                         type_tag<T>() + " " + sh.tag + " cpu-vs-simd");
    // Serial backend closes the triangle: one workgroup at a time, no pool.
    ka::SerialBackend serial;
    const auto serial_vals = svd_values<T>(a.view(), {}, serial);
    expect_bit_identical(ref_vals, serial_vals,
                         type_tag<T>() + " " + sh.tag + " cpu-vs-serial");
  }
}

TYPED_TEST(BackendParity, VectorsWithinGatesAndValuesUnchanged) {
  using T = TypeParam;
  ka::CpuBackend cpu(2);
  auto& simd = ka::simd_backend();
  std::uint64_t seed = 7101;
  for (const auto& sh : kShapes) {
    const auto a = testutil::convert<T>(testutil::random_matrix(sh.m, sh.n, seed++));
    SvdConfig cfg;
    cfg.job = SvdJob::Thin;
    const SvdReport rep_cpu = svd_values_report<T>(a.view(), cfg, cpu);
    const SvdReport rep_simd = svd_values_report<T>(a.view(), cfg, simd);
    const std::string what = type_tag<T>() + " " + sh.tag + " thin";
    // Values stay bit-identical when vectors are accumulated (the vector
    // job never perturbs the values path), across backends.
    expect_bit_identical_d(rep_cpu.values, rep_simd.values, what);
    // Both backends' factors satisfy the standing accuracy gates.
    const double tol = accept_tol<T>(sh.m, sh.n);
    EXPECT_LE(residual(a.view(), rep_cpu), tol) << what << " cpu";
    EXPECT_LE(residual(a.view(), rep_simd), tol) << what << " simd";
    EXPECT_LE(ref::orthogonality_defect(rep_simd.u.view()), tol) << what;
    EXPECT_LE(ref::orthogonality_defect(rep_simd.vt.view().transposed()), tol)
        << what;
    // And against each other: the SIMD factors may not drift from the
    // scalar ones by more than the gates allow (they are in fact
    // bit-identical by construction; the tolerance keeps the contract at
    // what the documentation promises).
    EXPECT_LE(ref::fro_diff(rep_cpu.u.view(), rep_simd.u.view()), tol) << what;
    EXPECT_LE(ref::fro_diff(rep_cpu.vt.view(), rep_simd.vt.view()), tol) << what;
  }
}

TYPED_TEST(BackendParity, TruncatedDeterministicAcrossBackends) {
  using T = TypeParam;
  ka::CpuBackend cpu(2);
  auto& simd = ka::simd_backend();
  const auto a = testutil::convert<T>(testutil::random_matrix(60, 30, 7201));
  TruncConfig cfg;
  cfg.rank = 6;
  cfg.seed = 99;
  const TruncReport rep_cpu = svd_truncated_report<T>(a.view(), cfg, cpu);
  const TruncReport rep_simd = svd_truncated_report<T>(a.view(), cfg, simd);
  const std::string what = type_tag<T>() + " truncated";
  ASSERT_EQ(rep_cpu.rank, rep_simd.rank) << what;
  // svd_truncated is documented deterministic per seed across backends: the
  // sketch stream is derived from the seed alone and every kernel is
  // bit-identical, so values AND factors agree exactly.
  expect_bit_identical_d(rep_cpu.values, rep_simd.values, what);
  EXPECT_EQ(ref::fro_diff(rep_cpu.u.view(), rep_simd.u.view()), 0.0) << what;
  EXPECT_EQ(ref::fro_diff(rep_cpu.vt.view(), rep_simd.vt.view()), 0.0) << what;
}

TYPED_TEST(BackendParity, BatchedSchedulesBitIdenticalAcrossBackends) {
  using T = TypeParam;
  ka::CpuBackend cpu(2);
  auto& simd = ka::simd_backend();
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
    const auto ref_batch = svd_values_batched<T>(
        std::span<const ConstMatrixView<T>>(views), cfg, cpu);
    const auto simd_batch = svd_values_batched<T>(
        std::span<const ConstMatrixView<T>>(views), cfg, simd);
    ASSERT_EQ(ref_batch.size(), simd_batch.size());
    for (std::size_t p = 0; p < ref_batch.size(); ++p) {
      expect_bit_identical(ref_batch[p], simd_batch[p],
                           type_tag<T>() + " batched " +
                               std::string(to_string(schedule)) + " problem " +
                               std::to_string(p));
    }
  }
}

TEST(BackendParityFallback, ForcedScalarDispatchProducesIdenticalBits) {
  // A SIMD backend constructed under UNISVD_FORCE_SCALAR=1 must (a) report
  // itself non-vectorized and (b) produce exactly the bits of both the
  // scalar CPU backend and an unforced SIMD backend — forcing scalar only
  // loses speed, never changes a result.
  const auto a = testutil::convert<float>(testutil::random_matrix(44, 44, 7401));
  ka::CpuBackend cpu(2);
  auto& simd = ka::simd_backend();
  const auto ref_vals = svd_values<float>(a.view(), {}, cpu);
  const auto simd_vals = svd_values<float>(a.view(), {}, simd);
  std::vector<float> forced_vals;
  {
    ScopedEnv force("UNISVD_FORCE_SCALAR", "1");
    ka::SimdCpuBackend forced(2);
    EXPECT_FALSE(forced.vectorized());
    forced_vals = svd_values<float>(a.view(), {}, forced);
  }
  expect_bit_identical(ref_vals, forced_vals, "cpu vs forced-scalar simd");
  expect_bit_identical(simd_vals, forced_vals, "simd vs forced-scalar simd");
}

TEST(BackendParityTuning, TuningTableKeysScalarAndSimdSeparately) {
  // The TuningTable keys every learned entry by Backend::name(): "simd"
  // rows must not shadow "cpu" rows and vice versa, so each backend looks
  // up what was actually measured on it.
  core::TuningTable table;
  table.set<core::Knob::BatchCrossover>("cpu", Precision::FP32, 96);
  table.set<core::Knob::BatchCrossover>("simd", Precision::FP32, 160);
  ASSERT_TRUE(table.get<core::Knob::BatchCrossover>("cpu", Precision::FP32).has_value());
  ASSERT_TRUE(table.get<core::Knob::BatchCrossover>("simd", Precision::FP32).has_value());
  EXPECT_EQ(*table.get<core::Knob::BatchCrossover>("cpu", Precision::FP32), 96);
  EXPECT_EQ(*table.get<core::Knob::BatchCrossover>("simd", Precision::FP32), 160);
  // The name a learner would use comes straight from the backend object.
  EXPECT_EQ(ka::simd_backend().name(), "simd");
  // Nearest-precision fallback stays within the backend's own rows.
  EXPECT_EQ(table.get_or<core::Knob::BatchCrossover>("simd", Precision::FP16, 7), 160);
  EXPECT_EQ(table.get_or<core::Knob::BatchCrossover>("serial", Precision::FP32, 7), 7);
}
