/// Flagship Stage-2+3 engine comparison with CI acceptance gates.
///
/// One banded problem (Stage-1 output shape: upper band of bandwidth bw),
/// two engine stacks over identity-seeded n x n accumulators:
///
///   baseline : eager accumulator mirroring  +  implicit-QR Stage 3
///   blocked  : cache-blocked, vectorized rotation-batch replay
///              (band/rot_batch.hpp)
///              +  divide-and-conquer Stage 3 (dc/dc_svd.hpp)
///
/// and a values-only implicit-QR oracle for the accuracy gate. The binary
/// EXITS NON-ZERO unless, at the default n = 2048 FP32 Thin-equivalent
/// setup,
///
///   * blocked + D&C beats eager + QR by >= 2.0x on Stage-2+3 wall clock,
///   * every D&C singular value matches the oracle within 50 eps n
///     (relative to sigma_1, FP32 storage eps),
///   * the D&C factors stay orthogonal within the same 50 eps n budget,
///
/// so the Release CI smoke run (--json BENCH_stage23.json) enforces the
/// performance claim by exit code. The Stage-2-only ratio
/// (`stage2_speedup`) is printed and recorded but not gated. `--n <extent>`
/// overrides the size for local exploration (the speedup gate still
/// applies).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "band/band_matrix.hpp"
#include "band/band_to_bidiag.hpp"
#include "bench_util.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "common/linalg_ref.hpp"
#include "dc/dc_svd.hpp"
#include "ka/backend.hpp"
#include "rand/rng.hpp"

using namespace unisvd;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Random dense n x n with entries only in the upper band [0, bw] — the
/// shape Stage 1 hands to Stage 2, without paying an untimed Stage-1 run.
Matrix<float> random_banded(index_t n, index_t bw, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  Matrix<float> a(n, n, 0.0f);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = (j > bw ? j - bw : 0); i <= j && i < n; ++i) {
      a(i, j) = static_cast<float>(rng.normal());
    }
  }
  return a;
}

Matrix<float> identity_acc(index_t n) {
  Matrix<float> m(n, n, 0.0f);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

struct ArmResult {
  double stage2_seconds = 0.0;
  double stage3_seconds = 0.0;
  std::vector<float> values;
  Matrix<float> ut;
  Matrix<float> vt;
  double batch_flushes = 0.0;

  [[nodiscard]] double total() const { return stage2_seconds + stage3_seconds; }
};

ArmResult run_arm(const Matrix<float>& dense, index_t bw, bool blocked_dc,
                  ka::Backend& backend) {
  ArmResult out;
  const index_t n = dense.rows();
  auto b = band::extract_band<float>(dense.view(), bw);
  out.ut = identity_acc(n);
  out.vt = identity_acc(n);
  MatrixView<float> utv = out.ut.view();
  MatrixView<float> vtv = out.vt.view();
  std::vector<float> d, e;

  auto t0 = std::chrono::steady_clock::now();
  if (blocked_dc) {
    band::Stage2Options<float> opts;
    opts.ut = &utv;
    opts.vt = &vtv;
    opts.backend = &backend;
    opts.rot_batch = 4096;
    out.batch_flushes = band::band_to_bidiag(b, d, e, opts).batch_flushes;
  } else {
    band::band_to_bidiag(b, d, e, &utv, &vtv);
  }
  out.stage2_seconds = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  if (blocked_dc) {
    dc::DcOptions dco;
    dco.pool = backend.batch_pool();
    out.values =
        dc::bidiag_svd_dc<float>(std::move(d), std::move(e), &utv, &vtv, dco);
  } else {
    out.values =
        bidiag::bidiag_svd_qr_vectors(std::move(d), std::move(e), utv, vtv);
  }
  out.stage3_seconds = seconds_since(t0);
  return out;
}

void print_arm(const char* name, const ArmResult& a) {
  std::printf("%-22s %10s %10s %10s %10.0f\n", name,
              benchutil::fmt_seconds(a.stage2_seconds).c_str(),
              benchutil::fmt_seconds(a.stage3_seconds).c_str(),
              benchutil::fmt_seconds(a.total()).c_str(), a.batch_flushes);
}

}  // namespace

int main(int argc, char** argv) {
  index_t n = 2048;
  index_t bw = 32;
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--bw") == 0) bw = std::atoll(argv[i + 1]);
  }
  auto json = benchutil::JsonSink::from_args("stage23", argc, argv);
  ka::CpuBackend backend;

  benchutil::print_header("Stage-2+3 engine comparison (FP32, gated)");
  std::printf("n = %lld, bandwidth = %lld\n\n", static_cast<long long>(n),
              static_cast<long long>(bw));

  const Matrix<float> dense = random_banded(n, bw, 2300 + static_cast<std::uint64_t>(n));

  // Values-only implicit-QR oracle: the historic bit-identical reference.
  std::vector<double> oracle;
  {
    auto b = band::extract_band<float>(dense.view(), bw);
    std::vector<float> d, e;
    band::band_to_bidiag(b, d, e);
    const auto vals = bidiag::bidiag_svd_qr(std::move(d), std::move(e));
    oracle.assign(vals.begin(), vals.end());
  }

  std::printf("%-22s %10s %10s %10s %10s\n", "engine stack", "stage2", "stage3",
              "total", "flushes");
  const ArmResult eager = run_arm(dense, bw, /*blocked_dc=*/false, backend);
  print_arm("eager + implicit QR", eager);
  const ArmResult blocked = run_arm(dense, bw, /*blocked_dc=*/true, backend);
  print_arm("blocked + D&C", blocked);

  const double speedup = eager.total() / blocked.total();
  // Reported, not gated: eager mirroring runs on one thread and the
  // blocked replay on the backend's pool, so this ratio scales with cores.
  const double stage2_speedup = eager.stage2_seconds / blocked.stage2_seconds;
  const double eps = 1.1920928955078125e-07;  // FP32 storage eps
  const double tol = 50.0 * eps * static_cast<double>(n);

  double sigma_err = 0.0;
  const double denom = oracle.empty() ? 1.0 : std::max(oracle[0], 1e-30);
  for (std::size_t i = 0; i < oracle.size() && i < blocked.values.size(); ++i) {
    sigma_err = std::max(
        sigma_err, std::abs(static_cast<double>(blocked.values[i]) - oracle[i]) / denom);
  }
  const double ortho_u = ref::orthogonality_defect(blocked.ut.view());
  const double ortho_v = ref::orthogonality_defect(blocked.vt.view());

  std::printf("\nspeedup (stage2+3)     %8.2fx   (gate >= 2.00x)\n", speedup);
  std::printf("stage2_speedup         %8.2fx   (not gated)\n", stage2_speedup);
  std::printf("max rel sigma error    %8.2e   (gate <= %.2e)\n", sigma_err, tol);
  std::printf("orthogonality defect   %8.2e / %8.2e (gate <= %.2e)\n", ortho_u,
              ortho_v, tol);

  json.record("n", static_cast<double>(n), "extent");
  json.record("stage2_eager_seconds", eager.stage2_seconds, "s");
  json.record("stage3_qr_seconds", eager.stage3_seconds, "s");
  json.record("stage2_blocked_seconds", blocked.stage2_seconds, "s");
  json.record("stage3_dc_seconds", blocked.stage3_seconds, "s");
  json.record("batch_flushes", blocked.batch_flushes, "count");
  json.record("speedup", speedup, "x");
  json.record("stage2_speedup", stage2_speedup, "x");
  json.record("max_rel_sigma_error", sigma_err, "rel");
  json.record("ortho_defect_u", ortho_u, "fro");
  json.record("ortho_defect_v", ortho_v, "fro");
  json.flush();

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  gate(speedup >= 2.0, "blocked + D&C >= 2x over eager + QR on stage2+3");
  gate(sigma_err <= tol, "D&C sigma within 50 eps n of the QR oracle");
  gate(ortho_u <= tol && ortho_v <= tol, "D&C factors orthogonal within 50 eps n");
  gate(blocked.batch_flushes > 0.0, "blocked arm exercised the rotation batch");
  return failures == 0 ? 0 : 1;
}
