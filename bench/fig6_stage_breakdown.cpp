/// Figure 6: relative runtime of the pipeline stages — panel
/// factorization, trailing submatrix update, band-to-bidiagonal,
/// bidiagonal-to-diagonal — as a function of matrix size.
///
/// Two data sources:
///   (a) the device performance model over the real launch schedule
///       (H100 / RTX4060 / MI250 profiles), reproducing the paper's
///       figure: stage 1 share grows with n and the trailing/panel ratio
///       grows with n (earlier on the 24-SM RTX4060);
///   (b) REAL wall-clock stage times of the executing CPU backend at small
///       sizes, demonstrating the same qualitative trend on live runs.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "sim/library_model.hpp"

using namespace unisvd;

namespace {

void print_breakdown_row(index_t n, double panel, double trailing, double b2b,
                         double b2d) {
  const double total = panel + trailing + b2b + b2d;
  std::printf("%-8lld %9.1f%% %9.1f%% %9.1f%% %9.1f%% %10s %8.2f\n",
              static_cast<long long>(n), 100.0 * panel / total,
              100.0 * trailing / total, 100.0 * b2b / total, 100.0 * b2d / total,
              benchutil::fmt_seconds(total).c_str(), trailing / panel);
}

}  // namespace

int main() {
  benchutil::print_header(
      "Figure 6 -- relative stage runtime (simulated device model)");
  for (const auto* dev : {&sim::h100(), &sim::rtx4060(), &sim::mi250()}) {
    std::printf("\n%s (FP32)\n%-8s %10s %10s %10s %10s %10s %8s\n", dev->name.c_str(),
                "n", "panel", "trailing", "band2bi", "bi2diag", "total", "trl/pan");
    for (index_t n : {1024, 2048, 4096, 8192, 16384, 32768}) {
      if (!dev->fits(n, Precision::FP32)) continue;
      const auto br = sim::simulate_unified(*dev, n, Precision::FP32);
      print_breakdown_row(n, br.panel, br.trailing, br.band2bidiag, br.bidiag2diag);
    }
  }

  benchutil::print_header(
      "Figure 6 (live) -- stage wall clock, executing CPU backend");
  std::printf("%-8s %10s %10s %10s %10s %10s %8s\n", "n", "panel", "trailing",
              "band2bi", "bi2diag", "total", "trl/pan");
  ka::CpuBackend be;
  for (index_t n : {128, 256, 512, 1024}) {
    rnd::Xoshiro256 rng(900 + n);
    const auto a = rnd::gaussian_matrix(n, n, rng);
    SvdConfig cfg;
    cfg.kernels.tilesize = 32;
    cfg.kernels.colperblock = 32;
    const auto rep = svd_values_report<double>(a.view(), cfg, be);
    print_breakdown_row(n, rep.stage_times.get(ka::Stage::PanelFactorization),
                        rep.stage_times.get(ka::Stage::TrailingUpdate),
                        rep.stage_times.get(ka::Stage::BandToBidiagonal),
                        rep.stage_times.get(ka::Stage::BidiagonalToDiagonal));
  }

  benchutil::print_header(
      "Figure 6 extension -- full SVD (SvdJob::Thin): vector accumulation share");
  std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "n", "panel", "trailing",
              "band2bi", "bi2diag", "vec-acc", "total");
  for (index_t n : {128, 256, 512}) {
    rnd::Xoshiro256 rng(900 + n);
    const auto a = rnd::gaussian_matrix(n, n, rng);
    SvdConfig cfg;
    cfg.kernels.tilesize = 32;
    cfg.kernels.colperblock = 32;
    cfg.job = SvdJob::Thin;
    const auto rep = svd_values_report<double>(a.view(), cfg, be);
    const double panel = rep.stage_times.get(ka::Stage::PanelFactorization);
    const double trailing = rep.stage_times.get(ka::Stage::TrailingUpdate);
    const double b2b = rep.stage_times.get(ka::Stage::BandToBidiagonal);
    const double b2d = rep.stage_times.get(ka::Stage::BidiagonalToDiagonal);
    const double vac = rep.stage_times.get(ka::Stage::VectorAccumulation);
    const double total = panel + trailing + b2b + b2d + vac;
    std::printf("%-8lld %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %10s\n",
                static_cast<long long>(n), 100.0 * panel / total,
                100.0 * trailing / total, 100.0 * b2b / total, 100.0 * b2d / total,
                100.0 * vac / total, benchutil::fmt_seconds(total).c_str());
  }
  std::printf(
      "\nExpected shape (paper Fig. 6): stage-1 (panel+trailing) share grows\n"
      "with n; the trailing/panel ratio grows with n, saturating earlier on\n"
      "GPUs with fewer multiprocessors (RTX4060). Vector accumulation (the\n"
      "extension) is the back-transformation after Stage 3: the Stage-2\n"
      "rotation replay and the Stage-1 (and tall-panel) reflector replays.\n"
      "Stage 2 only logs its rotations and D&C (bi2diag) returns the\n"
      "bidiagonal's factors, so band2bi stays comparable between values-only\n"
      "and vector jobs.\n");
  return 0;
}
