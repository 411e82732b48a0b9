/// Portability report — the paper's central claim in one executable:
/// one kernel source, every hardware target, every precision.
///
/// Runs the SAME pipeline (a) for real on two executing backends (serial
/// reference and multithreaded CPU) verifying bitwise identical results,
/// then prints a `digest` line: an FNV-1a hash of sigma, U and Vt from
/// fixed-seed solves. The kernels are compiled for the build's ISA, so two
/// builds (e.g. baseline and -march=x86-64-v3) must print the same digest;
/// CI diffs it. (b) It also runs through the device performance model for
/// every GPU of the paper's Table 2 fleet, with per-(device, precision)
/// tuned hyperparameters — printing the tuned configuration and predicted
/// runtime, including the support gaps (no FP64 on Metal, no FP16 on
/// Julia-era AMD).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/half.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "sim/library_model.hpp"
#include "sim/tuning.hpp"

using namespace unisvd;

namespace {

/// FNV-1a over the bytes of `x`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, double x) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &x, sizeof(bytes));
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

template <class Report>
std::uint64_t fold_report(std::uint64_t h, const Report& r) {
  for (const double x : r.values) h = fnv1a(h, x);
  for (const Matrix<double>* f : {&r.u, &r.vt}) {
    for (index_t j = 0; j < f->cols(); ++j) {
      for (index_t i = 0; i < f->rows(); ++i) h = fnv1a(h, (*f)(i, j));
    }
  }
  return h;
}

/// Fold the sigma, U and Vt bytes of one fixed-seed Thin solve into `h`.
template <class T>
std::uint64_t fold_thin(std::uint64_t h, index_t m, index_t n, std::uint64_t seed) {
  rnd::Xoshiro256 rng(seed);
  const auto a = rnd::round_to<T>(rnd::gaussian_matrix(m, n, rng));
  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  return fold_report(h, svd_values_report<T>(a.view(), cfg));
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 4096;

  std::printf("== Part 1: one source, two executing backends (n = 256) ==\n");
  rnd::Xoshiro256 rng(11);
  const auto a = rnd::gaussian_matrix(256, 256, rng);
  ka::SerialBackend serial;
  ka::CpuBackend cpu;
  const auto v1 = svd_values_report<double>(a.view(), {}, serial).values;
  const auto v2 = svd_values_report<double>(a.view(), {}, cpu).values;
  bool identical = true;
  for (std::size_t i = 0; i < v1.size(); ++i) identical &= (v1[i] == v2[i]);
  std::printf("serial vs %u-thread CPU backend: %s (sigma_1 = %.12f)\n",
              static_cast<ka::CpuBackend&>(cpu).pool().size(),
              identical ? "bitwise identical" : "MISMATCH", v1.front());

  // Same bits at every ISA: fixed-seed Thin solves in every precision, plus
  // one truncated solve.
  std::uint64_t h = 14695981039346656037ull;
  std::uint64_t seed = 21;
  for (const auto& [rows, cols] : {std::pair<index_t, index_t>{256, 256}, {300, 100}}) {
    h = fold_thin<Half>(h, rows, cols, seed++);
    h = fold_thin<float>(h, rows, cols, seed++);
    h = fold_thin<double>(h, rows, cols, seed++);
  }
  rnd::Xoshiro256 trng(seed);
  const auto at = rnd::round_to<float>(rnd::gaussian_matrix(400, 256, trng));
  TruncConfig tcfg;
  tcfg.rank = 16;
  tcfg.seed = seed;
  h = fold_report(h, svd_truncated_report<float>(at.view(), tcfg));
  std::printf("digest %016llx\n", static_cast<unsigned long long>(h));

  std::printf("\n== Part 2: tuned configuration + predicted runtime per GPU "
              "(n = %lld) ==\n", static_cast<long long>(n));
  std::printf("%-9s %-6s %8s %8s %8s %12s %10s\n", "device", "prec", "TILESZ",
              "CPB", "SPLITK", "runtime", "trail/pan");
  for (const auto* dev : sim::all_devices()) {
    for (const auto p : {Precision::FP16, Precision::FP32, Precision::FP64}) {
      if (!dev->supports(p)) {
        std::printf("%-9s %-6s %34s\n", dev->name.c_str(),
                    std::string(to_string(p)).c_str(), "-- not supported --");
        continue;
      }
      if (!dev->fits(n, p)) {
        std::printf("%-9s %-6s %34s\n", dev->name.c_str(),
                    std::string(to_string(p)).c_str(), "-- exceeds memory --");
        continue;
      }
      const auto cfg = sim::tuned_kernel_config(*dev, p, n);
      const auto br = sim::simulate_unified(*dev, n, p);
      std::printf("%-9s %-6s %8d %8d %8d %11.3fs %10.2f\n", dev->name.c_str(),
                  std::string(to_string(p)).c_str(), cfg.tilesize, cfg.colperblock,
                  cfg.splitk, br.total(), br.trailing / br.panel);
    }
  }
  std::printf(
      "\nNo kernel was rewritten per row above: the hyperparameters are the\n"
      "only per-hardware knobs (paper contribution 5).\n");
  return 0;
}
