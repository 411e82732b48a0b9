/// Rank-k throughput: randomized truncated SVD (src/rsvd) vs the dense
/// pipeline with SvdJob::Thin — the speedup that motivates the subsystem
/// (PCA scores, LoRA rank selection and low-rank compression only need the
/// top k singular triplets) — plus the TALL-THIN section timing the dense
/// tall path at the Thin job per precision (time AND peak accumulator
/// memory: the path's claim is O(m_pad * n_pad), never O(m_pad^2)).
///
/// Usage: bench_rank_k_throughput [m] [n] [rank] [repeats] [--json <path>]
///
/// Defaults reproduce the acceptance case: a 2048 x 256 FP32 tall matrix at
/// rank 32, where svd_truncated must run >= 3x faster than svd(Thin) while
/// staying within the sigma-tail error bound. A second table sweeps the
/// rank to show where the crossover to the dense path sits, and the
/// tall-thin section runs whenever the input shape is tall.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/linalg_ref.hpp"
#include "core/svd.hpp"
#include "rand/matrix_gen.hpp"
#include "rand/rng.hpp"

using namespace unisvd;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class F>
double best_of(int repeats, F&& f) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    f();
    const double dt = now_seconds() - t0;
    best = r == 0 ? dt : std::min(best, dt);
  }
  return best;
}

template <class T>
void run_case(benchutil::JsonSink& sink, const Matrix<double>& a64,
              const std::vector<double>& sigma, index_t rank, int repeats,
              const char* tag) {
  const Matrix<T> a = rnd::round_to<T>(a64);

  TruncConfig tc;
  tc.rank = rank;
  TruncReport trep;
  const double t_rsvd = best_of(repeats, [&] {
    trep = svd_truncated_report<T>(a.view(), tc);
  });

  SvdConfig dc;
  dc.job = SvdJob::Thin;
  SvdReport drep;
  const double t_dense = best_of(repeats, [&] {
    drep = svd_values_report<T>(a.view(), dc);
  });

  double tail2 = 0.0;
  for (std::size_t i = static_cast<std::size_t>(rank); i < sigma.size(); ++i) {
    tail2 += sigma[i] * sigma[i];
  }
  const double optimal = std::sqrt(tail2);
  const double resid =
      ref::rank_k_residual_fro(a64.view(), trep.u, trep.values, trep.vt, trep.rank);
  const double ratio = optimal > 0.0 ? resid / optimal : 0.0;

  std::printf("  %-5s %6lld %10.1f %10.1f %8.2fx %11.3e %9.2f\n", tag,
              static_cast<long long>(rank), 1e3 * t_rsvd, 1e3 * t_dense,
              t_dense / t_rsvd, resid, ratio);
  const std::string base = std::string("rsvd/") + tag + "/rank=" +
                           std::to_string(static_cast<long long>(rank));
  sink.record(base + "/rsvd", t_rsvd, "s");
  sink.record(base + "/dense", t_dense, "s");
  sink.record(base + "/speedup", t_dense / t_rsvd, "x");
  sink.record(base + "/resid_vs_opt", ratio, "ratio");
}

/// Tall-thin dense section: the one tall vector path (panel QR with
/// retained reflectors, the square pipeline on R, U = Q * U_R composed by
/// blocked backward replay) at SvdJob::Thin. Peak bytes come from the
/// matrix high-water counter (common/matrix.hpp).
template <class T>
void run_tall_thin_case(benchutil::JsonSink& sink, const Matrix<double>& a64,
                        int repeats, const char* tag) {
  const Matrix<T> a = rnd::round_to<T>(a64);
  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  SvdReport rep;
  matrix_reset_peak();
  const double t = best_of(repeats, [&] {
    rep = SvdReport{};  // the previous repeat's retained factors must not
                        // sit under this solve's peak measurement
    rep = svd_values_report<T>(a.view(), cfg);
  });
  const double peak_mb = static_cast<double>(matrix_peak_bytes()) / 1e6;
  std::printf("  %-5s %10.1f %9.1f\n", tag, 1e3 * t, peak_mb);
  const std::string base = std::string("tall_thin/") + tag;
  sink.record(base + "/seconds", t, "s");
  sink.record(base + "/peak", peak_mb, "MB");
}

}  // namespace

int main(int argc, char** argv) {
  auto sink = benchutil::JsonSink::from_args("rank_k_throughput", argc, argv);
  // Positional args with the --json pair stripped out.
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    pos.emplace_back(argv[i]);
  }
  const index_t m = pos.size() > 0 ? std::atoll(pos[0].c_str()) : 2048;
  const index_t n = pos.size() > 1 ? std::atoll(pos[1].c_str()) : 256;
  const index_t rank = pos.size() > 2 ? std::atoll(pos[2].c_str()) : 32;
  const int repeats = pos.size() > 3 ? std::atoi(pos[3].c_str()) : 1;

  std::printf(
      "Rank-k throughput: randomized truncated SVD vs dense SvdJob::Thin\n"
      "matrix %lld x %lld, decaying spectrum (strong ranks = requested k)\n\n",
      static_cast<long long>(m), static_cast<long long>(n));

  const index_t minmn = std::min(m, n);
  std::vector<double> sigma(static_cast<std::size_t>(minmn));
  for (index_t i = 0; i < minmn; ++i) {
    sigma[static_cast<std::size_t>(i)] = std::max(
        std::pow(10.0, -2.0 * static_cast<double>(i) / static_cast<double>(rank)),
        1e-4);
  }
  rnd::Xoshiro256 rng(2025);
  const Matrix<double> a64 = rnd::rect_matrix_with_spectrum(m, n, sigma, rng);

  std::printf("  %-5s %6s %10s %10s %9s %11s %9s\n", "prec", "rank", "rsvd ms",
              "dense ms", "speedup", "resid_F", "vs opt");

  // Acceptance case across precisions at the requested rank.
  run_case<float>(sink, a64, sigma, rank, repeats, "FP32");
  run_case<Half>(sink, a64, sigma, rank, repeats, "FP16");
  run_case<double>(sink, a64, sigma, rank, repeats, "FP64");

  // Rank sweep (FP32): where the randomized path stops paying off.
  std::printf("\nFP32 rank sweep:\n");
  std::printf("  %-5s %6s %10s %10s %9s %11s %9s\n", "prec", "rank", "rsvd ms",
              "dense ms", "speedup", "resid_F", "vs opt");
  for (index_t k = 8; k <= minmn / 2; k *= 2) {
    run_case<float>(sink, a64, sigma, k, repeats, "FP32");
  }

  // Tall-thin dense section: the tall Thin path at this shape, one row per
  // precision. Runs for tall inputs (the wide case rides the lazy transpose).
  if (m > n) {
    std::printf(
        "\nTall-thin dense path at %lld x %lld (SvdJob::Thin): panel QR +\n"
        "%lld x %lld pipeline on R + backward replay of Q onto U_R.\n",
        static_cast<long long>(m), static_cast<long long>(n),
        static_cast<long long>(n), static_cast<long long>(n));
    std::printf("  %-5s %10s %9s\n", "prec", "ms", "peak MB");
    run_tall_thin_case<float>(sink, a64, repeats, "FP32");
    run_tall_thin_case<Half>(sink, a64, repeats, "FP16");
    run_tall_thin_case<double>(sink, a64, repeats, "FP64");
  }

  std::printf(
      "\nExpected: >= 3x speedup at the default 2048x256 FP32 rank-32 case\n"
      "(the acceptance gate), residuals within ~1.5x of the optimal rank-k\n"
      "error, and the advantage growing with m/rank. The tall-thin section\n"
      "shows peak memory of a few m_pad x n_pad panels: no solve allocates\n"
      "an m_pad^2 accumulator.\n");
  return sink.flush() ? 0 : 1;
}
