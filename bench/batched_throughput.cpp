/// Batched SVD throughput: problems/sec versus batch size and matrix size,
/// for all three storage precisions, comparing the inter-problem schedule
/// (one problem per pool slot), the intra-problem schedule (sequential
/// problems, parallel kernels), the work-stealing mixed schedule and Auto —
/// plus a ragged few-large-many-small section where Mixed is designed to
/// win both pure schedules (the slots idle after the small queue dries up
/// steal the large problems' kernel workgroups instead of waiting out the
/// tail).
///
///   $ ./bench_batched_throughput [threads] [max_n] [--json <path>]
///
/// The inter/intra ratio directly visualizes the scheduling crossover that
/// BatchConfig::crossover_n encodes, core::tune_batch_crossover learns and
/// core::TuningTable persists.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/half.hpp"
#include "core/batch.hpp"
#include "rand/matrix_gen.hpp"

using namespace unisvd;

namespace {

template <class T>
double problems_per_sec(ka::Backend& backend,
                        const std::vector<ConstMatrixView<T>>& views,
                        BatchSchedule schedule, index_t crossover_n) {
  BatchConfig cfg;
  cfg.schedule = schedule;
  cfg.crossover_n = crossover_n;
  const double secs = benchutil::measure_seconds(
      [&] { (void)svd_values_batched_report<T>(views, cfg, backend); }, 1, 0.2);
  return static_cast<double>(views.size()) / secs;
}

template <class T>
void run_precision(benchutil::JsonSink& sink, ka::Backend& backend,
                   index_t max_n) {
  benchutil::print_header(std::string("batched svdvals throughput — ") +
                          std::string(precision_traits<T>::name) + " (backend: " +
                          std::string(backend.name()) + ")");
  std::printf("%6s %6s | %12s %12s %12s %12s | %9s\n", "n", "batch", "inter p/s",
              "intra p/s", "mixed p/s", "auto p/s", "inter/intra");

  rnd::Xoshiro256 rng(99);
  for (const index_t n : {32, 64, 128, 256}) {
    if (n > max_n) break;
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4},
                                         std::size_t{16}, std::size_t{64}}) {
      std::vector<Matrix<T>> problems;
      std::vector<ConstMatrixView<T>> views;
      problems.reserve(batch_size);
      for (std::size_t p = 0; p < batch_size; ++p) {
        problems.push_back(rnd::round_to<T>(rnd::gaussian_matrix(n, n, rng)));
        views.push_back(problems.back().view());
      }

      const index_t crossover = BatchConfig{}.crossover_n;
      const double inter =
          problems_per_sec<T>(backend, views, BatchSchedule::InterProblem, crossover);
      const double intra =
          problems_per_sec<T>(backend, views, BatchSchedule::IntraProblem, crossover);
      const double mixed =
          problems_per_sec<T>(backend, views, BatchSchedule::Mixed, crossover);
      const double aut =
          problems_per_sec<T>(backend, views, BatchSchedule::Auto, crossover);
      std::printf("%6lld %6zu | %12.1f %12.1f %12.1f %12.1f | %9.2f\n",
                  static_cast<long long>(n), batch_size, inter, intra, mixed, aut,
                  inter / intra);
      const std::string base = std::string("batched/") +
                               std::string(precision_traits<T>::name) + "/n=" +
                               std::to_string(static_cast<long long>(n)) +
                               "/batch=" + std::to_string(batch_size);
      sink.record(base + "/inter", inter, "problems/s");
      sink.record(base + "/intra", intra, "problems/s");
      sink.record(base + "/mixed", mixed, "problems/s");
      sink.record(base + "/auto", aut, "problems/s");
    }
  }
}

/// The ragged serving-traffic scenario the Mixed schedule targets: a few
/// large problems plus a long queue of small ones. Inter serializes each
/// large problem inside one slot; intra runs the smalls one by one with
/// underused kernels; mixed overlaps both phases.
void run_ragged(benchutil::JsonSink& sink, ka::Backend& backend, index_t max_n) {
  benchutil::print_header("ragged batch (few large + many small) — FP64 (backend: " +
                          std::string(backend.name()) + ")");
  const index_t large_n = std::min<index_t>(max_n, 256);
  const index_t small_n = 32;
  const std::size_t num_large = 2;
  const std::size_t num_small = 24;
  const index_t crossover = 64;

  rnd::Xoshiro256 rng(7);
  std::vector<Matrix<double>> problems;
  std::vector<ConstMatrixView<double>> views;
  for (std::size_t p = 0; p < num_large; ++p) {
    problems.push_back(rnd::gaussian_matrix(large_n, large_n, rng));
  }
  for (std::size_t p = 0; p < num_small; ++p) {
    problems.push_back(rnd::gaussian_matrix(small_n, small_n, rng));
  }
  views.reserve(problems.size());
  for (const auto& p : problems) views.push_back(p.view());

  std::printf("shape: %zu x %lldx%lld + %zu x %lldx%lld, crossover_n = %lld\n",
              num_large, static_cast<long long>(large_n),
              static_cast<long long>(large_n), num_small,
              static_cast<long long>(small_n), static_cast<long long>(small_n),
              static_cast<long long>(crossover));

  const std::pair<const char*, BatchSchedule> schedules[] = {
      {"inter", BatchSchedule::InterProblem},
      {"intra", BatchSchedule::IntraProblem},
      {"mixed", BatchSchedule::Mixed}};
  double best_pure = 0.0;
  double mixed_rate = 0.0;
  for (const auto& [name, schedule] : schedules) {
    const double rate = problems_per_sec<double>(backend, views, schedule, crossover);
    std::printf("  %-5s %10.1f problems/s\n", name, rate);
    sink.record(std::string("ragged/") + name, rate, "problems/s");
    if (schedule == BatchSchedule::Mixed) {
      mixed_rate = rate;
    } else {
      best_pure = std::max(best_pure, rate);
    }
  }
  std::printf("  mixed / best-pure speedup: %.2fx\n", mixed_rate / best_pure);
  sink.record("ragged/mixed_vs_best_pure", mixed_rate / best_pure, "x");
}

/// Tiny-problem section: the fused small_svd path (one stack-resident
/// call per problem: bidiagonalization plus the lean values-only chase)
/// against the tiled pipeline's ValuesOnly solve on the SAME batches — the
/// dispatch SvdConfig::small_svd_threshold encodes and
/// core::tune_small_svd_threshold learns. Each size times kPairs
/// interleaved (fused, pipeline) batch pairs, alternating which side runs
/// first, and gates the MEDIAN pipeline/fused time ratio: a best-of figure
/// sits on the tail of the noise and flips between runs. The pairs' run
/// hygiene (CPU/wall, host steal) prints beside the median, with a warning
/// when a pooled run was starved; no gate reads it. Returns false when the
/// median misses its gate at any size.
bool run_tiny(benchutil::JsonSink& sink, ka::Backend& backend) {
  benchutil::print_header("tiny problems: fused small_svd vs pipeline — FP32 "
                          "(backend: " + std::string(backend.name()) + ")");
  constexpr std::size_t batch_size = 256;
  constexpr int kPairs = 15;
  std::printf("%6s %6s | %12s %12s | %8s %8s %8s | %6s | %s\n", "n", "batch",
              "fused p/s", "pipeline p/s", "q1", "median", "q3", "gate", "run hygiene");

  bool gate_ok = true;
  rnd::Xoshiro256 rng(1234);
  // Gates sit below the measured median speedup's interquartile range on a
  // 4-core x86 box (16x16: median 6.36x, quartiles 6.26 / 6.43; 32x32:
  // 2.83x, quartiles 2.79 / 2.87).
  const std::pair<index_t, double> sizes[] = {{16, 5.0}, {32, 2.5}};
  for (const auto& [n, gate] : sizes) {
    std::vector<Matrix<float>> problems;
    std::vector<ConstMatrixView<float>> views;
    problems.reserve(batch_size);
    for (std::size_t p = 0; p < batch_size; ++p) {
      problems.push_back(rnd::round_to<float>(rnd::gaussian_matrix(n, n, rng)));
      views.push_back(problems.back().view());
    }

    const auto batch_seconds = [&](index_t threshold) {
      BatchConfig cfg;
      cfg.schedule = BatchSchedule::InterProblem;
      cfg.svd.small_svd_threshold = threshold;
      const auto t0 = std::chrono::steady_clock::now();
      (void)svd_values_batched_report<float>(views, cfg, backend);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
    };
    (void)batch_seconds(n);  // warm the pool and first-touch both paths
    (void)batch_seconds(0);
    std::vector<double> fused_s, pipeline_s, ratios;
    const benchutil::RunHygiene hygiene;
    for (int r = 0; r < kPairs; ++r) {
      double fused = 0.0;
      double pipeline = 0.0;
      if (r % 2 == 0) {
        fused = batch_seconds(n);
        pipeline = batch_seconds(0);
      } else {
        pipeline = batch_seconds(0);
        fused = batch_seconds(n);
      }
      fused_s.push_back(fused);
      pipeline_s.push_back(pipeline);
      ratios.push_back(pipeline / fused);
    }
    const benchutil::RunHygiene::Reading hy = hygiene.read();
    const benchutil::Quartiles q = benchutil::quartiles(ratios);
    const double fused_rate =
        static_cast<double>(batch_size) / benchutil::quartiles(fused_s).median;
    const double pipeline_rate =
        static_cast<double>(batch_size) / benchutil::quartiles(pipeline_s).median;
    std::printf("%6lld %6zu | %12.1f %12.1f | %7.2fx %7.2fx %7.2fx | %5.1fx | %s\n",
                static_cast<long long>(n), batch_size, fused_rate, pipeline_rate, q.q1,
                q.median, q.q3, gate, hy.text().c_str());
    hy.warn_if_starved(backend.batch_pool() != nullptr ? backend.batch_pool()->size() : 1,
                       "n=" + std::to_string(static_cast<long long>(n)) + " pairs");
    const std::string base =
        "tiny/fp32/n=" + std::to_string(static_cast<long long>(n));
    sink.record(base + "/fused", fused_rate, "problems/s");
    sink.record(base + "/pipeline", pipeline_rate, "problems/s");
    sink.record(base + "/speedup", q.median, "x");
    sink.record(base + "/speedup_q1", q.q1, "x");
    sink.record(base + "/speedup_q3", q.q3, "x");
    sink.record(base + "/gate", gate, "x");
    sink.record(base + "/cpu_per_wall", hy.cpu_per_wall, "ratio");
    if (hy.steal_seconds >= 0.0) sink.record(base + "/steal", hy.steal_seconds, "s");
    if (q.median < gate) {
      std::printf("  FAILED: median fused speedup at n=%lld below the %.1fx gate\n",
                  static_cast<long long>(n), gate);
      gate_ok = false;
    }
  }
  return gate_ok;
}

}  // namespace

int main(int argc, char** argv) {
  auto sink = benchutil::JsonSink::from_args("batched_throughput", argc, argv);
  // Positional args with the --json pair stripped out.
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    pos.emplace_back(argv[i]);
  }
  const int threads_arg = pos.size() > 0 ? std::atoi(pos[0].c_str()) : 0;
  const unsigned threads = threads_arg > 0 ? static_cast<unsigned>(threads_arg) : 0;
  const index_t max_n = pos.size() > 1 ? std::atoll(pos[1].c_str()) : 128;
  ka::CpuBackend backend(threads);
  std::printf("pool width: %u threads\n", backend.pool().size());
  run_precision<double>(sink, backend, max_n);
  run_precision<float>(sink, backend, max_n);
  run_precision<Half>(sink, backend, max_n);
  run_ragged(sink, backend, max_n);
  const bool tiny_ok = run_tiny(sink, backend);
  return sink.flush() && tiny_ok ? 0 : 1;
}
