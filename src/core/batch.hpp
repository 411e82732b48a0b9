#pragma once
/// \file batch.hpp
/// Batched singular value computation: many independent SVD problems
/// solved in one call, the serving-scale regime of batched GPU solvers
/// (Abdelfattah et al.; Boukaram et al.) layered on the unified pipeline.
///
/// Three scheduling policies, chosen per problem:
///
///   * InterProblem — one problem per ka::ThreadPool slot. Each problem
///     runs its full pipeline on one thread (nested kernel launches execute
///     inline; see ThreadPool::parallel_for reentrancy), so many small
///     matrices saturate the pool with zero launch synchronization between
///     them.
///   * IntraProblem — problems run one after another, each using the whole
///     backend for its own kernel launches. Right for matrices big enough
///     that a single problem can occupy every core.
///   * Mixed — work-stealing over a ragged batch: every problem is slot
///     resident (large problems claimed first, then the small-problem queue
///     drains inter-problem), and slots left idle once the queue dries up
///     steal workgroups from the large problems' kernel launches
///     (ThreadPool work-stealing mode). Large tails no longer serialize.
///
/// BatchSchedule::Auto picks inter/intra per problem by a size crossover
/// (BatchConfig::crossover_n), which core/tuner.hpp can learn empirically
/// (tune_batch_crossover) and persist in a core::TuningTable; on a ragged
/// batch (large problems above the crossover plus a small-problem queue)
/// Auto promotes the whole batch to the Mixed schedule. Batches may
/// be uniform or ragged: any mix of sizes, shapes (rectangular supported) —
/// precision is fixed per call by the element type. Results are identical
/// to looping svd_values one matrix at a time, whichever schedule runs. One
/// caveat: with a TraceRecorder attached, inter-problem and mixed runs
/// interleave launch records from concurrent problems in nondeterministic
/// order (each problem's own launch sequence is unchanged) — use the intra
/// schedule when comparing trace streams.
///
/// Failure handling is policy-driven (BatchConfig::on_error): Throw
/// preserves the historic all-or-nothing contract, Isolate records a
/// per-problem SvdStatus in the report so one bad matrix cannot poison the
/// rest of the batch.
///
/// Usage:
///   std::vector<ConstMatrixView<float>> batch = ...;
///   auto sigma = svd_values_batched<float>(batch);   // sigma[i] ~ batch[i]

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/svd.hpp"

namespace unisvd {

/// Sketch seed of problem `problem_index` inside a batched truncated solve
/// with base seed `base_seed` (TruncConfig::seed): a SplitMix64-style mix
/// of the two, so every problem draws a DECORRELATED Gaussian sketch —
/// sharing one sketch across a batch would make all problems fail together
/// on an input adversarial to that particular draw. Deterministic per
/// (base_seed, problem_index), independent of schedule and thread count;
/// pass the derived seed to a solo svd_truncated call to reproduce one
/// batch entry exactly.
[[nodiscard]] constexpr std::uint64_t trunc_problem_seed(
    std::uint64_t base_seed, std::size_t problem_index) noexcept {
  // SplitMix64 finalizer over base + (index+1) * golden-gamma; the +1 keeps
  // problem 0 decorrelated from a solo call made with the raw base seed.
  std::uint64_t z =
      base_seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(problem_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// How the problems of a batch map onto execution resources.
enum class BatchSchedule {
  Auto,          ///< per problem: InterProblem below the crossover, else
                 ///< Intra — unless the batch is *ragged* (see BatchConfig:
                 ///< at least one problem above the crossover AND at least
                 ///< two at or below it), in which case Auto
                 ///< runs the whole batch under the Mixed work-stealing
                 ///< schedule: exactly the regime Mixed was built for, where
                 ///< a large tail would otherwise serialize behind the
                 ///< inter-problem pass
  InterProblem,  ///< one problem per pool slot, serial inside each problem
  IntraProblem,  ///< problems sequential, kernels parallel inside each
  Mixed          ///< work-stealing: slot-resident problems, idle slots help
                 ///< the large problems' kernel launches
};

[[nodiscard]] constexpr const char* to_string(BatchSchedule s) noexcept {
  switch (s) {
    case BatchSchedule::Auto: return "auto";
    case BatchSchedule::InterProblem: return "inter";
    case BatchSchedule::IntraProblem: return "intra";
    case BatchSchedule::Mixed: return "mixed";
  }
  return "?";
}

/// What a per-problem failure does to the rest of the batch.
enum class ErrorPolicy {
  Throw,   ///< first failure aborts the whole call with unisvd::Error
           ///< (all-or-nothing, the historic contract)
  Isolate  ///< failures are recorded in the per-problem SvdReport (status,
           ///< status_message); every healthy problem still completes
};

[[nodiscard]] constexpr const char* to_string(ErrorPolicy p) noexcept {
  switch (p) {
    case ErrorPolicy::Throw: return "throw";
    case ErrorPolicy::Isolate: return "isolate";
  }
  return "?";
}

/// Options of the batched solver.
struct BatchConfig {
  /// Per-problem solver options (kernels, finiteness check, auto-scale).
  SvdConfig svd;
  /// Scheduling policy. Auto decides per problem from `crossover_n`.
  BatchSchedule schedule = BatchSchedule::Auto;
  /// Failure policy: Throw (default, all-or-nothing) or Isolate
  /// (per-problem status, no exception for problem-level failures).
  ErrorPolicy on_error = ErrorPolicy::Throw;
  /// Size crossover used by Auto and Mixed: a problem with max(rows, cols)
  /// <= crossover_n is small enough that inter-problem parallelism beats
  /// parallelizing its own kernels. Default from CPU-backend measurements;
  /// tune_batch_crossover (core/tuner.hpp) learns the value for a given
  /// backend and precision, and core::TuningTable persists it
  /// (core::tuned_batch_config builds a config from the table).
  ///
  /// Ragged-batch heuristic (BatchSchedule::Auto): a batch is considered
  /// ragged when it contains at least one problem ABOVE this crossover and
  /// at least two problems at or below it. That is
  /// precisely the shape where the classic Auto split (inter pass, then
  /// sequential intra tail) leaves the pool idle while the large problems
  /// serialize — so Auto promotes the whole batch to the Mixed
  /// work-stealing schedule instead (results are identical; only the
  /// mapping onto threads changes). Homogeneous batches (all small or all
  /// large) keep the classic per-problem resolution.
  index_t crossover_n = 192;
  /// Contended-pool fallback for the engine's pool-based passes
  /// (ka::ParallelForOptions::busy_fallback_inline): when another thread
  /// already owns the backend pool's job slot, the batch degrades to inline
  /// serial execution on the calling thread instead of queueing behind the
  /// owner. Built for long-lived serving workers (serve::SvdService, which
  /// defaults it on) that drain batches concurrently; results are identical
  /// either way. Off preserves the historic queue-on-submit behaviour.
  bool pool_busy_inline = false;

  void validate() const {
    svd.validate();
    UNISVD_REQUIRE(crossover_n >= 0, "BatchConfig: crossover_n must be >= 0");
  }
};

/// Result of one batched call with per-problem diagnostics.
struct BatchReport {
  /// Per-problem reports, in input order (values, stage times, padding,
  /// and — under ErrorPolicy::Isolate — the per-problem status).
  std::vector<SvdReport> reports;
  /// Schedule each problem actually ran under (InterProblem, IntraProblem,
  /// or Mixed for a slot whose kernel launches were open to work stealing;
  /// never Auto). Pool-based schedules demote to Intra when the backend has
  /// no thread pool to spread problems over.
  std::vector<BatchSchedule> schedules;
  /// Stage times summed over all problems (CPU seconds, not wall clock).
  ka::StageTimes stage_times;
  /// Distinct threads that executed problems — > 1 shows the inter-problem
  /// path really spread across the pool. (Stolen kernel workgroups run on
  /// additional threads not counted here.)
  std::size_t threads_used = 0;
  /// Wall-clock seconds for the whole batch.
  double seconds = 0.0;

  /// True when every problem solved (status Ok). Always true for reports
  /// returned under ErrorPolicy::Throw (failures throw instead).
  [[nodiscard]] bool all_ok() const noexcept {
    for (const auto& r : reports) {
      if (r.status != SvdStatus::Ok) return false;
    }
    return true;
  }
  /// Number of problems whose status is not Ok.
  [[nodiscard]] std::size_t failed_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : reports) {
      if (r.status != SvdStatus::Ok) ++n;
    }
    return n;
  }
};

// ---------------------------------------------------------------------------
// Incremental batch draining: the scheduling engine as a public primitive
// ---------------------------------------------------------------------------
//
// The batched entry points below are one-shot: a span of views in, a report
// out. A continuously-fed system (serve::SvdService) instead drains jobs out
// of a live queue in waves and needs the SAME engine — schedules, work
// stealing, fault isolation — callable per drained wave without
// materializing a span-of-views batch. `unisvd::batch` exposes exactly that
// seam: the scheduler over an extents vector plus an opaque per-problem
// callback, the extent classifier it keys on, and the classified
// per-problem solvers the batched drivers themselves run.

namespace batch {

/// Scheduling cost class of one problem, as the batched drivers compute it:
/// max(rows, cols) on the pipeline, but min(rows, cols) when the fused
/// tiny-problem path will take the solve (small_svd_applicable) — a 200 x 16
/// problem is one fused kernel, not a 200-extent pipeline run. Empty shapes
/// class as extent 1 (they fail classification before touching a kernel).
[[nodiscard]] index_t scheduling_extent(index_t rows, index_t cols,
                                        index_t small_svd_threshold) noexcept;

/// Scheduling outcome of one engine run (everything a batched report needs
/// besides the per-problem payloads the solver callback wrote).
struct DrainRun {
  std::vector<BatchSchedule> schedules;  ///< per problem; never Auto
  std::size_t threads_used = 0;          ///< distinct problem-solving threads
  double seconds = 0.0;                  ///< wall clock of the run
};

/// The ONE scheduling engine behind every batched driver — and the serving
/// layer's per-wave drain primitive. Maps problems of the given extents
/// onto the backend under `config`, invoking `solve(p)` exactly once per
/// problem — from pool slots (InterProblem), sequentially (IntraProblem),
/// or inside a work-stealing job (Mixed: small problems keep their launches
/// inline and thread-resident, large problems publish workgroups for idle
/// slots). Auto promotes ragged extent sets to Mixed exactly as the batched
/// drivers do. The callback owns per-problem failure handling; exceptions
/// it lets escape abort the whole run (the ErrorPolicy::Throw contract).
DrainRun run_scheduled_batch(const std::vector<index_t>& extents,
                             const BatchConfig& config, ka::Backend& backend,
                             const std::function<void(std::size_t)>& solve);

/// Classified single-problem dense solve — the per-problem body of
/// svd_values_batched_report under ErrorPolicy::Isolate, as a standalone
/// call: validates shape and (per config.check_finite) finiteness, runs
/// svd_values_report, and classifies any failure into the report's
/// status/status_message instead of throwing. `what`/`index` only shape the
/// status message. Never throws for problem-level failures.
template <class T>
[[nodiscard]] SvdReport solve_one_classified(ConstMatrixView<T> a,
                                             const SvdConfig& config,
                                             ka::Backend& backend,
                                             const char* what = "svd_service",
                                             std::size_t index = 0);

/// Classified single-problem randomized truncated solve: the truncated
/// counterpart of solve_one_classified (svd_truncated_report under the
/// hood; the seed is used as given — no batch decorrelation).
template <class T>
[[nodiscard]] TruncReport solve_one_trunc_classified(
    ConstMatrixView<T> a, const TruncConfig& config, ka::Backend& backend,
    const char* what = "svd_service", std::size_t index = 0);

}  // namespace batch

/// Solve every problem of the batch and return full diagnostics. Under
/// ErrorPolicy::Throw (default) the first invalid problem (empty matrix,
/// non-finite input with check_finite, solver failure) raises unisvd::Error
/// and no partial results are returned; under ErrorPolicy::Isolate the
/// failure is recorded in that problem's report (status, status_message,
/// empty values) and every other problem completes normally. An empty batch
/// returns an empty report.
template <class T>
BatchReport svd_values_batched_report(std::span<const ConstMatrixView<T>> batch,
                                      const BatchConfig& config = {},
                                      ka::Backend& backend = ka::default_backend());

/// Singular values of every problem (descending, min(m_i, n_i) each), in
/// storage precision — the batched `svdvals`. FP16 narrows through the
/// correctly-rounded half_from_double path (common/half.hpp). Under
/// ErrorPolicy::Isolate a failed problem yields an empty vector (inspect
/// the report variant for its status).
template <class T>
std::vector<std::vector<T>> svd_values_batched(
    std::span<const ConstMatrixView<T>> batch, const BatchConfig& config = {},
    ka::Backend& backend = ka::default_backend()) {
  const BatchReport rep = svd_values_batched_report<T>(batch, config, backend);
  std::vector<std::vector<T>> out(rep.reports.size());
  for (std::size_t p = 0; p < out.size(); ++p) {
    const auto& values = rep.reports[p].values;
    out[p].resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      out[p][i] = narrow_from_double<T>(values[i]);
    }
  }
  return out;
}

/// Batched full SVD with diagnostics: svd_values_batched_report with the
/// per-problem job upgraded to Thin when left at ValuesOnly. Every schedule
/// (Auto/Inter/Intra/Mixed) and both error policies work exactly as for the
/// values-only batched solver — vector accumulation rides the same
/// per-problem pipeline, launch path and fault isolation. Per-problem
/// reports carry u / vt (empty on isolated failures).
template <class T>
BatchReport svd_batched_report(std::span<const ConstMatrixView<T>> batch,
                               BatchConfig config = {},
                               ka::Backend& backend = ka::default_backend()) {
  if (config.svd.job == SvdJob::ValuesOnly) config.svd.job = SvdJob::Thin;
  return svd_values_batched_report<T>(batch, config, backend);
}

/// Batched full SVD in storage precision: one Svd (u, values, vt) per
/// problem, in input order — the batched counterpart of unisvd::svd. Under
/// ErrorPolicy::Isolate a failed problem yields an Svd with empty values
/// and factors (inspect svd_batched_report for its status).
template <class T>
std::vector<Svd<T>> svd_batched(std::span<const ConstMatrixView<T>> batch,
                                const BatchConfig& config = {},
                                ka::Backend& backend = ka::default_backend()) {
  const BatchReport rep = svd_batched_report<T>(batch, config, backend);
  std::vector<Svd<T>> out;
  out.reserve(rep.reports.size());
  for (const auto& r : rep.reports) {
    out.push_back(detail::narrow_factors<Svd, T>(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Batched randomized truncated SVD
// ---------------------------------------------------------------------------

/// Result of one batched truncated call: TruncReports in input order plus
/// the same scheduling diagnostics BatchReport carries — both batched
/// drivers ride ONE scheduling engine, so schedules, work stealing and
/// fault isolation behave identically.
struct TruncBatchReport {
  std::vector<TruncReport> reports;      ///< per-problem, input order
  std::vector<BatchSchedule> schedules;  ///< schedule each problem ran under
  ka::StageTimes stage_times;            ///< summed over problems (CPU seconds)
  std::size_t threads_used = 0;          ///< distinct problem-solving threads
  double seconds = 0.0;                  ///< wall clock of the whole batch

  [[nodiscard]] bool all_ok() const noexcept {
    for (const auto& r : reports) {
      if (r.status != SvdStatus::Ok) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t failed_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : reports) {
      if (r.status != SvdStatus::Ok) ++n;
    }
    return n;
  }
};

/// Batched randomized truncated SVD with diagnostics: every problem is
/// solved by svd_truncated_report under `trunc` (rank, oversample, power
/// iterations, adaptive tol). The sketch seed is NOT shared: problem p runs
/// under trunc_problem_seed(trunc.seed, p), so each problem draws its own
/// deterministic Gaussian sketch and matches the solo svd_truncated call
/// made with that derived seed. `config`
/// supplies the SCHEDULING side only — BatchSchedule (Auto/Inter/Intra/
/// Mixed work stealing), crossover, and ErrorPolicy; its `svd` member is
/// ignored in favor of trunc.svd. Under Isolate a failed problem records
/// its status in the report and the rest of the batch completes.
template <class T>
TruncBatchReport svd_truncated_batched_report(
    std::span<const ConstMatrixView<T>> batch, const TruncConfig& trunc = {},
    const BatchConfig& config = {}, ka::Backend& backend = ka::default_backend());

/// Batched truncated SVD in storage precision: one SvdTrunc (u, values, vt)
/// per problem, in input order. Under ErrorPolicy::Isolate a failed problem
/// yields empty values/factors (inspect the report variant for its status).
template <class T>
std::vector<SvdTrunc<T>> svd_truncated_batched(
    std::span<const ConstMatrixView<T>> batch, const TruncConfig& trunc = {},
    const BatchConfig& config = {}, ka::Backend& backend = ka::default_backend()) {
  const TruncBatchReport rep =
      svd_truncated_batched_report<T>(batch, trunc, config, backend);
  std::vector<SvdTrunc<T>> out;
  out.reserve(rep.reports.size());
  for (const auto& r : rep.reports) {
    out.push_back(detail::narrow_factors<SvdTrunc, T>(r));
  }
  return out;
}

}  // namespace unisvd
