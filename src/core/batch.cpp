#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "ka/thread_pool.hpp"
#include "small/small_svd.hpp"

namespace unisvd {

namespace {

/// Auto runs the inter-problem pass only when at least this many problems
/// qualify (a lone small problem gains nothing from the pool); also the
/// minimum small-problem count for the ragged-batch promotion to Mixed.
constexpr std::size_t kMinInterProblems = 2;

[[nodiscard]] bool pool_usable(ka::Backend& backend) {
  ka::ThreadPool* pool = backend.batch_pool();
  return pool != nullptr && pool->size() > 1 && !pool->in_job();
}

/// The Auto ragged-batch heuristic (documented on BatchSchedule::Auto and
/// BatchConfig::crossover_n): promote Auto to the Mixed work-stealing
/// schedule when the batch mixes regimes — at least one problem above the
/// crossover (something to steal workgroups from) and at least
/// kMinInterProblems at or below it (a queue worth draining
/// inter-problem). Requires a usable pool; results are schedule-invariant,
/// so the promotion only changes the mapping onto threads.
[[nodiscard]] bool auto_prefers_mixed(const std::vector<index_t>& extents,
                                      const BatchConfig& config,
                                      ka::Backend& backend) {
  if (!pool_usable(backend)) return false;
  std::size_t small = 0;
  std::size_t large = 0;
  for (const index_t e : extents) {
    (e <= config.crossover_n ? small : large) += 1;
  }
  return large >= 1 && small >= kMinInterProblems;
}

/// Resolve Auto/Mixed per problem; demote pool-based schedules when the
/// backend cannot spread problems (no pool, or a pool of width 1).
std::vector<BatchSchedule> resolve_schedules(const std::vector<index_t>& extents,
                                             const BatchConfig& config,
                                             ka::Backend& backend) {
  std::vector<BatchSchedule> schedules(extents.size(), BatchSchedule::IntraProblem);
  if (!pool_usable(backend)) return schedules;

  if (config.schedule == BatchSchedule::InterProblem) {
    std::fill(schedules.begin(), schedules.end(), BatchSchedule::InterProblem);
    return schedules;
  }
  if (config.schedule == BatchSchedule::IntraProblem) return schedules;

  if (config.schedule == BatchSchedule::Mixed) {
    // Everything is slot resident; problems above the crossover run with
    // their kernel launches published for work stealing.
    for (std::size_t p = 0; p < extents.size(); ++p) {
      schedules[p] = extents[p] <= config.crossover_n ? BatchSchedule::InterProblem
                                                      : BatchSchedule::Mixed;
    }
    return schedules;
  }

  std::size_t small = 0;
  for (const index_t e : extents) {
    if (e <= config.crossover_n) ++small;
  }
  if (small < kMinInterProblems) return schedules;
  for (std::size_t p = 0; p < extents.size(); ++p) {
    if (extents[p] <= config.crossover_n) {
      schedules[p] = BatchSchedule::InterProblem;
    }
  }
  return schedules;
}

}  // namespace

namespace batch {

/// The ONE scheduling engine behind every batched driver (dense values,
/// dense vectors, randomized truncated) and the serving layer's per-wave
/// drain primitive: maps problems of the given extents onto the backend
/// under `config`, invoking `solve(p)` once per problem — from pool slots
/// (InterProblem), sequentially (IntraProblem), or inside a work-stealing
/// job (Mixed; small problems keep their launches inline, the large
/// problems' launches publish workgroups for idle slots, with chunked range
/// claims — ThreadPool::ParallelForOptions). The callback owns per-problem
/// failure handling; exceptions it lets escape abort the whole batch (the
/// ErrorPolicy::Throw contract).
DrainRun run_scheduled_batch(const std::vector<index_t>& extents,
                             const BatchConfig& original_config,
                             ka::Backend& backend,
                             const std::function<void(std::size_t)>& solve) {
  // Auto on a ragged batch runs as Mixed (see auto_prefers_mixed).
  BatchConfig config = original_config;
  if (config.schedule == BatchSchedule::Auto &&
      auto_prefers_mixed(extents, config, backend)) {
    config.schedule = BatchSchedule::Mixed;
  }

  DrainRun run;
  run.schedules = resolve_schedules(extents, config, backend);
  if (extents.empty()) return run;

  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::thread::id> problem_threads(extents.size());
  const auto solve_into_slot = [&](std::size_t p) {
    problem_threads[p] = std::this_thread::get_id();
    solve(p);
  };

  if (config.schedule == BatchSchedule::Mixed && pool_usable(backend)) {
    // Work-stealing mixed run: one job over the whole batch. Large problems
    // are claimed first (they hold a slot longest, and their kernel
    // launches publish nested work), the small-problem queue drains
    // inter-problem behind them, and slots that run out of queued problems
    // steal workgroup ranges from the still-running large slots.
    std::vector<std::size_t> order(extents.size());
    for (std::size_t p = 0; p < extents.size(); ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const bool la = run.schedules[a] == BatchSchedule::Mixed;
      const bool lb = run.schedules[b] == BatchSchedule::Mixed;
      if (la != lb) return la;  // large (Mixed-tagged) problems first
      if (la && extents[a] != extents[b]) {
        return extents[a] > extents[b];  // longest large first
      }
      return false;  // small problems keep input order
    });
    ka::ThreadPool& pool = *backend.batch_pool();
    ka::ParallelForOptions opts;
    opts.work_stealing = true;
    opts.busy_fallback_inline = config.pool_busy_inline;
    pool.parallel_for(
        static_cast<index_t>(order.size()),
        [&](index_t k) {
          const std::size_t p = order[static_cast<std::size_t>(k)];
          if (run.schedules[p] == BatchSchedule::InterProblem) {
            // Small problems keep their launches inline and thread-resident
            // (the InterProblem contract): no publish overhead, no stealing.
            ka::ScopedInlineNested inline_nested;
            solve_into_slot(p);
          } else {
            solve_into_slot(p);
          }
        },
        opts);
  } else {
    std::vector<std::size_t> inter;
    std::vector<std::size_t> intra;
    for (std::size_t p = 0; p < extents.size(); ++p) {
      (run.schedules[p] == BatchSchedule::InterProblem ? inter : intra).push_back(p);
    }

    // Inter-problem pass: one problem per pool slot. Inside a slot the
    // problem's own kernel launches run inline (ThreadPool reentrancy), so
    // per-problem reports — stage times included — are written by exactly
    // one thread each and never race.
    if (!inter.empty()) {
      ka::ThreadPool& pool = *backend.batch_pool();
      ka::ParallelForOptions opts;
      opts.busy_fallback_inline = config.pool_busy_inline;
      pool.parallel_for(
          static_cast<index_t>(inter.size()),
          [&](index_t k) { solve_into_slot(inter[static_cast<std::size_t>(k)]); },
          opts);
    }

    // Intra-problem pass: sequential over problems, full backend per problem.
    for (const std::size_t p : intra) {
      solve_into_slot(p);
    }
  }

  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<std::thread::id> distinct(problem_threads);
  std::sort(distinct.begin(), distinct.end());
  run.threads_used = static_cast<std::size_t>(
      std::unique(distinct.begin(), distinct.end()) - distinct.begin());
  return run;
}

index_t scheduling_extent(index_t rows, index_t cols,
                          index_t small_svd_threshold) noexcept {
  if (rows < 1 || cols < 1) return 1;  // fails classification, never scheduled
  return smallsvd::small_svd_applicable(rows, cols, small_svd_threshold)
             ? std::min(rows, cols)
             : std::max(rows, cols);
}

}  // namespace batch

namespace {

/// Scheduling extents of a batch. A problem's cost class is its LARGEST
/// dimension on the pipeline — but a problem the fused tiny path will take
/// (min dim at or below `small_threshold`) costs like its SMALL dimension:
/// a 200 x 16 solve is one fused call, not a 200-extent pipeline run.
/// Classifying it small keeps ragged batches straddling the threshold on
/// the inter-problem side of the crossover where they belong.
template <class T>
std::vector<index_t> extents_of(std::span<const ConstMatrixView<T>> batch,
                                index_t small_threshold) {
  std::vector<index_t> extents(batch.size());
  for (std::size_t p = 0; p < batch.size(); ++p) {
    const auto& a = batch[p];
    extents[p] =
        ::unisvd::batch::scheduling_extent(a.rows(), a.cols(), small_threshold);
  }
  return extents;
}

/// Shared per-problem failure classification: validates shape/finiteness,
/// runs `run_solver` (which must not re-scan for finiteness), classifies
/// exceptions, and applies the error policy. `Report` is SvdReport or
/// TruncReport — both carry status/status_message/values.
template <class T, class Report, class RunSolver>
void solve_classified(const ConstMatrixView<T>& a, std::size_t p,
                      bool check_finite, ErrorPolicy on_error, const char* what,
                      Report& out, RunSolver&& run_solver) {
  std::string reason;
  if (a.rows() < 1 || a.cols() < 1) {
    out.status = SvdStatus::InvalidInput;
    reason = "matrix must be non-empty";
  } else if (check_finite && !ref::all_finite(a)) {
    out.status = SvdStatus::NonFinite;
    reason = "input contains NaN or Inf";
  } else {
    try {
      out = run_solver(a);
    } catch (const std::exception& e) {
      out = Report{};
      out.status = SvdStatus::InternalError;
      reason = e.what();
    }
  }
  if (out.status != SvdStatus::Ok) {
    out.values.clear();
    out.status_message = std::string(what) + ": problem " + std::to_string(p) +
                         ": " + reason + " [" + to_string(out.status) + "]";
    if (on_error == ErrorPolicy::Throw) throw Error(out.status_message);
  }
}

}  // namespace

namespace batch {

template <class T>
SvdReport solve_one_classified(ConstMatrixView<T> a, const SvdConfig& config,
                               ka::Backend& backend, const char* what,
                               std::size_t index) {
  SvdReport out;
  solve_classified<T>(a, index, config.check_finite, ErrorPolicy::Isolate, what,
                      out, [&](const ConstMatrixView<T>& v) {
                        SvdConfig cfg = config;
                        cfg.check_finite = false;  // verified by the classifier
                        return svd_values_report<T>(v, cfg, backend);
                      });
  return out;
}

template SvdReport solve_one_classified<Half>(ConstMatrixView<Half>,
                                              const SvdConfig&, ka::Backend&,
                                              const char*, std::size_t);
template SvdReport solve_one_classified<float>(ConstMatrixView<float>,
                                               const SvdConfig&, ka::Backend&,
                                               const char*, std::size_t);
template SvdReport solve_one_classified<double>(ConstMatrixView<double>,
                                                const SvdConfig&, ka::Backend&,
                                                const char*, std::size_t);

template <class T>
TruncReport solve_one_trunc_classified(ConstMatrixView<T> a,
                                       const TruncConfig& config,
                                       ka::Backend& backend, const char* what,
                                       std::size_t index) {
  TruncReport out;
  solve_classified<T>(a, index, config.svd.check_finite, ErrorPolicy::Isolate,
                      what, out, [&](const ConstMatrixView<T>& v) {
                        TruncConfig cfg = config;
                        cfg.svd.check_finite = false;  // verified above
                        return svd_truncated_report<T>(v, cfg, backend);
                      });
  return out;
}

template TruncReport solve_one_trunc_classified<Half>(ConstMatrixView<Half>,
                                                      const TruncConfig&,
                                                      ka::Backend&, const char*,
                                                      std::size_t);
template TruncReport solve_one_trunc_classified<float>(ConstMatrixView<float>,
                                                       const TruncConfig&,
                                                       ka::Backend&, const char*,
                                                       std::size_t);
template TruncReport solve_one_trunc_classified<double>(ConstMatrixView<double>,
                                                        const TruncConfig&,
                                                        ka::Backend&, const char*,
                                                        std::size_t);

}  // namespace batch

template <class T>
BatchReport svd_values_batched_report(std::span<const ConstMatrixView<T>> batch,
                                      const BatchConfig& config,
                                      ka::Backend& backend) {
  config.validate();
  UNISVD_REQUIRE(backend.executes(),
                 "svd_values_batched: backend does not execute kernels");

  BatchReport rep;
  rep.reports.resize(batch.size());
  const ::unisvd::batch::DrainRun run = ::unisvd::batch::run_scheduled_batch(
      extents_of<T>(batch, config.svd.small_svd_threshold), config, backend,
      [&](std::size_t p) {
        solve_classified<T>(batch[p], p, config.svd.check_finite, config.on_error,
                            "svd_values_batched", rep.reports[p],
                            [&](const ConstMatrixView<T>& a) {
                              SvdConfig cfg = config.svd;
                              cfg.check_finite = false;  // verified by the engine
                              return svd_values_report<T>(a, cfg, backend);
                            });
      });
  rep.schedules = run.schedules;
  rep.threads_used = run.threads_used;
  rep.seconds = run.seconds;
  for (const auto& r : rep.reports) {
    rep.stage_times += r.stage_times;
  }
  return rep;
}

template BatchReport svd_values_batched_report<Half>(
    std::span<const ConstMatrixView<Half>>, const BatchConfig&, ka::Backend&);
template BatchReport svd_values_batched_report<float>(
    std::span<const ConstMatrixView<float>>, const BatchConfig&, ka::Backend&);
template BatchReport svd_values_batched_report<double>(
    std::span<const ConstMatrixView<double>>, const BatchConfig&, ka::Backend&);

template <class T>
TruncBatchReport svd_truncated_batched_report(
    std::span<const ConstMatrixView<T>> batch, const TruncConfig& trunc,
    const BatchConfig& config, ka::Backend& backend) {
  trunc.validate();
  config.validate();
  UNISVD_REQUIRE(backend.executes(),
                 "svd_truncated_batched: backend does not execute kernels");

  TruncBatchReport rep;
  rep.reports.resize(batch.size());
  const ::unisvd::batch::DrainRun run = ::unisvd::batch::run_scheduled_batch(
      extents_of<T>(batch, trunc.svd.small_svd_threshold), config, backend,
      [&](std::size_t p) {
        solve_classified<T>(batch[p], p, trunc.svd.check_finite, config.on_error,
                            "svd_truncated_batched", rep.reports[p],
                            [&](const ConstMatrixView<T>& a) {
                              TruncConfig cfg = trunc;
                              cfg.svd.check_finite = false;  // verified above
                              // Decorrelate the Gaussian sketches across the
                              // batch: one adversarial draw must not fail
                              // every problem at once. Deterministic per
                              // (seed, p) whatever the schedule.
                              cfg.seed = trunc_problem_seed(trunc.seed, p);
                              return svd_truncated_report<T>(a, cfg, backend);
                            });
      });
  rep.schedules = run.schedules;
  rep.threads_used = run.threads_used;
  rep.seconds = run.seconds;
  for (const auto& r : rep.reports) {
    rep.stage_times += r.stage_times;
  }
  return rep;
}

template TruncBatchReport svd_truncated_batched_report<Half>(
    std::span<const ConstMatrixView<Half>>, const TruncConfig&, const BatchConfig&,
    ka::Backend&);
template TruncBatchReport svd_truncated_batched_report<float>(
    std::span<const ConstMatrixView<float>>, const TruncConfig&, const BatchConfig&,
    ka::Backend&);
template TruncBatchReport svd_truncated_batched_report<double>(
    std::span<const ConstMatrixView<double>>, const TruncConfig&, const BatchConfig&,
    ka::Backend&);

}  // namespace unisvd
