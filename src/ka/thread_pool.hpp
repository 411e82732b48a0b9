#pragma once
/// \file thread_pool.hpp
/// Minimal blocking thread pool with a parallel_for primitive.
///
/// The CPU backend maps workgroups onto pool threads; work-items within a
/// workgroup stay on one thread (they share "registers"), so the pool only
/// needs a flat index-space parallel_for with dynamic chunking.
///
/// parallel_for is safe to call from anywhere: a call made from inside a
/// job of the SAME pool runs its iterations inline on the current thread
/// (the batch solver relies on this — one problem per pool slot, nested
/// kernel launches degrade to serial execution within the slot), and
/// top-level calls from distinct external threads serialize on a submit
/// lock, so concurrent batches never corrupt the single job slot.
///
/// Work-stealing mode (ParallelForOptions::work_stealing): workers that
/// drain the top-level index space stay in the job instead of going back to
/// sleep, and steal iterations from nested parallel_for calls published by
/// slots still running long iterations. The batch solver's Mixed schedule
/// is built on this: slots left idle once the small-problem queue dries up
/// execute workgroups of the large problems' kernel launches, so a ragged
/// batch no longer serializes its tail.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/matrix.hpp"
#include "common/thread_annotations.hpp"

namespace unisvd::ka {

/// Suppresses work-stealing publication of nested parallel_for ranges on
/// the current thread while alive: nested calls run inline exactly as in a
/// non-stealing job. The batch solver's Mixed schedule wraps small
/// (inter-tagged) problems in this scope so their tiny launches skip the
/// publish overhead (a heap job + global registry lock per launch) and stay
/// thread-resident, while the large problems in the same job keep
/// publishing. Nests safely; pool-agnostic (purely thread-local).
class ScopedInlineNested {
 public:
  ScopedInlineNested() noexcept;
  ~ScopedInlineNested();
  ScopedInlineNested(const ScopedInlineNested&) = delete;
  ScopedInlineNested& operator=(const ScopedInlineNested&) = delete;

 private:
  bool prev_;
};

/// Per-call knobs of ThreadPool::parallel_for.
struct ParallelForOptions {
  /// Keep workers that exhaust the top-level index space inside the job,
  /// stealing iterations from nested parallel_for calls published by slots
  /// still running long iterations (instead of sleeping until the job
  /// completes). Nested calls made from inside a work-stealing job publish
  /// their range for helpers; without the flag they run inline as before.
  bool work_stealing = false;
  /// Contended-pool fallback for long-lived external submitters (the
  /// serving layer's worker threads): when another thread already owns the
  /// pool's top-level job slot, run the whole range inline on the calling
  /// thread instead of queueing on the submit lock — and keep every
  /// parallel_for the inline iterations make (kernel launches of the
  /// problem being solved) inline too, so the degraded run never re-blocks
  /// on the busy pool mid-problem. Results are identical either way; only
  /// the thread mapping changes. Off (default) preserves the historic
  /// queue-on-submit behaviour.
  bool busy_fallback_inline = false;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = the CPUs in the calling thread's
  /// affinity mask, or the hardware concurrency where it cannot be read).
  /// The calling thread of parallel_for participates, so `num_threads - 1`
  /// are spawned.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (spawned workers + the calling thread).
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(i) for every i in [0, n), distributing dynamically across the
  /// pool plus the calling thread. Blocks until all iterations finish.
  /// Exceptions from fn propagate to the caller (first one wins).
  /// Reentrant: when called from inside a job of this pool, the iterations
  /// run inline on the current thread — unless the enclosing job was
  /// submitted with work_stealing, in which case the range is published and
  /// idle workers help execute it (the caller still blocks until every
  /// iteration finished, and results are identical either way).
  void parallel_for(index_t n, const std::function<void(index_t)>& fn);
  void parallel_for(index_t n, const std::function<void(index_t)>& fn,
                    const ParallelForOptions& opts);

  /// True when the current thread is executing an iteration of one of this
  /// pool's jobs (a nested parallel_for would therefore run inline or be
  /// published for stealing; see ParallelForOptions).
  [[nodiscard]] bool in_job() const noexcept;

 private:
  /// One parallel_for invocation — top-level or nested (published for
  /// stealing). Heap-held via shared_ptr so that a straggler worker that
  /// merely observes "no work left" can never touch a destroyed job.
  struct Job {
    const std::function<void(index_t)>* fn = nullptr;
    std::atomic<index_t> next{0};
    std::atomic<index_t> done{0};
    std::atomic<bool> failed{false};  ///< set once an iteration threw
    index_t n = 0;
    bool stealing = false;  ///< workers help nested jobs after the range drains
    Mutex error_mutex;
    std::exception_ptr error UNISVD_GUARDED_BY(error_mutex);
  };

  void worker_loop();
  void run_job(Job& job);
  /// Execute one claimed iteration with the shared failure bookkeeping:
  /// after a failure the work is skipped but the iteration still counts, so
  /// the done == n completion condition always holds.
  void run_iteration(Job& job, index_t i, bool notify_done);
  /// Pop-and-execute loop shared by owners, workers and stealers. Counts
  /// skipped iterations after a failure so done == n always completes.
  void drain(Job& job, bool notify_done);
  /// Chunked steal: claim a contiguous range of half the remaining
  /// iterations of `job` in ONE atomic bump and execute it. Returns false
  /// when the range was already exhausted.
  bool steal_chunk(Job& job);
  /// Nested parallel_for under a work-stealing job: publish, drain, wait.
  void run_published_nested(index_t n, const std::function<void(index_t)>& fn);
  /// Steal one chunk of a published nested job, if any has work left.
  bool help_one_nested();
  /// Post-drain phase of a work-stealing job: help nested jobs until every
  /// top-level iteration has finished.
  void steal_until_done(Job& job);

  std::vector<std::thread> workers_;  ///< written in ctor, joined in dtor only
  Mutex submit_mutex_;  ///< serializes top-level parallel_for calls
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::shared_ptr<Job> current_ UNISVD_GUARDED_BY(mutex_);
  std::uint64_t generation_ UNISVD_GUARDED_BY(mutex_) = 0;
  bool stop_ UNISVD_GUARDED_BY(mutex_) = false;

  Mutex nested_mutex_;  ///< guards the published-nested-job list
  std::vector<std::shared_ptr<Job>> nested_ UNISVD_GUARDED_BY(nested_mutex_);
  /// Lock-free emptiness check for stealers. Intentionally atomic rather
  /// than guarded: helpers probe it on every steal-loop pass, and a stale
  /// zero only costs a missed helping opportunity (the publishing owner
  /// still drains its own range), never a correctness issue. The release
  /// bump in run_published_nested pairs with the acquire probe in
  /// help_one_nested so a nonzero observation happens-after the push_back.
  std::atomic<int> nested_open_{0};
};

}  // namespace unisvd::ka
