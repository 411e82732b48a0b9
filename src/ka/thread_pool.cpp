#include "ka/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>

namespace unisvd::ka {

namespace {
/// The pool whose job the current thread is executing (nullptr outside a
/// job). Lets a nested parallel_for detect itself and run inline instead of
/// deadlocking on the single job slot.
thread_local const ThreadPool* tls_running_pool = nullptr;
/// True while the current thread executes an iteration of a work-stealing
/// job: its nested parallel_for calls publish their range for helpers.
thread_local bool tls_stealing_job = false;
/// Set by ScopedInlineNested: publication is suppressed even inside a
/// work-stealing job (small batch problems opt out of the per-launch cost).
thread_local bool tls_inline_nested = false;
/// Set while a busy_fallback_inline call runs its range inline because the
/// pool was contended: every parallel_for the inline iterations make on
/// this thread (e.g. the kernel launches of a problem being solved) also
/// runs inline, so the degraded run never re-blocks on the busy pool.
thread_local bool tls_busy_inline = false;

/// RAII for tls_busy_inline (nests safely — restores the previous value).
struct BusyInlineScope {
  bool prev = tls_busy_inline;
  BusyInlineScope() noexcept { tls_busy_inline = true; }
  ~BusyInlineScope() { tls_busy_inline = prev; }
};

/// CPUs the calling thread may run on: the size of its affinity mask, so a
/// pinned or cpuset-limited process sizes its pools to its cores. Falls
/// back to the hardware concurrency where the mask cannot be read.
unsigned available_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}
}  // namespace

ScopedInlineNested::ScopedInlineNested() noexcept : prev_(tls_inline_nested) {
  tls_inline_nested = true;
}

ScopedInlineNested::~ScopedInlineNested() { tls_inline_nested = prev_; }

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, available_cpus());
  }
  const unsigned spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  for (unsigned t = 0; t < spawned; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      UniqueLock lock(mutex_);
      // Manual wait loop (not the predicate overload): Clang's thread-safety
      // analysis checks lambda bodies without the enclosing capability set,
      // so reading stop_/generation_ inside a predicate would false-positive.
      while (!stop_ && generation_ == seen) {
        work_cv_.wait(lock);
      }
      if (stop_) return;
      seen = generation_;
      job = current_;  // shared ownership keeps the job alive for stragglers
    }
    if (job) {
      run_job(*job);
    }
  }
}

bool ThreadPool::in_job() const noexcept { return tls_running_pool == this; }

void ThreadPool::run_iteration(Job& job, index_t i, bool notify_done) {
  // After a failure the job's result is discarded anyway: skip the work
  // but still count the iteration, so the done == n completion condition
  // holds and the caller gets the exception without paying for the rest
  // of the batch.
  if (!job.failed.load(std::memory_order_relaxed)) {
    try {
      (*job.fn)(i);
    } catch (...) {
      LockGuard lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n &&
      notify_done) {
    // Take the pool mutex before notifying: guarantees the waiter is
    // either not yet blocked (and will see done == n under the lock) or
    // already blocked (and receives this notification). Prevents the
    // classic lost-wakeup between predicate check and sleep.
    { LockGuard lock(mutex_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::drain(Job& job, bool notify_done) {
  for (;;) {
    const index_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    run_iteration(job, i, notify_done);
  }
}

bool ThreadPool::steal_chunk(Job& job) {
  // Claim half of what remains in one atomic bump. The remainder estimate
  // may be stale (other claimants advanced the cursor concurrently), but
  // fetch_add hands out disjoint ranges regardless; a claim reaching past
  // n simply clamps — the indices beyond n were never anyone else's.
  const index_t seen = job.next.load(std::memory_order_relaxed);
  if (seen >= job.n) return false;
  const index_t want = std::max<index_t>(1, (job.n - seen) / 2);
  const index_t i0 = job.next.fetch_add(want, std::memory_order_relaxed);
  if (i0 >= job.n) return false;
  const index_t iend = std::min(job.n, i0 + want);
  for (index_t i = i0; i < iend; ++i) {
    run_iteration(job, i, /*notify_done=*/false);
  }
  return true;
}

void ThreadPool::run_job(Job& job) {
  const ThreadPool* const prev_pool = tls_running_pool;
  const bool prev_stealing = tls_stealing_job;
  tls_running_pool = this;
  tls_stealing_job = job.stealing;
  drain(job, /*notify_done=*/true);
  if (job.stealing) steal_until_done(job);
  tls_stealing_job = prev_stealing;
  tls_running_pool = prev_pool;
}

void ThreadPool::steal_until_done(Job& job) {
  // The top-level range has drained but iterations are still in flight:
  // instead of going back to sleep, execute iterations of any nested
  // parallel_for those in-flight slots publish. Backs off to short sleeps
  // when nothing is stealable (e.g. a slot in a serial pipeline stage).
  int idle_polls = 0;
  while (job.done.load(std::memory_order_acquire) < job.n) {
    if (help_one_nested()) {
      idle_polls = 0;
    } else if (++idle_polls < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

bool ThreadPool::help_one_nested() {
  if (nested_open_.load(std::memory_order_acquire) == 0) return false;
  std::shared_ptr<Job> job;
  {
    LockGuard lock(nested_mutex_);
    for (const auto& j : nested_) {
      if (j->next.load(std::memory_order_relaxed) < j->n) {
        job = j;
        break;
      }
    }
  }
  if (!job) return false;
  // One half-remainder range per visit (the enclosing steal loop comes back
  // for more): successive claims halve geometrically, so helpers share big
  // launches with one atomic bump per block while the tail still spreads at
  // index granularity. Owners spin on done, so no cv notification is needed.
  return steal_chunk(*job);
}

void ThreadPool::run_published_nested(index_t n,
                                      const std::function<void(index_t)>& fn) {
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  {
    LockGuard lock(nested_mutex_);
    nested_.push_back(job);
  }
  nested_open_.fetch_add(1, std::memory_order_release);

  drain(*job, /*notify_done=*/false);  // the owner executes alongside stealers

  {
    LockGuard lock(nested_mutex_);
    nested_.erase(std::find(nested_.begin(), nested_.end(), job));
  }
  nested_open_.fetch_sub(1, std::memory_order_release);

  // Wait for stolen iterations still in flight. A straggler holding the
  // shared_ptr after done == n only ever observes an exhausted range (next
  // >= n) — it never touches fn, which dies with this frame. Same backoff
  // as steal_until_done: on oversubscribed machines a pure yield spin would
  // burn the timeslice the descheduled stealer needs to finish.
  int idle_polls = 0;
  while (job->done.load(std::memory_order_acquire) < job->n) {
    if (++idle_polls < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // The acquire load of done == n above already orders the error write
  // (made under error_mutex before the final done bump) before this read,
  // but take the lock anyway: it is uncontended post-completion and keeps
  // the access pattern provable by the static analysis.
  std::exception_ptr error;
  {
    LockGuard lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& fn) {
  parallel_for(n, fn, ParallelForOptions{});
}

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& fn,
                              const ParallelForOptions& opts) {
  if (n <= 0) return;
  // Nested call from inside one of this pool's jobs: trying to submit would
  // corrupt the single job slot (and waiting on it could deadlock against
  // ourselves). Under a work-stealing job the range is published so idle
  // workers can help; otherwise it runs inline on this thread.
  if (in_job()) {
    if (tls_stealing_job && !tls_inline_nested && n > 1 && !workers_.empty()) {
      run_published_nested(n, fn);
    } else {
      for (index_t i = 0; i < n; ++i) fn(i);
    }
    return;
  }
  // Inside a busy-fallback inline run on this thread: stay inline (see
  // ParallelForOptions::busy_fallback_inline) instead of queueing on the
  // pool another external submitter still owns.
  if (tls_busy_inline) {
    for (index_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (n == 1 || workers_.empty()) {
    for (index_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One top-level job at a time: external threads queue here, not on the
  // job slot.
  UniqueLock submit_lock(submit_mutex_, std::defer_lock);
  if (opts.busy_fallback_inline) {
    if (!submit_lock.try_lock()) {
      // Pool contended: degrade this call (and everything it launches on
      // this thread) to inline serial execution instead of waiting.
      BusyInlineScope inline_scope;
      for (index_t i = 0; i < n; ++i) fn(i);
      return;
    }
  } else {
    submit_lock.lock();
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->stealing = opts.work_stealing;
  {
    LockGuard lock(mutex_);
    current_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  run_job(*job);  // the calling thread participates

  {
    UniqueLock lock(mutex_);
    while (job->done.load(std::memory_order_acquire) != job->n) {
      done_cv_.wait(lock);
    }
    current_.reset();
  }
  // done == n was observed with acquire above, so the error write (under
  // error_mutex, before the final done bump) happens-before this read;
  // the lock is uncontended and keeps the discipline statically provable.
  std::exception_ptr error;
  {
    LockGuard lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace unisvd::ka
