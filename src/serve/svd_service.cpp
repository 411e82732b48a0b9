#include "serve/svd_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/half.hpp"
#include "common/precision.hpp"

namespace unisvd::serve {

namespace {

// ---------------------------------------------------------------------------
// Content hashing: two independent SplitMix64 streams over a word sequence.
// Collisions across 128 bits are negligible for any realistic cache size;
// the kind byte additionally separates the two report types so a cache hit
// can be downcast without a dynamic check.
// ---------------------------------------------------------------------------

[[nodiscard]] constexpr std::uint64_t splitmix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Hash2 {
  std::uint64_t h1 = 0x243F6A8885A308D3ull;  // pi digits: arbitrary distinct
  std::uint64_t h2 = 0x13198A2E03707344ull;  // seeds for the two streams

  void mix(std::uint64_t v) noexcept {
    h1 = splitmix(h1 ^ v);
    h2 = splitmix(h2 + (v ^ 0x9E3779B97F4A7C15ull));
  }
  void mix(double d) noexcept { mix(std::bit_cast<std::uint64_t>(d)); }
};

[[nodiscard]] std::uint64_t element_bits(Half v) noexcept { return v.bits(); }
[[nodiscard]] std::uint64_t element_bits(float v) noexcept {
  return std::bit_cast<std::uint32_t>(v);
}
[[nodiscard]] std::uint64_t element_bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

/// Logical matrix content: shape, element type, then every element in
/// column-major logical order — so a transposed or strided view of the same
/// logical matrix keys identically to its compact copy.
template <class T>
void mix_matrix(Hash2& h, ConstMatrixView<T> a) {
  h.mix(static_cast<std::uint64_t>(precision_of<T>));
  h.mix(static_cast<std::uint64_t>(a.rows()));
  h.mix(static_cast<std::uint64_t>(a.cols()));
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      h.mix(element_bits(a(i, j)));
    }
  }
}

void mix_config(Hash2& h, const SvdConfig& c) {
  h.mix(static_cast<std::uint64_t>(c.kernels.tilesize));
  h.mix(static_cast<std::uint64_t>(c.kernels.colperblock));
  h.mix(static_cast<std::uint64_t>(c.kernels.splitk));
  h.mix(static_cast<std::uint64_t>(c.kernels.fused));
  h.mix(static_cast<std::uint64_t>(c.check_finite));
  h.mix(static_cast<std::uint64_t>(c.auto_scale));
  h.mix(static_cast<std::uint64_t>(c.job));
  h.mix(static_cast<std::uint64_t>(c.small_svd_threshold));
}

void mix_config(Hash2& h, const TruncConfig& c) {
  h.mix(static_cast<std::uint64_t>(c.rank));
  h.mix(static_cast<std::uint64_t>(c.oversample));
  h.mix(static_cast<std::uint64_t>(c.power_iters));
  h.mix(c.tol);
  h.mix(static_cast<std::uint64_t>(c.max_rank));
  h.mix(c.seed);
  mix_config(h, c.svd);
}

template <class T, class Config>
[[nodiscard]] detail::CacheKey make_key(ConstMatrixView<T> a, const Config& c,
                                        std::uint8_t kind) {
  Hash2 h;
  mix_matrix(h, a);
  mix_config(h, c);
  return detail::CacheKey{h.h1, h.h2, kind};
}

/// Compact logical copy of the caller's view: the job must own its input
/// (the caller's buffer may die the moment submit returns).
template <class T>
[[nodiscard]] Matrix<T> copy_logical(ConstMatrixView<T> a) {
  Matrix<T> m(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      m(i, j) = a(i, j);
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Concrete job types: owned input + per-job config; solve() runs the
// classified single-problem solver and MOVES its report into the shared
// state (JobStateT::publish) — the result is heap-allocated exactly once,
// by the solver, and never copied on its way to the handle.
// ---------------------------------------------------------------------------

template <class T>
class DenseJob final : public detail::JobStateT<SvdReport> {
 public:
  DenseJob(Matrix<T> a, const SvdConfig& config)
      : a_(std::move(a)), config_(config) {}

  void solve(ka::Backend& backend, std::size_t index) override {
    publish(batch::solve_one_classified<T>(a_.view(), config_, backend,
                                           "svd_service", index));
    a_ = Matrix<T>();  // the input copy is dead weight once solved
  }

 private:
  Matrix<T> a_;
  SvdConfig config_;
};

template <class T>
class TruncJob final : public detail::JobStateT<TruncReport> {
 public:
  TruncJob(Matrix<T> a, const TruncConfig& config)
      : a_(std::move(a)), config_(config) {}

  void solve(ka::Backend& backend, std::size_t index) override {
    publish(batch::solve_one_trunc_classified<T>(a_.view(), config_, backend,
                                                 "svd_service", index));
    a_ = Matrix<T>();
  }

 private:
  Matrix<T> a_;
  TruncConfig config_;
};

/// Heap order for a tenant's pending jobs: std::push_heap keeps the BEST
/// job on top, so this comparator returns true when x is WORSE than y —
/// lower priority, then later deadline, then later submission.
[[nodiscard]] bool job_worse(const std::shared_ptr<detail::JobBase>& x,
                             const std::shared_ptr<detail::JobBase>& y) noexcept {
  if (x->priority != y->priority) return x->priority < y->priority;
  if (x->deadline != y->deadline) return x->deadline > y->deadline;
  return x->seq > y->seq;
}

}  // namespace

SvdService::SvdService(ServeConfig config, ka::Backend& backend)
    : config_(std::move(config)),
      backend_(&backend),
      epoch_(std::chrono::steady_clock::now()) {
  config_.validate();
  UNISVD_REQUIRE(backend_->executes(),
                 "SvdService: backend does not execute kernels");
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SvdService::~SvdService() { shutdown(DrainMode::Drain); }

double SvdService::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SvdService::JobPtr SvdService::admit(JobPtr job, bool use_cache) {
  const char* reject_reason = nullptr;
  {
    UniqueLock lock(mu_);
    if (use_cache && !shutdown_) {
      const auto it = cache_.find(job->key);
      if (it != cache_.end()) {
        if (it->second.completed) {
          stats_.cache_hits += 1;
          lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // touch
        } else {
          stats_.coalesced += 1;  // attach to the in-flight twin
        }
        return it->second.state;
      }
    }
    // Bounded-queue admission. Block releases the lock while waiting, so
    // workers can drain; a shutdown while blocked wakes and rejects.
    while (!shutdown_ && queued_ >= config_.queue_capacity &&
           config_.admission == AdmissionPolicy::Block) {
      space_cv_.wait(lock);
    }
    if (shutdown_ || queued_ >= config_.queue_capacity) {
      stats_.rejected += 1;
      reject_reason = shutdown_ ? "svd_service: rejected (service shut down)"
                                : "svd_service: rejected (queue full)";
    } else {
      job->seq = next_seq_++;
      if (use_cache) {
        job->cacheable = true;
        cache_.emplace(job->key, CacheEntry{job, lru_.end(), false});
      }
      auto& tq = pending_[job->tenant];
      tq.heap.push_back(job);
      std::push_heap(tq.heap.begin(), tq.heap.end(), job_worse);
      queued_ += 1;
      stats_.accepted += 1;
      stats_.tenants[job->tenant].accepted += 1;
      stats_.queue_depth = queued_;
      stats_.queue_depth_peak = std::max(stats_.queue_depth_peak, queued_);
    }
  }
  if (reject_reason != nullptr) {
    job->fail(SvdStatus::Rejected, reject_reason);
  } else {
    work_cv_.notify_one();
  }
  return job;
}

template <class T>
JobHandle SvdService::submit(ConstMatrixView<T> a, const SvdConfig& config,
                             const SubmitOptions& options) {
  config.validate();
  const bool use_cache = options.use_cache && config_.cache_capacity > 0;
  auto job = std::make_shared<DenseJob<T>>(copy_logical(a), config);
  job->tenant = options.tenant;
  job->priority = options.priority;
  job->extent =
      batch::scheduling_extent(a.rows(), a.cols(), config.small_svd_threshold);
  job->submit_time = now();
  job->deadline = std::isfinite(options.deadline_seconds)
                      ? job->submit_time + options.deadline_seconds
                      : std::numeric_limits<double>::infinity();
  if (use_cache) job->key = make_key(a, config, /*kind=*/0);
  JobPtr shared = admit(std::move(job), use_cache);
  return JobHandle(
      std::static_pointer_cast<detail::JobStateT<SvdReport>>(shared));
}

template JobHandle SvdService::submit<Half>(ConstMatrixView<Half>,
                                            const SvdConfig&,
                                            const SubmitOptions&);
template JobHandle SvdService::submit<float>(ConstMatrixView<float>,
                                             const SvdConfig&,
                                             const SubmitOptions&);
template JobHandle SvdService::submit<double>(ConstMatrixView<double>,
                                              const SvdConfig&,
                                              const SubmitOptions&);

template <class T>
TruncJobHandle SvdService::submit_truncated(ConstMatrixView<T> a,
                                            const TruncConfig& config,
                                            const SubmitOptions& options) {
  config.validate();
  const bool use_cache = options.use_cache && config_.cache_capacity > 0;
  auto job = std::make_shared<TruncJob<T>>(copy_logical(a), config);
  job->tenant = options.tenant;
  job->priority = options.priority;
  // A truncated solve's pipeline runs on the projected (l x n) problem, but
  // the sketch multiplies against the full matrix: schedule by full extent.
  job->extent = batch::scheduling_extent(a.rows(), a.cols(),
                                         config.svd.small_svd_threshold);
  job->submit_time = now();
  job->deadline = std::isfinite(options.deadline_seconds)
                      ? job->submit_time + options.deadline_seconds
                      : std::numeric_limits<double>::infinity();
  if (use_cache) job->key = make_key(a, config, /*kind=*/1);
  JobPtr shared = admit(std::move(job), use_cache);
  return TruncJobHandle(
      std::static_pointer_cast<detail::JobStateT<TruncReport>>(shared));
}

template TruncJobHandle SvdService::submit_truncated<Half>(
    ConstMatrixView<Half>, const TruncConfig&, const SubmitOptions&);
template TruncJobHandle SvdService::submit_truncated<float>(
    ConstMatrixView<float>, const TruncConfig&, const SubmitOptions&);
template TruncJobHandle SvdService::submit_truncated<double>(
    ConstMatrixView<double>, const TruncConfig&, const SubmitOptions&);

std::vector<SvdService::JobPtr> SvdService::claim_wave_locked(
    std::vector<JobPtr>& expired) {
  // One clock snapshot per wave: a job either makes this wave's cut or it
  // doesn't; re-reading the clock mid-claim would let the wave itself age
  // jobs out.
  const double t = config_.shed_expired ? now() : 0.0;
  std::vector<JobPtr> wave;
  while (wave.size() < config_.max_wave && queued_ > 0) {
    // Round-robin: the first tenant at or after the cursor, wrapping.
    auto it = pending_.lower_bound(rr_cursor_);
    if (it == pending_.end()) it = pending_.begin();
    auto& heap = it->second.heap;
    std::pop_heap(heap.begin(), heap.end(), job_worse);
    JobPtr job = std::move(heap.back());
    heap.pop_back();
    queued_ -= 1;
    rr_cursor_ = it->first + 1;  // uint wrap at the top id is the restart
    if (heap.empty()) pending_.erase(it);
    if (config_.shed_expired && job->deadline < t) {
      // Shed: the deadline passed while the job sat in the queue. It does
      // not consume a wave slot — the capacity goes to a job that can
      // still be on time. The pending cache anchor (if any) is withdrawn
      // so an identical resubmission solves instead of inheriting the
      // expiry.
      stats_.expired += 1;
      if (job->cacheable) {
        const auto cit = cache_.find(job->key);
        if (cit != cache_.end() && cit->second.state == job) cache_.erase(cit);
      }
      expired.push_back(std::move(job));
      continue;
    }
    wave.push_back(std::move(job));
  }
  stats_.queue_depth = queued_;
  return wave;
}

void SvdService::fail_expired(const std::vector<JobPtr>& expired) {
  if (expired.empty()) return;
  space_cv_.notify_all();  // shedding freed queue slots
  for (const JobPtr& job : expired) {
    job->fail(SvdStatus::Expired, "svd_service: deadline expired in queue");
  }
}

void SvdService::run_wave(std::vector<JobPtr> wave) {
  space_cv_.notify_all();  // claiming freed queue slots
  std::vector<index_t> extents(wave.size());
  for (std::size_t p = 0; p < wave.size(); ++p) {
    extents[p] = wave[p]->extent;
  }
  BatchConfig bc = config_.batch;
  bc.on_error = ErrorPolicy::Isolate;  // solve() classifies; it never throws
  // Each job is charged its own completion time, not the wave's.
  std::vector<double> done_at(wave.size());
  batch::run_scheduled_batch(extents, bc, *backend_, [&](std::size_t p) {
    wave[p]->solve(*backend_, p);  // publishes + notifies the handle's cv
    done_at[p] = now();
  });

  LockGuard lock(mu_);
  stats_.waves += 1;
  for (std::size_t p = 0; p < wave.size(); ++p) {
    const JobPtr& job = wave[p];
    stats_.completed += 1;
    auto& ts = stats_.tenants[job->tenant];
    ts.completed += 1;
    const double latency = done_at[p] - job->submit_time;
    ts.total_latency_seconds += latency;
    ts.max_latency_seconds = std::max(ts.max_latency_seconds, latency);

    const SvdStatus status = job->final_status();
    if (status != SvdStatus::Ok) {
      stats_.failed += 1;
      if (job->cacheable) {
        // Never cache a failure: the pending entry (which coalesced any
        // racing twins onto this very state) is withdrawn so a later
        // identical submission retries instead of replaying the failure.
        const auto it = cache_.find(job->key);
        if (it != cache_.end() && it->second.state == job) cache_.erase(it);
      }
    } else if (job->cacheable) {
      const auto it = cache_.find(job->key);
      if (it != cache_.end() && it->second.state == job) {
        it->second.completed = true;
        lru_.push_front(job->key);
        it->second.lru_pos = lru_.begin();
      }
    }
  }
  // LRU-evict completed entries beyond capacity (pending entries are
  // coalescing anchors and never counted or evicted).
  while (lru_.size() > config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  stats_.cache_entries = lru_.size();
}

std::size_t SvdService::drain_once() {
  std::vector<JobPtr> wave;
  std::vector<JobPtr> expired;
  {
    LockGuard lock(mu_);
    wave = claim_wave_locked(expired);
  }
  fail_expired(expired);
  const std::size_t n = wave.size() + expired.size();
  if (!wave.empty()) run_wave(std::move(wave));
  return n;
}

void SvdService::worker_loop() {
  for (;;) {
    std::vector<JobPtr> wave;
    std::vector<JobPtr> expired;
    {
      UniqueLock lock(mu_);
      // Manual wait loop: predicate lambdas are analyzed without the
      // enclosing capability set (see thread_annotations.hpp).
      while (!shutdown_ && queued_ == 0) {
        work_cv_.wait(lock);
      }
      if (queued_ == 0) return;  // shutdown_ and nothing left to drain
      wave = claim_wave_locked(expired);
    }
    fail_expired(expired);
    if (!wave.empty()) run_wave(std::move(wave));
  }
}

void SvdService::shutdown(DrainMode mode) {
  std::vector<JobPtr> to_cancel;
  std::vector<std::thread> to_join;
  {
    LockGuard lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      if (mode == DrainMode::Cancel) {
        for (auto& [tenant, tq] : pending_) {
          for (auto& job : tq.heap) to_cancel.push_back(std::move(job));
        }
        pending_.clear();
        queued_ = 0;
        stats_.queue_depth = 0;
        stats_.cancelled += to_cancel.size();
        for (const JobPtr& job : to_cancel) {
          if (!job->cacheable) continue;
          const auto it = cache_.find(job->key);  // pending anchor: withdraw
          if (it != cache_.end() && it->second.state == job) cache_.erase(it);
        }
      }
    }
    to_join.swap(workers_);  // only the first joiner gets the threads
  }
  work_cv_.notify_all();   // workers: drain the remainder (or exit)
  space_cv_.notify_all();  // blocked submitters: wake and reject
  for (const JobPtr& job : to_cancel) {
    job->fail(SvdStatus::Cancelled, "svd_service: cancelled at shutdown");
  }
  for (std::thread& w : to_join) {
    w.join();
  }
}

ServeStats SvdService::stats() const {
  LockGuard lock(mu_);
  ServeStats snap = stats_;
  snap.queue_depth = queued_;
  snap.cache_entries = lru_.size();
  return snap;
}

std::size_t SvdService::queue_depth() const {
  LockGuard lock(mu_);
  return queued_;
}

}  // namespace unisvd::serve
