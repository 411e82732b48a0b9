#pragma once
/// \file backend.hpp
/// Backend interface: where a kernel launch goes.
///
/// The paper's unified function takes a `backend` argument selecting the
/// hardware (Algorithm 2). Here a Backend either executes workgroups (the
/// serial reference backend, the multithreaded CPU backend, or the
/// SIMD-vectorized CPU backend) or records the launch without executing it
/// (the trace backend used to generate analytic schedules for the GPU
/// performance model at sizes far beyond what is worth executing). Any
/// backend can additionally carry a TraceRecorder so real executions
/// produce the same LaunchRecord stream — the equality of the two streams
/// is tested.
///
/// The SIMD backend (SimdCpuBackend, built under -DUNISVD_SIMD=ON) answers
/// `vectorized()` true when runtime dispatch allows it (AVX2 CPUID check,
/// UNISVD_FORCE_SCALAR override — see ka/simd/dispatch.hpp); the tile
/// kernels consult that flag per launch and run lane-parallel bodies that
/// are bit-identical to the reference work-item loops, so every
/// determinism contract (values across jobs/schedules/backends) holds
/// across the scalar/SIMD axis too.

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"
#include "ka/launch.hpp"
#include "ka/thread_pool.hpp"
#include "ka/workgroup.hpp"

namespace unisvd::ka {

/// Ordered record of every launch submitted to a backend. Thread-safe:
/// backends launch from pool threads, so `record` may run concurrently
/// with a reader. `records()` therefore returns a snapshot by value —
/// it used to hand out a reference to the live vector, which raced any
/// concurrent `record` (push_back may reallocate under the reader).
class TraceRecorder {
 public:
  void record(const LaunchDesc& d) {
    LockGuard lock(mutex_);
    records_.push_back(d);
  }
  void clear() {
    LockGuard lock(mutex_);
    records_.clear();
  }
  [[nodiscard]] std::vector<LaunchDesc> records() const {
    LockGuard lock(mutex_);
    return records_;
  }

 private:
  mutable Mutex mutex_;
  std::vector<LaunchDesc> records_ UNISVD_GUARDED_BY(mutex_);
};

/// A kernel body: runs once per workgroup.
using Kernel = std::function<void(WorkGroupCtx&)>;

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when launches actually execute (false for the trace backend —
  /// callers may then pass views over null data).
  [[nodiscard]] virtual bool executes() const noexcept { return true; }

  /// Thread pool available for inter-problem (batch) parallelism, or
  /// nullptr when the backend has none (serial, trace). Batch schedulers
  /// use it to run one problem per pool slot; per-problem kernel launches
  /// then execute inline in that slot (ThreadPool::parallel_for is
  /// reentrancy-safe), so results stay bitwise identical to sequential
  /// execution.
  [[nodiscard]] virtual ThreadPool* batch_pool() noexcept { return nullptr; }

  /// True when the backend wants the SIMD-vectorized kernel bodies for this
  /// process (compiled in AND permitted by runtime dispatch). Kernels that
  /// have a vector body branch on this per launch; results are
  /// bit-identical either way — the flag only selects how fast the same
  /// arithmetic runs.
  [[nodiscard]] virtual bool vectorized() const noexcept { return false; }

  /// Submit one kernel launch. Blocking: on return all workgroups ran.
  void launch(const LaunchDesc& desc, const Kernel& kernel) {
    if (trace_ != nullptr) trace_->record(desc);
    do_launch(desc, kernel);
  }

  /// Attach (or detach with nullptr) a launch recorder.
  void set_trace(TraceRecorder* t) noexcept { trace_ = t; }

 protected:
  virtual void do_launch(const LaunchDesc& desc, const Kernel& kernel) = 0;

 private:
  TraceRecorder* trace_ = nullptr;
};

/// Reference backend: every workgroup on the calling thread, in order.
class SerialBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "serial"; }

 protected:
  void do_launch(const LaunchDesc& desc, const Kernel& kernel) override;
};

/// Multithreaded CPU backend: workgroups distributed across a thread pool.
/// Work-items of one group stay on one thread (they share private memory),
/// so results are bitwise identical to the serial backend.
class CpuBackend : public Backend {
 public:
  explicit CpuBackend(unsigned num_threads = 0);
  [[nodiscard]] std::string_view name() const noexcept override { return "cpu"; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] ThreadPool* batch_pool() noexcept override { return &pool_; }

 protected:
  void do_launch(const LaunchDesc& desc, const Kernel& kernel) override;

 private:
  ThreadPool pool_;
};

/// SIMD-vectorized CPU backend: the same thread-pool workgroup execution as
/// CpuBackend, but kernels with a vector body run it lane-parallel (AVX2
/// width on x86-64). Runtime dispatch is sampled ONCE at construction
/// (ka::simd::runtime_enabled(): compile gate, CPUID, UNISVD_FORCE_SCALAR)
/// so the hot launch path pays one virtual call, no environment reads. In a
/// scalar build — or with dispatch denied — this backend is a CpuBackend
/// that happens to be named "simd": fully functional, just not faster.
///
/// The name is distinct on purpose: core::TuningTable keys every learned
/// entry (batch crossover, kernel winners, rsvd defaults, small-path and
/// Stage-3 thresholds) by Backend::name(), so scalar and SIMD executions
/// learn and look up separate tuning rows — crossovers genuinely differ
/// when the per-problem kernels run several times faster.
class SimdCpuBackend : public CpuBackend {
 public:
  explicit SimdCpuBackend(unsigned num_threads = 0);
  [[nodiscard]] std::string_view name() const noexcept override { return "simd"; }
  [[nodiscard]] bool vectorized() const noexcept override { return enabled_; }

 private:
  bool enabled_ = false;
};

/// Records launches without executing them: generates analytic schedules.
class TraceBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "trace"; }
  [[nodiscard]] bool executes() const noexcept override { return false; }

 protected:
  void do_launch(const LaunchDesc&, const Kernel&) override {}
};

/// Process-wide default execution backend, all cores: the SIMD CPU backend
/// when the build compiled it in AND runtime dispatch allows it at first
/// use (set UNISVD_FORCE_SCALAR=1 before the first call to get the scalar
/// backend in a SIMD build); the scalar CPU backend otherwise. The choice
/// is made once and sticky for the process.
[[nodiscard]] Backend& default_backend();

/// Process-wide SIMD CPU backend (all cores). Always constructible — in a
/// scalar build or with runtime dispatch denied it executes the reference
/// bodies — so benches can compare `cpu_backend vs simd_backend()`
/// unconditionally.
[[nodiscard]] SimdCpuBackend& simd_backend();

}  // namespace unisvd::ka
