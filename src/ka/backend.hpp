#pragma once
/// \file backend.hpp
/// Backend interface: where a kernel launch goes.
///
/// The paper's unified function takes a `backend` argument selecting the
/// hardware (Algorithm 2). Here a Backend either executes workgroups (the
/// serial reference backend or the multithreaded CPU backend) or records
/// the launch without executing it (the trace backend used to generate
/// analytic schedules for the GPU performance model at sizes far beyond
/// what is worth executing). Any backend can additionally carry a
/// TraceRecorder so real executions produce the same LaunchRecord stream —
/// the equality of the two streams is tested.
///
/// Every tile kernel has one body, which the compiler vectorizes for
/// whatever ISA the build targets (`-DCMAKE_CXX_FLAGS=-march=...`). No
/// backend chooses between bodies, so every backend and every ISA runs the
/// same arithmetic and gives the same bits (the build pins
/// -ffp-contract=off).

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

  /// Always false. Nothing in the library reads it; it remains only as an
  /// override point for existing Backend wrappers.
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
class CpuBackend final : public Backend {
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

/// Records launches without executing them: generates analytic schedules.
class TraceBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "trace"; }
  [[nodiscard]] bool executes() const noexcept override { return false; }

 protected:
  void do_launch(const LaunchDesc&, const Kernel&) override {}
};

/// Process-wide default execution backend: a CpuBackend over all cores,
/// constructed on first use.
[[nodiscard]] Backend& default_backend();

}  // namespace unisvd::ka
