#pragma once
/// \file timing_backend.hpp
/// Launch-timing ka::Backend wrapper: every launch is forwarded to the
/// wrapped backend and timed from the outside.
///
/// name(), executes(), batch_pool() and vectorized() answer exactly as the
/// wrapped backend does, so tuning-table keys, batch scheduling and SIMD
/// dispatch are unchanged and results are byte-identical to calling the
/// wrapped backend directly. Per (kernel name, ka::Stage) it accumulates the
/// launch count, busy seconds and the launch's declared KernelCost flops and
/// bytes. Pool slots launch concurrently, so the table is mutex-guarded.

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common.hpp"
#include "common/thread_annotations.hpp"
#include "ka/backend.hpp"
#include "tracer.hpp"

namespace perfbench {

struct KernelTally {
  std::uint64_t launches = 0;
  double busy_s = 0.0;  ///< summed launch wall time (concurrent launches add)
  double flops = 0.0;   ///< declared KernelCost::flops
  double bytes = 0.0;   ///< declared bytes_read + bytes_written
};

using KernelKey = std::pair<std::string, unisvd::ka::Stage>;
using KernelTable = std::map<KernelKey, KernelTally>;

class TimingBackend final : public unisvd::ka::Backend {
 public:
  /// `tracer` may be null (counts only, no spans).
  TimingBackend(unisvd::ka::Backend& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] bool executes() const noexcept override {
    return inner_.executes();
  }
  [[nodiscard]] unisvd::ka::ThreadPool* batch_pool() noexcept override {
    return inner_.batch_pool();
  }
  [[nodiscard]] bool vectorized() const noexcept override {
    return inner_.vectorized();
  }

  [[nodiscard]] KernelTable snapshot() const {
    unisvd::LockGuard lock(mu_);
    return table_;
  }

 protected:
  void do_launch(const unisvd::ka::LaunchDesc& desc,
                 const unisvd::ka::Kernel& kernel) override {
    const auto t0 = Clock::now();
    inner_.launch(desc, kernel);
    const auto t1 = Clock::now();
    {
      unisvd::LockGuard lock(mu_);
      KernelTally& k = table_[KernelKey{desc.name, desc.stage}];
      ++k.launches;
      k.busy_s += seconds_between(t0, t1);
      k.flops += desc.cost.flops;
      k.bytes += desc.cost.bytes_read + desc.cost.bytes_written;
    }
    if (tracer_ != nullptr) {
      tracer_->complete("launch", desc.name, t0, t1, tracer_->next_id(),
                        Tracer::current_parent(),
                        "\"stage\":\"" + std::string(unisvd::ka::to_string(desc.stage)) +
                            "\",\"groups\":" + std::to_string(desc.num_groups));
    }
  }

 private:
  unisvd::ka::Backend& inner_;
  Tracer* tracer_;
  mutable unisvd::Mutex mu_;
  KernelTable table_ UNISVD_GUARDED_BY(mu_);
};

}  // namespace perfbench
