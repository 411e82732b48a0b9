#pragma once
/// \file library_model.hpp
/// Comparator models for the libraries of Figures 3-4 / Table 4.
///
/// The unified implementation is simulated from its REAL launch schedule
/// (the trace the orchestrator emits). Comparators fall in two classes:
///
///  * open-source libraries with structurally known algorithms, modeled
///    mechanistically: rocSOLVER (unblocked one-stage gesvd: BLAS2
///    memory-bound + per-column launch storm), oneMKL (blocked one-stage,
///    host fallback for small sizes), MAGMA (hybrid one-stage: GPU BLAS2/3
///    trailing + CPU panels + PCIe traffic, CPU path at small sizes),
///    SLATE (tile algorithm with per-tile launches, runtime queue
///    overheads, vendor-BLAS small-tile inefficiency);
///  * cuSOLVER, which is proprietary: modeled as a vendor-tuned execution
///    of the same two-stage schedule (higher kernel efficiency, lower
///    launch cost, fixed HPC-oriented blocking that de-tunes on consumer
///    SKUs). Its scale factors are calibration constants chosen once from
///    the paper's reported ratios (CusolverModel in library_model.cpp
///    states them).

#include <memory>
#include <string_view>
#include <vector>

#include "ka/launch.hpp"
#include "qr/kernel_config.hpp"
#include "sim/device_spec.hpp"
#include "sim/perf_model.hpp"

namespace unisvd::sim {

/// Full launch schedule (all three stages) of the unified solver for an
/// n x n problem in precision p with the given kernel config.
[[nodiscard]] std::vector<ka::LaunchDesc> unified_schedule(index_t n, Precision p,
                                                           const qr::KernelConfig& cfg);

/// Simulated per-stage times of the unified solver with tuned
/// hyperparameters on a device (Figures 5-6 source).
[[nodiscard]] SimBreakdown simulate_unified(const DeviceSpec& dev, index_t n,
                                            Precision p);

/// A solver whose runtime the model can predict on a device.
class LibraryModel {
 public:
  virtual ~LibraryModel() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual bool supports(const DeviceSpec& dev, Precision p) const {
    return dev.supports(p);
  }
  /// Predicted seconds for singular values of an n x n matrix.
  [[nodiscard]] virtual double seconds(const DeviceSpec& dev, index_t n,
                                       Precision p) const = 0;
};

[[nodiscard]] const LibraryModel& unified_model();
[[nodiscard]] const LibraryModel& cusolver_model();
[[nodiscard]] const LibraryModel& rocsolver_model();
[[nodiscard]] const LibraryModel& onemkl_model();
[[nodiscard]] const LibraryModel& magma_model();
[[nodiscard]] const LibraryModel& slate_model();

}  // namespace unisvd::sim
