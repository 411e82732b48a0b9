#pragma once
/// \file perf_model.hpp
/// Trace-driven GPU performance model.
///
/// Consumes the launch schedule the real orchestrator produces (identical
/// by construction and by test) and predicts wall time on a DeviceSpec:
///
///   t(launch) = launch_overhead
///             + max( waves * max(compute_wave, memory_wave),
///                    serial_chain * barrier_latency )
///
/// with wave quantization over CU count x occupancy, a utilization ramp for
/// partially filled devices, per-kernel-class arithmetic efficiency
/// (calibration constants, listed in kernel_efficiency), spill traffic when a
/// workgroup's footprint exceeds L1, and host-side handling of the Stage-3
/// record. This is a shape model: it reproduces who wins, crossover sizes
/// and stage ratios — not vendor-exact absolute times.

#include <vector>

#include "ka/launch.hpp"
#include "sim/device_spec.hpp"
#include "sim/occupancy.hpp"

namespace unisvd::sim {

/// Simulated seconds per pipeline stage (the Figure 6 quantities).
struct SimBreakdown {
  double panel = 0.0;
  double trailing = 0.0;
  double band2bidiag = 0.0;
  double bidiag2diag = 0.0;
  /// Singular-vector accumulation (SvdJob::Thin/Full) — including the
  /// tall path's backward reflector replay, whose apply-Q launches
  /// self-attribute here, and the Stage-2 rotation-batch replay
  /// ("stage2_rot_batch").
  double vector_acc = 0.0;
  /// Randomized range-finder products (src/rsvd on qr/gemm.hpp): the
  /// truncated pipeline's sketch, power-iteration and projection GEMMs.
  double sketch = 0.0;

  [[nodiscard]] double total() const noexcept {
    return panel + trailing + band2bidiag + bidiag2diag + vector_acc + sketch;
  }
  void add(ka::Stage s, double t) noexcept {
    switch (s) {
      case ka::Stage::PanelFactorization: panel += t; break;
      case ka::Stage::TrailingUpdate: trailing += t; break;
      case ka::Stage::BandToBidiagonal: band2bidiag += t; break;
      case ka::Stage::BidiagonalToDiagonal: bidiag2diag += t; break;
      case ka::Stage::VectorAccumulation: vector_acc += t; break;
      case ka::Stage::RandomizedSketch: sketch += t; break;
      // The fused tiny-problem path (src/small) stays host-modeled — its
      // single stack-resident launch is below the model's resolution.
      case ka::Stage::FusedSmall: break;
      case ka::Stage::kCount: break;
    }
  }
};

/// Knobs a "library model" may apply on top of a device (vendor tuning,
/// runtime launch costs). Neutral defaults = the unified implementation.
struct ExecutionStyle {
  double efficiency_scale = 1.0;      ///< multiplies kernel arithmetic efficiency
  double launch_overhead_scale = 1.0; ///< multiplies per-launch overhead
  double serial_scale = 1.0;          ///< multiplies in-kernel serial latency
};

class PerfModel {
 public:
  explicit PerfModel(const DeviceSpec& dev, ExecutionStyle style = {})
      : dev_(dev), style_(style) {}

  [[nodiscard]] const DeviceSpec& device() const noexcept { return dev_; }

  /// Predicted seconds for one launch.
  [[nodiscard]] double launch_seconds(const ka::LaunchDesc& d) const;

  /// Predicted per-stage seconds for a whole schedule.
  [[nodiscard]] SimBreakdown simulate(const std::vector<ka::LaunchDesc>& trace) const;

 private:
  DeviceSpec dev_;
  ExecutionStyle style_;
};

/// Arithmetic efficiency (fraction of scalar peak at full occupancy) per
/// kernel class — calibration constants of the model.
[[nodiscard]] double kernel_efficiency(const ka::LaunchDesc& d);

/// Synthetic Stage-2 schedule: Givens bulge chasing of an n x n band of
/// bandwidth bw, organized as communication-avoiding chase waves.
[[nodiscard]] std::vector<ka::LaunchDesc> phase2_schedule(index_t n, index_t bw,
                                                          Precision p);

/// Synthetic Stage-3 record: bidiagonal QR iteration on the host (the
/// paper delegates this stage to LAPACK), including the device->host copy.
[[nodiscard]] ka::LaunchDesc phase3_record(index_t n, Precision p);

}  // namespace unisvd::sim
