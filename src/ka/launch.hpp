#pragma once
/// \file launch.hpp
/// Kernel launch descriptors and cost metadata.
///
/// Every kernel launch carries a LaunchDesc: the grid shape a GPU backend
/// would receive (workgroups x work-items), the memory footprint that
/// determines occupancy (local/shared bytes per group, private/register
/// bytes per item), and an analytic cost (flops, global bytes, length of the
/// internal dependency chain). The CPU backends use only the grid shape; the
/// performance model (src/sim) consumes the rest to simulate the launch on
/// the paper's GPUs.

#include <cstddef>
#include <string>

#include "common/matrix.hpp"
#include "common/precision.hpp"

namespace unisvd::ka {

/// Pipeline stage attribution, used for the Figure 6 runtime breakdown.
enum class Stage {
  PanelFactorization,   ///< GEQRT / TSQRT (and fused TSQRT)
  TrailingUpdate,       ///< UNMQR / TSMQR (and fused TSMQR)
  BandToBidiagonal,     ///< Phase 2 bulge chasing
  BidiagonalToDiagonal, ///< Phase 3 singular values of the bidiagonal
  VectorAccumulation,   ///< singular-vector work (SvdJob::Thin/Full): the
                        ///< back-transformation after Stage 3 — the Stage-2
                        ///< rotation replay, the Stage-1 and tall-panel
                        ///< reflector replays, seeding and unpadding
  RandomizedSketch,     ///< randomized truncated SVD (src/rsvd): the range
                        ///< finder's GEMM launches (sketch Y = A * Omega,
                        ///< power iteration, projection B = Q^T A)
  FusedSmall,           ///< fused tiny-problem path (src/small): the whole
                        ///< SVD in one stack-resident call, no per-stage
                        ///< launches (bidiagonalization + implicit QR for
                        ///< every job; Thin/Full also form Q and P)
  kCount                ///< number of stages (StageTimes storage extent)
};

[[nodiscard]] constexpr const char* to_string(Stage s) noexcept {
  switch (s) {
    case Stage::PanelFactorization: return "panel";
    case Stage::TrailingUpdate: return "trailing";
    case Stage::BandToBidiagonal: return "band2bidiag";
    case Stage::BidiagonalToDiagonal: return "bidiag2diag";
    case Stage::VectorAccumulation: return "vector-acc";
    case Stage::RandomizedSketch: return "sketch";
    case Stage::FusedSmall: return "fused-small";
    case Stage::kCount: break;
  }
  return "?";
}

/// Analytic cost of one launch (totals over all workgroups).
struct KernelCost {
  double flops = 0.0;        ///< floating point operations (compute type)
  double bytes_read = 0.0;   ///< global memory bytes read
  double bytes_written = 0.0;///< global memory bytes written
  /// Length of the serial dependency chain inside the kernel, measured in
  /// barrier-separated steps (e.g. the reflector loop of Algorithm 3 has
  /// one entry per Householder vector). Sets a latency floor in the model.
  double serial_iterations = 0.0;
};

/// Full description of one kernel launch.
struct LaunchDesc {
  std::string name;                    ///< kernel identity ("geqrt", ...)
  Stage stage = Stage::PanelFactorization;
  index_t num_groups = 1;              ///< workgroups in the grid
  int group_size = 1;                  ///< work-items per workgroup
  std::size_t local_bytes = 0;         ///< shared memory per workgroup
  std::size_t private_bytes_per_item = 0;  ///< register footprint per item
  Precision precision = Precision::FP64;   ///< compute precision of the math
  KernelCost cost;
};

}  // namespace unisvd::ka
