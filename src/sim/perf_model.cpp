#include "sim/perf_model.hpp"

#include <algorithm>
#include <cmath>

namespace unisvd::sim {

double kernel_efficiency(const ka::LaunchDesc& d) {
  // Reflector-at-a-time kernels sustain a modest fraction of scalar peak:
  // each column performs a latency-chained dot plus an axpy per reflector.
  // Panel kernels are further serialized (single workgroup, barriers).
  if (is_panel_kernel(d)) return 0.08;
  if (d.name == "unmqr" || d.name == "tsmqr" || d.name == "ftsmqr") return 0.25;
  if (d.stage == ka::Stage::BandToBidiagonal) return 0.10;
  // The range finder's GEMM runs register-blocked tiles over packed
  // operands — the closest the pipeline gets to a throughput kernel.
  if (d.stage == ka::Stage::RandomizedSketch) return 0.35;
  return 0.10;
}

double PerfModel::launch_seconds(const ka::LaunchDesc& d) const {
  // Stage 3 runs on the host (LAPACK-style), fed by a device->host copy.
  if (d.stage == ka::Stage::BidiagonalToDiagonal) {
    const double copy = (d.cost.bytes_read + d.cost.bytes_written) /
                        (dev_.host_bw_gbs * 1e9);
    return 30e-6 + copy + d.cost.flops / (dev_.cpu_gflops * 1e9);
  }

  const double rate = dev_.flop_rate(d.precision);
  const Occupancy occ = occupancy_of(dev_, d);

  const double conc = static_cast<double>(dev_.num_cu) * occ.wgs_per_cu;
  const double groups = static_cast<double>(std::max<index_t>(1, d.num_groups));
  // Beyond the first wave, workgroup drain pipelines: fractional waves.
  const double waves = std::max(1.0, groups / conc);

  // Utilization ramps: a device is at full arithmetic throughput only with
  // enough resident threads per CU, and at full bandwidth only with enough
  // concurrent threads overall. Floors model the ILP a single warp's long
  // dot products still extract.
  const double active_wgs_per_cu =
      std::min<double>(occ.wgs_per_cu, std::ceil(groups / dev_.num_cu));
  const double threads_per_cu = active_wgs_per_cu * d.group_size;
  const double compute_util = std::clamp(threads_per_cu / 192.0, 0.15, 1.0);
  const double total_threads = std::min(groups, conc) * d.group_size;
  const double bw_util = std::clamp(
      total_threads / (static_cast<double>(dev_.num_cu) * 128.0), 0.20, 1.0);

  // Warp granularity: a workgroup occupies whole warps/wavefronts; idle
  // lanes in the last warp waste issue slots (why shrinking COLPERBLOCK
  // hurts, and hurts more on 64-lane AMD wavefronts — paper §3.3).
  const double warp = static_cast<double>(dev_.warp_size);
  const double rounded_lanes = std::ceil(d.group_size / warp) * warp;
  const double lane_eff = 1.0 - 0.35 * (1.0 - d.group_size / rounded_lanes);

  const double eff = kernel_efficiency(d) * style_.efficiency_scale *
                     occ.efficiency_scale * lane_eff;
  const double flops_per_wg = d.cost.flops / groups;
  const double bytes_per_wg =
      (d.cost.bytes_read + d.cost.bytes_written) / groups * occ.spill_factor;

  // Per-wave time on one CU running its resident workgroups.
  const double cu_rate = rate / dev_.num_cu;
  const double cu_bw = dev_.mem_bw_gbs * 1e9 / dev_.num_cu;
  const double wave_compute =
      active_wgs_per_cu * flops_per_wg / (cu_rate * eff * compute_util);
  const double wave_mem = active_wgs_per_cu * bytes_per_wg / (cu_bw * bw_util);
  const double throughput_time = waves * std::max(wave_compute, wave_mem);

  // In-kernel dependency chain: barrier-separated serial steps.
  const double serial_time =
      d.cost.serial_iterations * dev_.barrier_ns * 1e-9 * style_.serial_scale;

  return dev_.launch_overhead_us * 1e-6 * style_.launch_overhead_scale +
         std::max(throughput_time, serial_time);
}

SimBreakdown PerfModel::simulate(const std::vector<ka::LaunchDesc>& trace) const {
  SimBreakdown out;
  for (const auto& d : trace) {
    out.add(d.stage, launch_seconds(d));
  }
  return out;
}

std::vector<ka::LaunchDesc> phase2_schedule(index_t n, index_t bw, Precision p) {
  // Bulge chasing totals (see band_to_bidiag.hpp): ~ (bw-1)/bw * n^2 chase
  // hops of 2 rotations over ~bw+2 elements: ~6 n^2 bw flops, streaming
  // ~2 n^2 bw S bytes. Communication-avoiding wave pipelining processes
  // O(n/bw) column groups per launch with n/(2 bw) concurrent chases.
  std::vector<ka::LaunchDesc> out;
  if (n < 2 || bw < 2) return out;
  const double S = static_cast<double>(bytes_of(p));
  const double total_flops = 6.0 * static_cast<double>(n) * static_cast<double>(n) *
                             static_cast<double>(bw);
  const double total_bytes = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                             static_cast<double>(bw) * S;
  const index_t launches = std::max<index_t>(1, 2 * (n / std::max<index_t>(1, bw)));
  for (index_t i = 0; i < launches; ++i) {
    ka::LaunchDesc d;
    d.name = "brd_chase_wave";
    d.stage = ka::Stage::BandToBidiagonal;
    d.num_groups = std::max<index_t>(1, n / (2 * bw));
    d.group_size = static_cast<int>(std::min<index_t>(bw, 256));
    d.local_bytes = static_cast<std::size_t>(3 * bw) * static_cast<std::size_t>(S);
    d.private_bytes_per_item = static_cast<std::size_t>(4 * S);
    d.precision = p;
    d.cost.flops = total_flops / static_cast<double>(launches);
    d.cost.bytes_read = 0.5 * total_bytes / static_cast<double>(launches);
    d.cost.bytes_written = 0.5 * total_bytes / static_cast<double>(launches);
    d.cost.serial_iterations = static_cast<double>(bw);
    out.push_back(std::move(d));
  }
  return out;
}

ka::LaunchDesc phase3_record(index_t n, Precision p) {
  // Host-side bidiagonal QR iteration: ~30 n^2 flops over a handful of
  // implicit-shift sweeps, after copying 2n band entries to the host.
  ka::LaunchDesc d;
  d.name = "bdsqr_host";
  d.stage = ka::Stage::BidiagonalToDiagonal;
  d.num_groups = 1;
  d.group_size = 1;
  d.precision = p;
  d.cost.flops = 30.0 * static_cast<double>(n) * static_cast<double>(n);
  d.cost.bytes_read = 2.0 * static_cast<double>(n) * static_cast<double>(bytes_of(p));
  d.cost.bytes_written = static_cast<double>(n) * 8.0;
  d.cost.serial_iterations = static_cast<double>(n);
  return d;
}

}  // namespace unisvd::sim
