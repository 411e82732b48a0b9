#include "sim/library_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/half.hpp"
#include "qr/band_reduction.hpp"
#include "sim/tuning.hpp"
#include "tile/tile_layout.hpp"

namespace unisvd::sim {

namespace {

/// Dispatch the templated schedule generator on a runtime precision.
void schedule_phase1(index_t ntiles, const qr::KernelConfig& cfg, Precision p,
                     ka::TraceRecorder& trace) {
  switch (p) {
    case Precision::FP16:
      qr::schedule_band_reduction<Half>(ntiles, cfg, trace);
      return;
    case Precision::FP32:
      qr::schedule_band_reduction<float>(ntiles, cfg, trace);
      return;
    case Precision::FP64:
      qr::schedule_band_reduction<double>(ntiles, cfg, trace);
      return;
  }
}

double n3(index_t n) {
  const double x = static_cast<double>(n);
  return x * x * x;
}
double n2(index_t n) {
  const double x = static_cast<double>(n);
  return x * x;
}

}  // namespace

std::vector<ka::LaunchDesc> unified_schedule(index_t n, Precision p,
                                             const qr::KernelConfig& cfg) {
  const auto layout = tile::TileLayout::make(n, cfg.tilesize);
  ka::TraceRecorder trace;
  schedule_phase1(layout.ntiles, cfg, p, trace);
  auto out = trace.records();
  auto p2 = phase2_schedule(layout.n, cfg.tilesize, p);
  out.insert(out.end(), p2.begin(), p2.end());
  out.push_back(phase3_record(layout.n, p));
  return out;
}

SimBreakdown simulate_unified(const DeviceSpec& dev, index_t n, Precision p) {
  const auto cfg = tuned_kernel_config(dev, p, n);
  const PerfModel model(dev);
  return model.simulate(unified_schedule(n, p, cfg));
}

namespace {

class UnifiedModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "unified"; }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    return simulate_unified(dev, n, p).total();
  }
};

/// cuSOLVER: proprietary (the paper itself notes a function-by-function
/// comparison is impossible). Modeled as a calibrated envelope around the
/// unified model's own prediction, encoding the paper's measured relation:
/// on HPC SKUs cuSOLVER runs the same problem in 0.55x (small) to 0.88x
/// (16k) of the unified time (paper: "unified reaches 50-90% of cuSOLVER");
/// on consumer SKUs the HPC-oriented tuning backfires and cuSOLVER takes
/// 1.0x (small) to ~4x (32k) of the unified time (paper Table 4:
/// RTX4060 geometric mean 1.5, range 1.0-4.2). These anchors are the only
/// non-mechanistic constants in the comparator suite.
class CusolverModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "cuSOLVER"; }
  [[nodiscard]] bool supports(const DeviceSpec& dev, Precision p) const override {
    return dev.vendor == "NVIDIA" && p != Precision::FP16 && dev.supports(p);
  }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    const double t_uni = unified_model().seconds(dev, n, p);
    const double lo_n = std::log2(128.0);
    const double hi_n = std::log2(dev.consumer ? 32768.0 : 16384.0);
    const double t = std::clamp((std::log2(double(n)) - lo_n) / (hi_n - lo_n), 0.0, 1.0);
    const double factor =
        dev.consumer ? (1.0 + t * 3.0)          // unified 1.0x -> 4x faster
                     : (0.55 + t * 0.33);       // cuSOLVER 1.8x -> 1.14x faster
    return t_uni * factor;
  }
};

/// rocSOLVER gesvd: one-stage Householder bidiagonalization with unblocked
/// BLAS2 inner loops (every flop streams through memory) plus a launch per
/// column-reflector application. Structurally memory-bound at scale.
class RocsolverModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "rocSOLVER"; }
  [[nodiscard]] bool supports(const DeviceSpec& dev, Precision p) const override {
    return dev.vendor == "AMD" && p != Precision::FP16;
  }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    const double S = static_cast<double>(bytes_of(p));
    const double bytes = (4.0 / 3.0) * n3(n) * S;  // all-BLAS2 traffic
    // Unblocked gemv/ger sweeps issued one launch at a time reach a small
    // fraction of STREAM bandwidth (strided panels, no reuse, no overlap).
    const double mem_time = bytes / (dev.mem_bw_gbs * 1e9 * 0.05);
    const double launches = 6.0 * static_cast<double>(n);  // per-column kernels
    const double launch_time = launches * dev.launch_overhead_us * 1e-6 * 1.5;
    const double host_stage3 = 30.0 * n2(n) / (dev.cpu_gflops * 1e9);
    return mem_time + launch_time + host_stage3;
  }
};

/// oneMKL gesvd on Intel GPUs: blocked one-stage bidiagonalization on the
/// device (half the flops BLAS2 at modest achieved bandwidth, half BLAS3)
/// with a strong multicore host path that wins at small sizes — MKL picks
/// whichever is faster.
class OnemklModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "oneMKL"; }
  [[nodiscard]] bool supports(const DeviceSpec& dev, Precision p) const override {
    return dev.vendor == "Intel" && p != Precision::FP16;
  }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    const double S = static_cast<double>(bytes_of(p));
    const double flops = (8.0 / 3.0) * n3(n);
    // Host path: multicore MKL; gesvd is half BLAS2, so it is bounded by
    // host memory bandwidth at scale, plus fixed library overhead.
    const double cpu_bw = 80e9;
    const double cpu_rate =
        dev.cpu_gflops * 1e9 * 6.0 * (p == Precision::FP64 ? 0.5 : 1.0);
    const double t_cpu = 60e-6 + (2.0 / 3.0) * n3(n) * S / cpu_bw +
                         0.5 * flops / cpu_rate;
    // Device path: strided gemv streams at a fraction of STREAM bandwidth.
    const double t_blas2 = (2.0 / 3.0) * n3(n) * S / (dev.mem_bw_gbs * 1e9 * 0.15);
    const double rate = dev.flop_rate(p);
    const double t_blas3 = (4.0 / 3.0) * n3(n) / (rate * 0.7);
    const double t_launch = 8.0 * static_cast<double>(n) * dev.launch_overhead_us * 1e-6;
    return std::min(t_cpu, t_blas2 + t_blas3 + t_launch);
  }
};

/// MAGMA gesvd: hybrid one-stage — panels on the host CPU, trailing BLAS2/3
/// on the device, panel traffic over PCIe — with a pure-CPU path that wins
/// at small sizes (paper Fig 3: MAGMA ahead below ~1k, behind above).
class MagmaModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "MAGMA"; }
  [[nodiscard]] bool supports(const DeviceSpec& dev, Precision p) const override {
    return (dev.vendor == "NVIDIA" || dev.vendor == "AMD") && p != Precision::FP16 &&
           dev.supports(p);
  }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    const double S = static_cast<double>(bytes_of(p));
    const double rate = dev.flop_rate(p);
    // Hybrid path: GPU gemv phases synchronized with CPU panels reach a
    // modest fraction of STREAM bandwidth; fixed library setup overhead.
    const double t_blas2 = (2.0 / 3.0) * n3(n) * S / (dev.mem_bw_gbs * 1e9 * 0.35);
    const double t_blas3 = (4.0 / 3.0) * n3(n) / (rate * 0.6);
    const double nb = 64.0;
    const double t_panel_cpu = 2.0 * n2(n) * nb / (dev.cpu_gflops * 1e9);
    const double t_pcie = 2.0 * n2(n) * S / (dev.host_bw_gbs * 1e9) +
                          (static_cast<double>(n) / nb) * 30e-6;
    // Column-synchronized gemv phases are latency-bound in the mid range.
    const double t_sync = 2.0 * static_cast<double>(n) * 6e-6;
    const double t_hybrid = 1e-3 + t_blas2 + t_blas3 + t_panel_cpu + t_pcie + t_sync;
    // Host LAPACK path for small problems: BLAS2-bound on the host, too.
    const double t_cpu = 1e-3 + (2.0 / 3.0) * n3(n) * S / 80e9 +
                         (4.0 / 3.0) * n3(n) / (dev.cpu_gflops * 1e9 * 4.0) +
                         n2(n) * S / (dev.host_bw_gbs * 1e9);
    return std::min(t_hybrid, t_cpu);
  }
};

/// SLATE svd: tile-based two-stage algorithm executed through a generic
/// runtime — one launch per tile operation (the unfused schedule), queue
/// and synchronization costs per launch, and vendor-BLAS calls on small
/// tiles that reach a fraction of the unified kernels' efficiency. SLATE
/// targets multi-node HPC; on consumer parts its assumptions collapse
/// (paper Table 4: geometric mean 280x on RTX4060).
class SlateModel final : public LibraryModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "SLATE"; }
  [[nodiscard]] bool supports(const DeviceSpec& dev, Precision p) const override {
    return dev.vendor != "Apple" && p != Precision::FP16 && dev.supports(p);
  }
  [[nodiscard]] double seconds(const DeviceSpec& dev, index_t n,
                               Precision p) const override {
    qr::KernelConfig cfg;
    cfg.tilesize = 64;
    cfg.colperblock = 32;
    cfg.splitk = 1;
    cfg.fused = false;  // one launch per tile row: the Figure 2 right-hand side
    ExecutionStyle style;
    style.efficiency_scale = dev.consumer ? 0.008 : 0.45;
    style.launch_overhead_scale = dev.consumer ? 8.0 : 4.0;  // queueing + sync
    style.serial_scale = 2.0;
    const PerfModel model(dev, style);
    return model.simulate(unified_schedule(n, p, cfg)).total();
  }
};

}  // namespace

const LibraryModel& unified_model() {
  static const UnifiedModel m;
  return m;
}
const LibraryModel& cusolver_model() {
  static const CusolverModel m;
  return m;
}
const LibraryModel& rocsolver_model() {
  static const RocsolverModel m;
  return m;
}
const LibraryModel& onemkl_model() {
  static const OnemklModel m;
  return m;
}
const LibraryModel& magma_model() {
  static const MagmaModel m;
  return m;
}
const LibraryModel& slate_model() {
  static const SlateModel m;
  return m;
}

}  // namespace unisvd::sim
