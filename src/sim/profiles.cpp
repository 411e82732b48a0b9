#include <vector>

#include "sim/device_spec.hpp"

namespace unisvd::sim {

// Sources: paper Table 2 (CU counts, L1 sizes, bandwidths, peak FP32,
// clocks, memory sizes) completed with public architecture specifications
// (warp widths, occupancy limits, FP64 ratios, host links). Launch and
// barrier overheads, host bandwidth and host flop rate are calibration
// constants of the model, chosen once per device and not measured on it;
// bench_table2_devices prints them beside the Table 2 figures.

const DeviceSpec& h100() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "H100";
    s.vendor = "NVIDIA";
    s.num_cu = 132;
    s.max_threads_per_cu = 2048;
    s.max_wgs_per_cu = 32;
    s.warp_size = 32;
    s.l1_kb_per_cu = 256;
    s.regfile_kb_per_cu = 256;
    s.clock_mhz = 1980;
    s.mem_gb = 80;
    s.mem_bw_gbs = 3360;
    s.fp32_tflops = 67;
    s.fp64_scale = 0.5;
    s.fp16 = Fp16Mode::Upcast;
    s.launch_overhead_us = 3.0;
    s.barrier_ns = 60.0;
    s.host_bw_gbs = 55.0;
    s.cpu_gflops = 90.0;  // Xeon Platinum 8462Y host
    return s;
  }();
  return d;
}

const DeviceSpec& a100() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "A100";
    s.vendor = "NVIDIA";
    s.num_cu = 108;
    s.max_threads_per_cu = 2048;
    s.max_wgs_per_cu = 32;
    s.warp_size = 32;
    s.l1_kb_per_cu = 192;
    s.regfile_kb_per_cu = 256;
    s.clock_mhz = 1410;
    s.mem_gb = 80;
    s.mem_bw_gbs = 1940;
    s.fp32_tflops = 19.5;
    s.fp64_scale = 0.5;
    s.fp16 = Fp16Mode::Upcast;
    s.launch_overhead_us = 3.5;
    s.barrier_ns = 70.0;
    s.host_bw_gbs = 28.0;
    s.cpu_gflops = 60.0;  // Xeon Gold 6330 host
    return s;
  }();
  return d;
}

const DeviceSpec& rtx4060() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "RTX4060";
    s.vendor = "NVIDIA";
    s.consumer = true;
    s.num_cu = 24;
    s.max_threads_per_cu = 1536;
    s.max_wgs_per_cu = 24;
    s.warp_size = 32;
    s.l1_kb_per_cu = 128;
    s.regfile_kb_per_cu = 256;
    s.clock_mhz = 2125;
    s.mem_gb = 8;
    s.mem_bw_gbs = 272;
    s.fp32_tflops = 15.1;
    s.fp64_scale = 1.0 / 32.0;
    s.fp16 = Fp16Mode::Upcast;
    s.launch_overhead_us = 3.0;
    s.barrier_ns = 50.0;  // high clock, shallow machine
    s.host_bw_gbs = 12.0;
    s.cpu_gflops = 70.0;  // Core i7-14650HX host
    return s;
  }();
  return d;
}

const DeviceSpec& mi250() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "MI250";
    s.vendor = "AMD";
    s.num_cu = 208;
    s.max_threads_per_cu = 2048;
    s.max_wgs_per_cu = 32;
    s.warp_size = 64;
    s.l1_kb_per_cu = 16;
    s.regfile_kb_per_cu = 512;  // paper Table 2: the Table-3 FP64 cliff source
    s.clock_mhz = 1700;
    s.mem_gb = 128;
    s.mem_bw_gbs = 3280;
    s.fp32_tflops = 45.3;
    s.fp64_scale = 1.0;  // CDNA2 vector FP64 == FP32 rate
    s.fp16 = Fp16Mode::Unsupported;  // Julia/AMDGPU conversion gap (paper Fig 5)
    s.launch_overhead_us = 6.0;
    s.barrier_ns = 90.0;
    s.host_bw_gbs = 45.0;
    s.cpu_gflops = 55.0;  // EPYC 7A53 host
    return s;
  }();
  return d;
}

const DeviceSpec& m1pro() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "M1Pro";
    s.vendor = "Apple";
    s.consumer = true;
    s.num_cu = 8;  // paper Table 2 lists 8 multiprocessors
    s.max_threads_per_cu = 1024;
    s.max_wgs_per_cu = 16;
    s.warp_size = 32;
    s.l1_kb_per_cu = 64;
    s.regfile_kb_per_cu = 208;
    s.clock_mhz = 1296;
    s.mem_gb = 16;  // unified memory
    s.mem_bw_gbs = 200;
    s.fp32_tflops = 2.6;
    s.fp64_scale = 0.0;  // Metal has no FP64 (paper Fig 5)
    s.fp16 = Fp16Mode::Native;  // first GPU SVD with scalar FP16
    s.launch_overhead_us = 9.0;  // Metal command-buffer dispatch
    s.barrier_ns = 150.0;
    s.host_bw_gbs = 200.0;  // unified memory: no PCIe copy
    s.cpu_gflops = 50.0;
    return s;
  }();
  return d;
}

const DeviceSpec& pvc() {
  static const DeviceSpec d = [] {
    DeviceSpec s;
    s.name = "PVC";
    s.vendor = "Intel";
    s.num_cu = 128;  // Xe cores (paper counts 1024 vector engines = 8/core)
    s.max_threads_per_cu = 1024;
    s.max_wgs_per_cu = 16;
    s.warp_size = 32;
    s.l1_kb_per_cu = 64;
    s.regfile_kb_per_cu = 512;
    s.clock_mhz = 1600;
    s.mem_gb = 64;
    s.mem_bw_gbs = 3280;
    s.fp32_tflops = 52.4;
    s.fp64_scale = 1.0;
    s.fp16 = Fp16Mode::Upcast;
    s.launch_overhead_us = 12.0;  // SYCL queue overheads (paper: weak small-n)
    s.barrier_ns = 120.0;
    s.host_bw_gbs = 50.0;
    s.cpu_gflops = 110.0;  // Xeon Max 9470C host (oneMKL small-n strength)
    return s;
  }();
  return d;
}

const DeviceSpec& device_by_name(const std::string& name) {
  for (const auto* d : all_devices()) {
    if (d->name == name) return *d;
  }
  UNISVD_REQUIRE(false, "unknown device profile: " + name);
  return h100();  // unreachable
}

const std::vector<const DeviceSpec*>& all_devices() {
  static const std::vector<const DeviceSpec*> v = {&h100(),   &a100(), &rtx4060(),
                                                   &mi250(),  &m1pro(), &pvc()};
  return v;
}

}  // namespace unisvd::sim
