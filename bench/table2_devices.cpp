/// Table 2: the benchmark hardware fleet. Prints the device profiles the
/// performance model runs on — the paper's Table 2 columns plus the
/// model-specific parameters (documented calibration constants).

#include <cstdio>

#include "bench_util.hpp"
#include "sim/device_spec.hpp"

using namespace unisvd::sim;

int main() {
  benchutil::print_header("Table 2 -- benchmark hardware (device model profiles)");
  std::printf("%-9s %-7s %5s %8s %9s %9s %9s %6s %6s %5s\n", "GPU", "vendor", "CUs",
              "L1/CU", "BW GB/s", "FP32 TF", "clockMHz", "FP64", "FP16", "mem");
  for (const auto* d : all_devices()) {
    const char* fp16 = d->fp16 == Fp16Mode::Upcast    ? "upcst"
                       : d->fp16 == Fp16Mode::Native  ? "nativ"
                                                      : "no";
    std::printf("%-9s %-7s %5d %6.0fKB %9.0f %9.1f %9.0f %6s %6s %4.0fG\n",
                d->name.c_str(), d->vendor.c_str(), d->num_cu, d->l1_kb_per_cu,
                d->mem_bw_gbs, d->fp32_tflops, d->clock_mhz,
                d->fp64_scale > 0 ? (d->fp64_scale >= 1.0 ? "1:1" : "1:2+") : "no",
                fp16, d->mem_gb);
  }
  std::printf("\nModel calibration constants (src/sim/profiles.cpp):\n");
  std::printf("%-9s %12s %12s %10s %10s\n", "GPU", "launch us", "barrier ns",
              "host GB/s", "cpu GF/s");
  for (const auto* d : all_devices()) {
    std::printf("%-9s %12.1f %12.0f %10.0f %10.0f\n", d->name.c_str(),
                d->launch_overhead_us, d->barrier_ns, d->host_bw_gbs, d->cpu_gflops);
  }
  return 0;
}
