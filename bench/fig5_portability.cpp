/// Figure 5: runtime of the unified svdvals across hardware backends
/// (H100, MI250, M1 Pro, PVC) and precisions (FP16/FP32/FP64).
///
/// Reproduces the paper's portability matrix on the trace-driven device
/// model: per (device, precision) the tuned hyperparameters are selected
/// automatically; unsupported combinations (FP64 on Apple Metal, FP16 on
/// Julia-era AMD) appear as gaps, exactly as in the paper's figure; FP16
/// extends to larger maximum sizes because it halves the memory footprint.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/library_model.hpp"
#include "sim/tuning.hpp"

using namespace unisvd;
using namespace unisvd::sim;

int main(int argc, char** argv) {
  auto sink = benchutil::JsonSink::from_args("fig5_portability", argc, argv);
  benchutil::print_header(
      "Figure 5 -- unified svdvals runtime across hardware and precision "
      "(simulated on paper Table 2 device profiles)");

  const std::vector<const DeviceSpec*> devices = {&h100(), &mi250(), &m1pro(), &pvc()};
  const std::vector<Precision> precisions = {Precision::FP16, Precision::FP32,
                                             Precision::FP64};
  const std::vector<index_t> sizes = {256,  512,   1024,  2048,  4096,
                                      8192, 16384, 32768, 65536, 131072};

  for (const auto* dev : devices) {
    std::printf("\n%-8s", dev->name.c_str());
    for (const auto p : precisions) std::printf("%12s", std::string(to_string(p)).c_str());
    std::printf("\n");
    for (const auto n : sizes) {
      std::printf("%-8lld", static_cast<long long>(n));
      for (const auto p : precisions) {
        if (!dev->supports(p)) {
          std::printf("%12s", "unsupported");
          continue;
        }
        if (!dev->fits(n, p)) {
          std::printf("%12s", "oom");
          continue;
        }
        const double t = simulate_unified(*dev, n, p).total();
        std::printf("%12s", benchutil::fmt_seconds(t).c_str());
        sink.record("sim/" + dev->name + "/" + std::string(to_string(p)) +
                        "/n=" + std::to_string(static_cast<long long>(n)),
                    t, "s");
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nNotes (paper Fig. 5): FP16 matches FP32 speed on NVIDIA (upcast to\n"
      "FP32 CUDA cores) while reaching larger sizes; Apple Metal lacks FP64;\n"
      "Julia/AMDGPU lacked FP16 conversion at paper time; Intel results were\n"
      "provided for FP32.\n");
  return sink.flush() ? 0 : 1;
}
