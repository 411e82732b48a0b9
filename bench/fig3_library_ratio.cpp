/// Figure 3 + Table 4 (MAGMA / SLATE columns): runtime ratio of the
/// comparator library to the unified implementation (>1 means the unified
/// function is faster), across matrix sizes and devices, with the
/// geometric means and ranges the paper reports in Table 4.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/library_model.hpp"

using namespace unisvd;
using namespace unisvd::sim;

int main(int argc, char** argv) {
  auto sink = benchutil::JsonSink::from_args("fig3_library_ratio", argc, argv);
  benchutil::print_header(
      "Figure 3 -- runtime ratio library/unified (higher = unified faster)");

  const std::vector<const DeviceSpec*> devices = {&rtx4060(), &a100(), &h100(),
                                                  &mi250()};
  const std::vector<index_t> sizes = {128,  256,  512,   1024,  2048,
                                      4096, 8192, 16384, 32768};
  const Precision p = Precision::FP32;

  for (const auto* lib : {&magma_model(), &slate_model()}) {
    std::printf("\nvs %s\n%-10s", std::string(lib->name()).c_str(), "n");
    for (const auto* dev : devices) std::printf("%10s", dev->name.c_str());
    std::printf("\n");

    std::vector<benchutil::GeoMean> gm(devices.size());
    for (const auto n : sizes) {
      std::printf("%-10lld", static_cast<long long>(n));
      for (std::size_t di = 0; di < devices.size(); ++di) {
        const auto* dev = devices[di];
        if (!lib->supports(*dev, p) || !dev->fits(n, p)) {
          std::printf("%10s", "-");
          continue;
        }
        const double ratio = lib->seconds(*dev, n, p) /
                             unified_model().seconds(*dev, n, p);
        gm[di].add(ratio);
        std::printf("%10.2f", ratio);
        sink.record("sim/" + std::string(lib->name()) + "/" + dev->name +
                        "/n=" + std::to_string(static_cast<long long>(n)),
                    ratio, "x");
      }
      std::printf("\n");
    }
    std::printf("%-10s", "geomean");
    for (auto& g : gm) {
      if (g.empty()) {
        std::printf("%10s", "-");
      } else {
        std::printf("%10.2f", g.mean());
      }
    }
    std::printf("\n%-10s", "range");
    for (auto& g : gm) {
      if (g.empty()) {
        std::printf("%10s", "-");
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f-%.0f", g.lo(), g.hi());
        std::printf("%10s", buf);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\nExpected shape (paper Fig. 3 / Table 4): unified outperforms SLATE\n"
      "at every size and MAGMA above ~1024-2048; MAGMA's host path wins at\n"
      "small sizes; SLATE degrades most on the consumer RTX4060.\n");

  return sink.flush() ? 0 : 1;
}
