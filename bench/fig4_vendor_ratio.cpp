/// Figure 4 + Table 4 (vendor column): runtime ratio of the platform
/// vendor library (cuSOLVER on NVIDIA, rocSOLVER on AMD, oneMKL on Intel)
/// to the unified implementation. Sizes stop at 16k as in the paper
/// (vendor eigensolvers lacked 64-bit addressing beyond that).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/library_model.hpp"

using namespace unisvd;
using namespace unisvd::sim;

int main(int argc, char** argv) {
  auto sink = benchutil::JsonSink::from_args("fig4_vendor_ratio", argc, argv);
  benchutil::print_header(
      "Figure 4 -- runtime ratio vendor/unified (higher = unified faster)");

  struct Pair {
    const DeviceSpec* dev;
    const LibraryModel* lib;
  };
  const std::vector<Pair> pairs = {{&rtx4060(), &cusolver_model()},
                                   {&a100(), &cusolver_model()},
                                   {&h100(), &cusolver_model()},
                                   {&mi250(), &rocsolver_model()},
                                   {&pvc(), &onemkl_model()}};
  const std::vector<index_t> sizes = {128, 256, 512, 1024, 2048, 4096, 8192, 16384};
  const Precision p = Precision::FP32;

  std::printf("%-10s", "n");
  for (const auto& pr : pairs) {
    char head[32];
    std::snprintf(head, sizeof(head), "%s", pr.dev->name.c_str());
    std::printf("%10s", head);
  }
  std::printf("\n%-10s", "");
  for (const auto& pr : pairs) {
    std::printf("%10s", std::string(pr.lib->name()).substr(0, 9).c_str());
  }
  std::printf("\n");

  std::vector<benchutil::GeoMean> gm(pairs.size());
  for (const auto n : sizes) {
    std::printf("%-10lld", static_cast<long long>(n));
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& pr = pairs[i];
      if (!pr.lib->supports(*pr.dev, p) || !pr.dev->fits(n, p)) {
        std::printf("%10s", "-");
        continue;
      }
      const double ratio =
          pr.lib->seconds(*pr.dev, n, p) / unified_model().seconds(*pr.dev, n, p);
      gm[i].add(ratio);
      std::printf("%10.2f", ratio);
      sink.record("sim/" + std::string(pr.lib->name()) + "/" + pr.dev->name +
                      "/n=" + std::to_string(static_cast<long long>(n)),
                  ratio, "x");
    }
    std::printf("\n");
  }
  std::printf("%-10s", "geomean");
  for (auto& g : gm) std::printf("%10.2f", g.mean());
  std::printf("\n%-10s", "range");
  for (auto& g : gm) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f-%.1f", g.lo(), g.hi());
    std::printf("%10s", buf);
  }
  std::printf(
      "\n\nExpected shape (paper Fig. 4 / Table 4): unified beats rocSOLVER at\n"
      "every size and cuSOLVER on the consumer RTX4060; reaches 50-90%% of\n"
      "cuSOLVER on A100/H100 (ratio 0.5-0.9); overtakes oneMKL beyond ~2048.\n");

  return sink.flush() ? 0 : 1;
}
