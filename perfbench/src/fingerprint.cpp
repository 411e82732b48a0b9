#include "fingerprint.hpp"

#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "ka/simd/dispatch.hpp"
#include "ka/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SIMD_BUILD
#define PERFBENCH_SIMD_BUILD 0
#endif

namespace perfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the first cache of `level` listed under cpu0 ("" when absent).
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string lv = read_line(dir + "level");
    if (lv.empty()) break;
    if (lv == std::to_string(level)) return read_line(dir + "size");
  }
  return "";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string fingerprint_json(unisvd::ka::Backend& backend, const std::string& source) {
  namespace simd = unisvd::ka::simd;
  const unisvd::ka::ThreadPool* pool = backend.batch_pool();
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + json_string(cpu_model());
  out += ",\"l2\":" + json_string(cache_size(2));
  out += ",\"l3\":" + json_string(cache_size(3));
  out += ",\"simd_build\":" + std::string(PERFBENCH_SIMD_BUILD ? "true" : "false");
  out += ",\"simd_cpu\":" + std::string(simd::cpu_supported() ? "true" : "false");
  out += ",\"simd_dispatch\":" + json_string(std::string(simd::isa_name()));
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + json_string(compiler());
  out += ",\"backend\":" + json_string(std::string(backend.name()));
  out += ",\"backend_threads\":" + std::to_string(pool != nullptr ? pool->size() : 1u);
  out += ",\"source\":" + json_string(source);
  out += "}";
  return out;
}

}  // namespace perfbench
