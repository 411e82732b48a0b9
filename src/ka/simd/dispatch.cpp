#include "ka/simd/dispatch.hpp"

namespace unisvd::ka::simd {

bool cpu_supported() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // CPUID is not free; __builtin_cpu_supports caches internally but the
  // static keeps even the call out of repeated queries.
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  // No AVX2 feature level to probe off x86-64.
  return true;
#endif
}

std::string_view isa_name() noexcept {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace unisvd::ka::simd
