#pragma once
/// \file dispatch.hpp
/// What the running CPU offers and what ISA the library was compiled for.
///
/// Every tile kernel has one body, which the compiler vectorizes for the
/// ISA the build targets (`-DCMAKE_CXX_FLAGS=-march=...`). Nothing is
/// chosen at run time; these two queries only describe the build and the
/// host for reports and benches.

#include <string_view>

namespace unisvd::ka::simd {

/// True when the running CPU can execute AVX2 code (on x86-64, checked once
/// via CPUID; true elsewhere). Reports the hardware, not the build.
[[nodiscard]] bool cpu_supported() noexcept;

/// The widest vector ISA the library was compiled for, from the compiler's
/// predefined macros: "avx512f", "avx2", "sse2", "neon" or "scalar".
[[nodiscard]] std::string_view isa_name() noexcept;

}  // namespace unisvd::ka::simd
