#pragma once
/// \file fingerprint.hpp
/// Machine and build fingerprint attached to every result, so numbers from
/// different boxes or builds are never compared by accident.

#include <string>

#include "ka/backend.hpp"

namespace perfbench {

/// One JSON object: nproc, CPU model, L2/L3 sizes, SIMD ISA and dispatch,
/// build type, compiler, backend name and thread count, and the source
/// revision (`source` as handed in by the launcher: a git commit when the
/// checkout has one, else a digest of the sources).
[[nodiscard]] std::string fingerprint_json(unisvd::ka::Backend& backend,
                                           const std::string& source);

}  // namespace perfbench
