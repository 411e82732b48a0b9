#include "qr/band_reduction.hpp"

#include "common/half.hpp"

namespace unisvd::qr {

// Explicit instantiations: every supported storage precision is compiled
// into the library (the C++ counterpart of Julia specializing Algorithm 2
// per element type at compile time).
template void band_reduction<Half>(ka::Backend&, MatrixView<Half>, MatrixView<Half>,
                                   const KernelConfig&, ka::StageTimes*);
template void band_reduction<float>(ka::Backend&, MatrixView<float>, MatrixView<float>,
                                    const KernelConfig&, ka::StageTimes*);
template void band_reduction<double>(ka::Backend&, MatrixView<double>,
                                     MatrixView<double>, const KernelConfig&,
                                     ka::StageTimes*);

template void schedule_band_reduction<Half>(index_t, const KernelConfig&,
                                            ka::TraceRecorder&);
template void schedule_band_reduction<float>(index_t, const KernelConfig&,
                                             ka::TraceRecorder&);
template void schedule_band_reduction<double>(index_t, const KernelConfig&,
                                              ka::TraceRecorder&);

}  // namespace unisvd::qr
