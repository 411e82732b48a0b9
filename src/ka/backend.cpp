#include "ka/backend.hpp"

#include "ka/thread_pool.hpp"

namespace unisvd::ka {

namespace {
thread_local Scratch tls_scratch;
}  // namespace

void SerialBackend::do_launch(const LaunchDesc& desc, const Kernel& kernel) {
  for (index_t g = 0; g < desc.num_groups; ++g) {
    tls_scratch.reset();
    WorkGroupCtx ctx(g, desc.group_size, tls_scratch);
    kernel(ctx);
  }
}

CpuBackend::CpuBackend(unsigned num_threads) : pool_(num_threads) {}

void CpuBackend::do_launch(const LaunchDesc& desc, const Kernel& kernel) {
  pool_.parallel_for(desc.num_groups, [&](index_t g) {
    tls_scratch.reset();
    WorkGroupCtx ctx(g, desc.group_size, tls_scratch);
    kernel(ctx);
  });
}

Backend& default_backend() {
  static CpuBackend backend;
  return backend;
}

}  // namespace unisvd::ka
