#pragma once
/// \file workloads.hpp
/// The benchmark's workloads (see perfbench/README.md for why each exists):
///   dense_values — closed loop, one caller, svd_values_report<float>,
///                  n = 1024 inputs with a prescribed log-spaced spectrum;
///   dense_thin   — the same inputs and caller with SvdJob::Thin;
///   served_mix   — a seeded Poisson open-loop request stream into
///                  serve::SvdService (2 workers, 4 tenants, Reject).

#include <cstdint>
#include <string>

#include "common.hpp"
#include "ka/backend.hpp"

namespace perfbench {

/// True for the workload names this binary knows.
[[nodiscard]] bool is_dense_workload(const std::string& name);
[[nodiscard]] bool is_served_workload(const std::string& name);

/// Timed run (untraced: end-to-end metrics; traced: per-layer metrics).
[[nodiscard]] RunResult run_dense(const Options& opt);
[[nodiscard]] RunResult run_served(const Options& opt);

/// Closed-loop capacity of the served_mix request mix (4 clients, each
/// waiting for its reply): the measurement served_mix's offered rate is
/// derived from.
[[nodiscard]] RunResult calibrate_served(const Options& opt);

/// Cold set-up of one fresh process: backend (plus service) construction
/// and the first request(s). Returns seconds, or a negative value when a
/// request failed.
[[nodiscard]] double setup_dense(const Options& opt);
[[nodiscard]] double setup_served(const Options& opt);

/// Shared by the traced runs: the single-threaded SerialBackend time of one
/// dense_values input divided by the default backend's (median of three).
[[nodiscard]] double pool_speedup(std::uint64_t seed);

}  // namespace perfbench
