#pragma once
/// \file layers.hpp
/// Per-layer metrics, assembled only from what the library already returns
/// (report stage times, ChaseStats, path flags) and from the timing
/// backend's launch table. Times are reported per traced public call so
/// runs of different lengths compare directly.

#include "common.hpp"
#include "core/svd.hpp"
#include "timing_backend.hpp"

namespace perfbench {

class LayerAccum {
 public:
  /// One solved report (count each distinct solve once).
  void add(const unisvd::SvdReport& r);
  void add(const unisvd::TruncReport& r);
  /// Public calls (dense solves or served requests) the layers are divided
  /// over.
  void add_calls(double n) { calls_ += n; }

  /// Append the qr/band/bidiag/dc/core/small/rsvd/ka metrics.
  void emit(Metrics& out, const KernelTable& launches) const;

 private:
  void add_stages(const unisvd::ka::StageTimes& t, bool dc);

  double calls_ = 0.0;
  double chase_s_ = 0.0;
  double rotations_ = 0.0;
  double replay_flushes_ = 0.0;
  double bidiag_stage3_s_ = 0.0;
  double dc_stage3_s_ = 0.0;
  double vacc_s_ = 0.0;
  double small_solves_ = 0.0;
  double small_fused_s_ = 0.0;
  double rsvd_solves_ = 0.0;
};

/// Workload-level per-layer values; each workload fills what applies and
/// leaves the rest 0, so every traced run prints the same metric set.
struct WorkloadLayers {
  double thin_values_ratio = 0.0;  ///< Thin / values-only solve time, same input
  // serve: from ServeStats and the served reports
  double cache_hit_frac = 0.0;
  double waves = 0.0;
  double jobs_per_wave = 0.0;
  double queue_depth_peak = 0.0;
  double rejected = 0.0;
  double expired = 0.0;
  double serve_solve_p50_s = 0.0;
  double serve_wait_p50_s = 0.0;
  // benchmark health
  double pool_speedup = 0.0;
  double trace_overhead_frac = 0.0;
  double gen_lag_p99_s = 0.0;
  // medians of the output checks (orth/residual 0 when no factors)
  double sigma_err = 0.0;
  double orth_err = 0.0;
  double residual_err = 0.0;

  void emit(Metrics& out) const;
};

}  // namespace perfbench
