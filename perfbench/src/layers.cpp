#include "layers.hpp"

#include <algorithm>
#include <string_view>

namespace perfbench {

using unisvd::ka::Stage;

void LayerAccum::add_stages(const unisvd::ka::StageTimes& t, bool dc) {
  chase_s_ += t.get(Stage::BandToBidiagonal);
  (dc ? dc_stage3_s_ : bidiag_stage3_s_) += t.get(Stage::BidiagonalToDiagonal);
  vacc_s_ += t.get(Stage::VectorAccumulation);
  small_fused_s_ += t.get(Stage::FusedSmall);
}

void LayerAccum::add(const unisvd::SvdReport& r) {
  add_stages(r.stage_times, r.stage3_dc);
  rotations_ += r.chase_stats.rotations;
  replay_flushes_ += r.chase_stats.batch_flushes;
  if (r.small_path) small_solves_ += 1.0;
}

void LayerAccum::add(const unisvd::TruncReport& r) {
  add_stages(r.stage_times, false);
  rsvd_solves_ += 1.0;
}

namespace {

struct Busy {
  double launches = 0.0;
  double seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;

  void add(const KernelTally& k) {
    launches += static_cast<double>(k.launches);
    seconds += k.busy_s;
    flops += k.flops;
    bytes += k.bytes;
  }
  [[nodiscard]] double gflops() const { return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0; }
  [[nodiscard]] double gbps() const { return seconds > 0.0 ? bytes / seconds * 1e-9 : 0.0; }
};

bool is_reflector_apply(std::string_view name) {
  return name == "unmqr" || name == "tsmqr" || name == "ftsmqr";
}

}  // namespace

void LayerAccum::emit(Metrics& out, const KernelTable& launches) const {
  Busy panel, trailing, acc_apply, replay, sketch, all;
  for (const auto& [key, tally] : launches) {
    const auto& [name, stage] = key;
    all.add(tally);
    if (stage == Stage::PanelFactorization) panel.add(tally);
    if (stage == Stage::TrailingUpdate) trailing.add(tally);
    if (stage == Stage::VectorAccumulation && is_reflector_apply(name)) acc_apply.add(tally);
    if (name == "stage2_rot_batch") replay.add(tally);
    if (stage == Stage::RandomizedSketch) sketch.add(tally);
  }
  const double calls = std::max(calls_, 1.0);
  const auto per = [calls](double v) { return v / calls; };

  out.add("qr.panel_s", per(panel.seconds), "s/call");
  out.add("qr.panel_gflops", panel.gflops(), "GFLOP/s");
  out.add("qr.trailing_s", per(trailing.seconds), "s/call");
  out.add("qr.trailing_gflops", trailing.gflops(), "GFLOP/s");
  out.add("qr.trailing_gbps", trailing.gbps(), "GB/s");
  out.add("qr.acc_apply_s", per(acc_apply.seconds), "s/call");
  out.add("qr.acc_apply_gflops", acc_apply.gflops(), "GFLOP/s");
  out.add("qr.launches", per(panel.launches + trailing.launches + acc_apply.launches),
          "count/call");

  out.add("band.chase_s", per(chase_s_), "s/call");
  out.add("band.rotations", per(rotations_), "count/call");
  out.add("band.replay_s", per(replay.seconds), "s/call");
  out.add("band.replay_gbps", replay.gbps(), "GB/s");
  out.add("band.replay_launches", per(replay.launches), "count/call");
  out.add("band.replay_flushes", per(replay_flushes_), "count/call");

  out.add("bidiag.stage3_s", per(bidiag_stage3_s_), "s/call");
  out.add("dc.stage3_s", per(dc_stage3_s_), "s/call");
  out.add("core.vacc_rest_s",
          per(std::max(0.0, vacc_s_ - acc_apply.seconds - replay.seconds)), "s/call");

  out.add("small.solves", small_solves_, "count");
  out.add("small.fused_s", per(small_fused_s_), "s/call");
  out.add("rsvd.solves", rsvd_solves_, "count");
  out.add("rsvd.sketch_s", per(sketch.seconds), "s/call");
  out.add("rsvd.sketch_gflops", sketch.gflops(), "GFLOP/s");

  out.add("ka.launches", per(all.launches), "count/call");
  out.add("ka.launch_s", per(all.seconds), "s/call");
}

void WorkloadLayers::emit(Metrics& out) const {
  out.add("core.thin_values_ratio", thin_values_ratio, "ratio");
  out.add("serve.cache_hit_frac", cache_hit_frac, "fraction");
  out.add("serve.waves", waves, "count");
  out.add("serve.jobs_per_wave", jobs_per_wave, "count");
  out.add("serve.queue_depth_peak", queue_depth_peak, "count");
  out.add("serve.rejected", rejected, "count");
  out.add("serve.expired", expired, "count");
  out.add("serve.solve_p50_s", serve_solve_p50_s, "s");
  out.add("serve.wait_p50_s", serve_wait_p50_s, "s");
  out.add("ka.pool_speedup", pool_speedup, "ratio");
  out.add("trace.overhead_frac", trace_overhead_frac, "fraction");
  out.add("bench.gen_lag_p99_s", gen_lag_p99_s, "s");
  out.add("check.sigma_err", sigma_err, "eps_n");
  out.add("check.orth_err", orth_err, "eps_n");
  out.add("check.residual_err", residual_err, "eps_n");
}

}  // namespace perfbench
