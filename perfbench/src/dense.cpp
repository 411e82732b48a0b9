/// dense_values and dense_thin: one caller in a closed loop, each call on a
/// freshly generated n = 1024 FP32 input with a prescribed log-spaced
/// spectrum. Latency is the wall time of the public call; a run measures
/// until the timed calls add up to --seconds (input generation and output
/// checks happen between calls and are not counted).

#include <cstdio>

#include "checks.hpp"
#include "core/svd.hpp"
#include "layers.hpp"
#include "rand/matrix_gen.hpp"
#include "timing_backend.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

using unisvd::index_t;
using unisvd::Matrix;
using unisvd::SvdConfig;
using unisvd::SvdJob;
using unisvd::SvdReport;

namespace {

constexpr index_t kDenseN = 1024;
constexpr double kDecades = 1.0;
/// At least this many calls per run, however long each takes.
constexpr int kMinCalls = 3;
/// Inputs generated together, one per thread, between timed calls.
constexpr unsigned kGenBatch = 4;
/// Latency limits of slo_frac: about 6x the median call on a quiet 4-core
/// x86 box, so a busy host (which has slowed the same calls 2.5x) still
/// meets them.
constexpr double kValuesSloSeconds = 2.0;
constexpr double kThinSloSeconds = 15.0;

struct DenseInput {
  Matrix<float> a;
  std::vector<double> sigma;  ///< the prescribed spectrum (exact for `a` up to rounding)
};

/// Input `index` of the stream for `seed`: the same on both dense workloads.
DenseInput make_input(std::uint64_t seed, std::uint64_t index) {
  unisvd::rnd::SplitMix64 mix(seed * 0x100000001B3ull + index);
  unisvd::rnd::Xoshiro256 rng(mix.next());
  DenseInput in;
  in.sigma = unisvd::rnd::logarithmic_spectrum(kDenseN, kDecades);
  in.a = unisvd::rnd::round_to<float>(
      unisvd::rnd::matrix_with_spectrum_fast(in.sigma, rng));
  return in;
}

/// Inputs [first, first + count), generated on all cores (each input's
/// bytes depend only on its index, never on the thread that built it).
std::vector<DenseInput> make_inputs(std::uint64_t seed, std::uint64_t first, unsigned count) {
  std::vector<DenseInput> out(count);
  parallel_stripes(count, [&](std::size_t w, std::size_t workers) {
    for (std::size_t i = w; i < count; i += workers) out[i] = make_input(seed, first + i);
  });
  return out;
}

SvdConfig config_for(const std::string& workload) {
  SvdConfig cfg;
  cfg.job = workload == "dense_thin" ? SvdJob::Thin : SvdJob::ValuesOnly;
  return cfg;
}

SvdReport solve(const DenseInput& in, const SvdConfig& cfg, unisvd::ka::Backend& be) {
  return unisvd::svd_values_report<float>(in.a.view(), cfg, be);
}

constexpr double kEps = unisvd::precision_traits<float>::storage_eps;

/// Accuracy checks of one report; records a failure when any error exceeds
/// the limit. Returns {sigma, orth, residual} (orth/residual 0 for values).
struct Errors {
  double sigma = 0.0;
  double orth = 0.0;
  double residual = 0.0;
};

Errors check(const DenseInput& in, const SvdReport& rep, RunResult& res) {
  Errors e;
  if (rep.status != unisvd::SvdStatus::Ok) {
    res.fail("dense solve status " + std::string(unisvd::to_string(rep.status)));
    return e;
  }
  e.sigma = sigma_err(rep.values, in.sigma, kEps, kDenseN);
  if (rep.u.size() > 0) {
    e.orth = orth_err(rep.u, rep.vt, kEps, kDenseN);
    e.residual = residual_err(widen(in.a), rep.u, rep.values, rep.vt, kEps, in.sigma[0]);
  }
  if (!(e.sigma <= kErrorLimit && e.orth <= kErrorLimit && e.residual <= kErrorLimit)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "dense accuracy: sigma %.3g orth %.3g residual %.3g",
                  e.sigma, e.orth, e.residual);
    res.fail(buf);
  }
  return e;
}

}  // namespace

bool is_dense_workload(const std::string& name) {
  return name == "dense_values" || name == "dense_thin";
}

double pool_speedup(std::uint64_t seed) {
  const DenseInput in = make_input(seed, 0);
  const SvdConfig cfg;  // values-only, as on dense_values
  unisvd::ka::SerialBackend serial;
  auto t0 = Clock::now();
  (void)solve(in, cfg, serial);
  const double serial_s = seconds_between(t0, Clock::now());
  std::vector<double> pooled;
  for (int i = 0; i < 3; ++i) {
    t0 = Clock::now();
    (void)solve(in, cfg, unisvd::ka::default_backend());
    pooled.push_back(seconds_between(t0, Clock::now()));
  }
  return serial_s / median(pooled);
}

double setup_dense(const Options& opt) {
  const DenseInput in = make_input(opt.seed, 0);
  const SvdConfig cfg = config_for(opt.workload);
  const auto t0 = Clock::now();
  unisvd::ka::Backend& be = unisvd::ka::default_backend();
  const SvdReport rep = solve(in, cfg, be);
  const double s = seconds_between(t0, Clock::now());
  return rep.status == unisvd::SvdStatus::Ok ? s : -1.0;
}

RunResult run_dense(const Options& opt) {
  RunResult res;
  const SvdConfig cfg = config_for(opt.workload);
  const bool thin = cfg.job == SvdJob::Thin;
  unisvd::ka::Backend& be = unisvd::ka::default_backend();

  // Warm-up: lazy set-up (pool threads, first-touch pages) is setup_s's
  // business, not the timed phase's.
  (void)solve(make_input(opt.seed, 1u << 20), cfg, be);

  const auto epoch = Clock::now();
  Tracer tracer(epoch);
  TimingBackend timed(be, opt.trace ? &tracer : nullptr);
  LayerAccum layers;
  WorkloadLayers wl;

  std::vector<double> latency;    // untraced per-call wall
  std::vector<double> traced_s;   // traced per-call wall (trace runs)
  std::vector<double> values_s;   // values-only wall of the same inputs (trace, Thin)
  std::vector<double> sigma, orth, residual;
  std::size_t peak_bytes = 0;
  std::uint64_t index = 0;
  double measured = 0.0;  // seconds inside timed public calls
  std::vector<DenseInput> batch;
  while (measured < opt.seconds || static_cast<int>(latency.size()) < kMinCalls) {
    if (index % kGenBatch == 0) batch = make_inputs(opt.seed, index, kGenBatch);
    const DenseInput& in = batch[index % kGenBatch];
    ++index;
    Tracer::Scope request(opt.trace ? &tracer : nullptr, "request",
                          opt.workload + " #" + std::to_string(index - 1));

    const std::size_t live0 = unisvd::matrix_live_bytes();
    unisvd::matrix_reset_peak();
    auto t0 = Clock::now();
    const SvdReport rep = solve(in, cfg, be);
    latency.push_back(seconds_between(t0, Clock::now()));
    measured += latency.back();
    peak_bytes = std::max(peak_bytes, unisvd::matrix_peak_bytes() - live0);
    ++res.attempted;

    const SvdReport* checked = &rep;
    SvdReport traced_rep;
    if (opt.trace) {
      {
        Tracer::Scope call(&tracer, "call",
                           thin ? "svd_report<float>" : "svd_values_report<float>");
        t0 = Clock::now();
        traced_rep = solve(in, cfg, timed);
        traced_s.push_back(seconds_between(t0, Clock::now()));
        measured += traced_s.back();
      }
      if (!same_bytes(rep, traced_rep)) res.fail("traced output differs from untraced");
      layers.add(traced_rep);
      layers.add_calls(1.0);
      if (thin) {
        t0 = Clock::now();
        (void)solve(in, SvdConfig{}, be);
        values_s.push_back(seconds_between(t0, Clock::now()));
      }
      checked = &traced_rep;
    }
    const Errors e = check(in, *checked, res);
    sigma.push_back(e.sigma);
    orth.push_back(e.orth);
    residual.push_back(e.residual);
  }

  const double limit = thin ? kThinSloSeconds : kValuesSloSeconds;
  double within = 0.0;
  for (const double l : latency) within += l <= limit ? 1.0 : 0.0;

  res.notes.emplace_back("calls", std::to_string(latency.size()));
  res.notes.emplace_back("slo_limit_s", json_number(limit));
  if (!opt.trace) {
    res.end_to_end.add("latency_p50_s", windowed_quantile(latency, 0.5), "s");
    res.end_to_end.add("latency_p99_s", windowed_quantile(latency, 0.99), "s");
    res.end_to_end.add("slo_frac", within / static_cast<double>(latency.size()), "fraction");
    res.end_to_end.add("peak_mib", static_cast<double>(peak_bytes) / (1024.0 * 1024.0), "MiB");
    return res;
  }

  layers.emit(res.per_layer, timed.snapshot());
  if (thin) wl.thin_values_ratio = median(latency) / median(values_s);
  wl.pool_speedup = pool_speedup(opt.seed);
  double traced_total = 0.0, untraced_total = 0.0;
  for (std::size_t i = 0; i < traced_s.size(); ++i) {
    traced_total += traced_s[i];
    untraced_total += latency[i];
  }
  wl.trace_overhead_frac = traced_total / untraced_total - 1.0;
  wl.sigma_err = median(sigma);
  wl.orth_err = median(orth);
  wl.residual_err = median(residual);
  wl.emit(res.per_layer);
  res.notes.emplace_back("trace_spans_dropped", std::to_string(tracer.dropped()));
  if (!opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out)) {
    res.fail("cannot write trace " + opt.trace_out);
  }
  return res;
}

}  // namespace perfbench
