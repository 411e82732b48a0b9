/// Traffic-replay stress harness for the serving layer (serve::SvdService):
/// a seeded multi-tenant workload — tiny fused-path problems, square
/// pipeline problems, tall panel-QR problems and randomized truncated
/// requests drawn from a fixed pool — replayed against the service in
/// closed loop (each client waits for its result before submitting the
/// next) and open loop (clients fire every request up front and the
/// bounded queue applies backpressure).
///
/// Beyond timing (p50/p95/p99 latency, client-visible throughput, solve
/// throughput), the harness is a CORRECTNESS gate, exiting non-zero when
/// any of these fail:
///   * zero lost or duplicated results: every handle completes and the
///     admission counters balance exactly (accepted + cache_hits +
///     coalesced == submissions, completed == accepted);
///   * byte identity: every async result equals the synchronous batched
///     reference for the same problem, bit for bit;
///   * the repeated phase (replaying an identical request prefix) hits the
///     result cache;
///   * bounded memory: the replay's matrix peak stays within the bound
///     implied by the design — per-worker solve peaks plus the bounded
///     queue's input copies plus the bounded cache — which a result-copy
///     or unbounded-queue regression would blow through;
///   * latency sanity: p99 under an absolute ceiling (stall detector).
///
/// Usage: bench_serve_replay [--jobs N] [--seed S] [--json out.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/batch.hpp"
#include "rand/matrix_gen.hpp"
#include "serve/svd_service.hpp"

using namespace unisvd;
using serve::AdmissionPolicy;
using serve::DrainMode;
using serve::JobHandle;
using serve::ServeConfig;
using serve::ServeStats;
using serve::SubmitOptions;
using serve::SvdService;

namespace {

constexpr int kTenants = 4;
constexpr double kMaxP99Seconds = 30.0;  // stall detector, not a perf target

/// One distinct problem of the workload pool. Dense entries carry a
/// reference values vector from the sync batched solver; truncated entries
/// from the solo truncated solver (the service uses the seed as given).
struct PoolEntry {
  Matrix<float> a;
  bool truncated = false;
  TruncConfig trunc;  // valid when truncated
  std::vector<double> expected_values;
};

struct Workload {
  std::vector<PoolEntry> pool;
  std::vector<std::size_t> sequence;  ///< job i solves pool[sequence[i]]
};

Workload make_workload(std::uint64_t seed, std::size_t jobs) {
  Workload w;
  rnd::Xoshiro256 rng(seed);
  const auto rand_in = [&](index_t lo, index_t hi) {
    return lo + static_cast<index_t>(rng.uniform() * static_cast<double>(hi - lo));
  };
  // 56 distinct problems: the serving-traffic shape is many repeats of a
  // bounded request universe (exactly what makes a result cache earn its
  // keep). Mix: 24 tiny (fused path), 16 square (full pipeline), 8 tall
  // (panel-QR tall path), 8 truncated.
  for (int i = 0; i < 24; ++i) {
    const index_t n = rand_in(6, 28);
    w.pool.push_back({rnd::round_to<float>(
                          rnd::gaussian_matrix(n, n, rng)),
                      false, {}, {}});
  }
  for (int i = 0; i < 16; ++i) {
    const index_t n = rand_in(48, 80);
    w.pool.push_back({rnd::round_to<float>(
                          rnd::gaussian_matrix(n, n, rng)),
                      false, {}, {}});
  }
  for (int i = 0; i < 8; ++i) {
    const index_t m = rand_in(120, 160);
    const index_t n = rand_in(24, 40);
    w.pool.push_back({rnd::round_to<float>(
                          rnd::gaussian_matrix(m, n, rng)),
                      false, {}, {}});
  }
  for (int i = 0; i < 8; ++i) {
    PoolEntry e;
    e.a = rnd::round_to<float>(rnd::gaussian_matrix(96, 48, rng));
    e.truncated = true;
    e.trunc.rank = 8;
    e.trunc.seed = seed + static_cast<std::uint64_t>(i);
    w.pool.push_back(std::move(e));
  }
  w.sequence.resize(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    w.sequence[i] = static_cast<std::size_t>(rng.uniform() *
                                             static_cast<double>(w.pool.size())) %
                    w.pool.size();
  }
  return w;
}

/// Synchronous reference: ONE batched call over the distinct dense
/// problems (the call whose results the async path must reproduce bit for
/// bit) plus solo truncated solves. Returns the max single-problem matrix
/// peak delta (the per-slot working-set bound for the async gate).
std::size_t build_reference(Workload& w) {
  std::size_t max_peak_delta = 0;
  std::vector<std::size_t> dense_ix;
  std::vector<ConstMatrixView<float>> dense_views;
  for (std::size_t p = 0; p < w.pool.size(); ++p) {
    if (!w.pool[p].truncated) {
      dense_ix.push_back(p);
      dense_views.push_back(w.pool[p].a.view());
    }
  }
  {
    const std::size_t live0 = matrix_live_bytes();
    matrix_reset_peak();
    const BatchReport rep = svd_values_batched_report<float>(dense_views);
    max_peak_delta = std::max(max_peak_delta, matrix_peak_bytes() - live0);
    for (std::size_t k = 0; k < dense_ix.size(); ++k) {
      w.pool[dense_ix[k]].expected_values = rep.reports[k].values;
    }
  }
  for (auto& e : w.pool) {
    if (!e.truncated) continue;
    const std::size_t live0 = matrix_live_bytes();
    matrix_reset_peak();
    e.expected_values = svd_truncated_report<float>(e.a.view(), e.trunc).values;
    max_peak_delta = std::max(max_peak_delta, matrix_peak_bytes() - live0);
  }
  return max_peak_delta;
}

ServeConfig replay_config() {
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.max_wave = 8;
  cfg.admission = AdmissionPolicy::Block;
  cfg.cache_capacity = 32;
  return cfg;
}

struct PhaseResult {
  std::vector<double> latencies;  ///< per completed submission, seconds
  double wall_seconds = 0.0;
  std::size_t submissions = 0;
  std::size_t mismatches = 0;
  ServeStats stats;
  std::size_t peak_delta = 0;  ///< matrix peak minus live at phase start
  std::size_t queue_peak = 0;
};

/// Verify one completed handle against the pool reference (byte identity).
template <class Handle>
bool verify(const Handle& h, const PoolEntry& e) {
  return h.status() == SvdStatus::Ok &&
         h.report().values == e.expected_values;
}

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto ix = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(ix, sorted.size() - 1)];
}

/// Closed-loop replay: kTenants clients each submit their slice of the
/// sequence, waiting for (and verifying) every result before the next
/// submission — then a repeated phase replays an identical prefix to
/// exercise the cache. `open_loop` flips to fire-everything-first.
PhaseResult run_replay(const Workload& w, bool open_loop,
                       std::size_t repeat_prefix) {
  PhaseResult out;
  SvdService svc(replay_config());
  const std::size_t live0 = matrix_live_bytes();
  matrix_reset_peak();

  std::vector<std::vector<double>> tenant_lat(kTenants);
  std::atomic<std::size_t> mismatches{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const SubmitOptions opt{.tenant = static_cast<std::uint32_t>(t)};
      // Client t replays sequence slots t, t+kTenants, t+2*kTenants, ...
      if (open_loop) {
        // Open loop: arrivals are not gated on completions. Trunc results
        // hold factor matrices; dense ValuesOnly results hold none — the
        // open phase goes dense-only so the held-handles footprint stays
        // out of the memory gate (closed loop covers truncated traffic).
        std::vector<std::pair<JobHandle, std::size_t>> inflight;
        std::vector<double> submit_at;
        for (std::size_t i = t; i < w.sequence.size(); i += kTenants) {
          const std::size_t p = w.sequence[i];
          if (w.pool[p].truncated) continue;
          submit_at.push_back(elapsed());
          inflight.emplace_back(
              svc.submit<float>(w.pool[p].a.view(), SvdConfig{}, opt), p);
        }
        for (std::size_t k = 0; k < inflight.size(); ++k) {
          if (!verify(inflight[k].first, w.pool[inflight[k].second])) {
            mismatches.fetch_add(1);
          }
          tenant_lat[t].push_back(elapsed() - submit_at[k]);
        }
      } else {
        for (std::size_t i = t; i < w.sequence.size(); i += kTenants) {
          const std::size_t p = w.sequence[i];
          const double at = elapsed();
          if (w.pool[p].truncated) {
            auto h = svc.submit_truncated<float>(w.pool[p].a.view(),
                                                 w.pool[p].trunc, opt);
            if (!verify(h, w.pool[p])) mismatches.fetch_add(1);
          } else {
            auto h = svc.submit<float>(w.pool[p].a.view(), SvdConfig{}, opt);
            if (!verify(h, w.pool[p])) mismatches.fetch_add(1);
          }
          tenant_lat[t].push_back(elapsed() - at);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  out.submissions = 0;
  for (auto& lat : tenant_lat) out.submissions += lat.size();

  // Repeated phase: an IDENTICAL request prefix — the cache must serve it.
  for (std::size_t i = 0; i < repeat_prefix && i < w.sequence.size(); ++i) {
    const std::size_t p = w.sequence[i];
    const double at = elapsed();
    if (w.pool[p].truncated) {
      auto h = svc.submit_truncated<float>(w.pool[p].a.view(), w.pool[p].trunc,
                                           SubmitOptions{});
      if (!verify(h, w.pool[p])) mismatches.fetch_add(1);
    } else {
      auto h = svc.submit<float>(w.pool[p].a.view(), SvdConfig{},
                                 SubmitOptions{});
      if (!verify(h, w.pool[p])) mismatches.fetch_add(1);
    }
    tenant_lat[0].push_back(elapsed() - at);
    ++out.submissions;
  }

  svc.shutdown(DrainMode::Drain);
  out.wall_seconds = elapsed();
  out.peak_delta = matrix_peak_bytes() - live0;
  out.mismatches = mismatches.load();
  out.stats = svc.stats();
  out.queue_peak = out.stats.queue_depth_peak;
  for (auto& lat : tenant_lat) {
    out.latencies.insert(out.latencies.end(), lat.begin(), lat.end());
  }
  std::sort(out.latencies.begin(), out.latencies.end());
  return out;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("%-12s %7zu jobs  %8.2f jobs/s  p50 %s  p95 %s  p99 %s\n", name,
              r.submissions,
              static_cast<double>(r.submissions) / r.wall_seconds,
              benchutil::fmt_seconds(quantile(r.latencies, 0.50)).c_str(),
              benchutil::fmt_seconds(quantile(r.latencies, 0.95)).c_str(),
              benchutil::fmt_seconds(quantile(r.latencies, 0.99)).c_str());
  std::printf(
      "             accepted %llu  solved %llu  cache-hit %llu  coalesced "
      "%llu  q-peak %zu  matrix-peak %.1f MiB\n",
      static_cast<unsigned long long>(r.stats.accepted),
      static_cast<unsigned long long>(r.stats.completed),
      static_cast<unsigned long long>(r.stats.cache_hits),
      static_cast<unsigned long long>(r.stats.coalesced), r.queue_peak,
      static_cast<double>(r.peak_delta) / (1024.0 * 1024.0));
}

/// One gate: prints FAIL and flips ok on violation.
bool gate(bool pass, const char* what, bool& ok) {
  if (!pass) {
    std::printf("GATE FAIL: %s\n", what);
    ok = false;
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 2000;
  std::uint64_t seed = 42;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  auto json = benchutil::JsonSink::from_args("serve_replay", argc, argv);

  benchutil::print_header("serve_replay: async multi-tenant traffic replay");
  std::printf("jobs %zu  tenants %d  seed %llu  workers 2  queue 64  cache 32\n",
              jobs, kTenants, static_cast<unsigned long long>(seed));

  Workload w = make_workload(seed, jobs);
  const std::size_t solve_peak = build_reference(w);
  std::printf("pool %zu distinct problems, sync reference built "
              "(per-solve peak %.1f MiB)\n",
              w.pool.size(),
              static_cast<double>(solve_peak) / (1024.0 * 1024.0));

  const std::size_t repeat_prefix = std::min<std::size_t>(256, jobs / 4);
  const PhaseResult closed = run_replay(w, /*open_loop=*/false, repeat_prefix);
  print_phase("closed-loop", closed);
  const PhaseResult open = run_replay(w, /*open_loop=*/true, 0);
  print_phase("open-loop", open);

  // ---- Correctness gates (exit code) ----
  bool ok = true;
  for (const PhaseResult* r : {&closed, &open}) {
    // Zero lost/duplicated: counters balance and every handle verified.
    gate(r->mismatches == 0, "byte identity with the sync solver", ok);
    gate(r->stats.accepted + r->stats.cache_hits + r->stats.coalesced ==
             r->submissions,
         "admission counters conserve submissions", ok);
    gate(r->stats.completed == r->stats.accepted,
         "every accepted job completed exactly once", ok);
    gate(r->stats.rejected == 0 && r->stats.cancelled == 0 &&
             r->stats.failed == 0,
         "no rejects/cancels/failures in a healthy replay", ok);
    gate(r->queue_peak <= replay_config().queue_capacity,
         "queue depth bounded by capacity", ok);
    gate(quantile(r->latencies, 0.99) < kMaxP99Seconds,
         "p99 latency under the stall ceiling", ok);
  }
  gate(closed.stats.cache_hits > 0, "repeated phase hits the result cache", ok);

  // Bounded memory: per-worker solve peaks + the bounded queue's input
  // copies + the bounded cache's retained reports (plus a fixed slack for
  // per-wave bookkeeping). A per-submission result copy or an unbounded
  // queue would scale with `jobs` and blow through this.
  std::size_t max_input = 0;
  std::size_t max_report = 0;
  for (const auto& e : w.pool) {
    max_input = std::max(max_input, static_cast<std::size_t>(e.a.rows()) *
                                        static_cast<std::size_t>(e.a.cols()) *
                                        sizeof(float));
    std::size_t rep_bytes =
        static_cast<std::size_t>(std::min(e.a.rows(), e.a.cols())) *
        sizeof(double);
    if (e.truncated) {
      rep_bytes += static_cast<std::size_t>(e.a.rows() + e.a.cols()) *
                   static_cast<std::size_t>(e.trunc.rank) * sizeof(double);
    }
    max_report = std::max(max_report, rep_bytes);
  }
  const ServeConfig cfg = replay_config();
  const std::size_t bound = cfg.workers * cfg.max_wave * solve_peak +
                            cfg.queue_capacity * max_input +
                            cfg.cache_capacity * max_report +
                            (4u << 20);  // slack: wave bookkeeping, handles
  gate(closed.peak_delta <= bound, "closed-loop matrix peak bounded", ok);
  gate(open.peak_delta <= bound, "open-loop matrix peak bounded", ok);

  json.record("jobs", static_cast<double>(jobs), "count");
  json.record("closed_throughput",
              static_cast<double>(closed.submissions) / closed.wall_seconds,
              "jobs/s");
  json.record("closed_p50", quantile(closed.latencies, 0.50), "s");
  json.record("closed_p95", quantile(closed.latencies, 0.95), "s");
  json.record("closed_p99", quantile(closed.latencies, 0.99), "s");
  json.record("closed_cache_hits",
              static_cast<double>(closed.stats.cache_hits), "count");
  json.record("closed_coalesced",
              static_cast<double>(closed.stats.coalesced), "count");
  json.record("closed_solves", static_cast<double>(closed.stats.completed),
              "count");
  json.record("closed_peak_bytes", static_cast<double>(closed.peak_delta),
              "bytes");
  json.record("open_throughput",
              static_cast<double>(open.submissions) / open.wall_seconds,
              "jobs/s");
  json.record("open_p50", quantile(open.latencies, 0.50), "s");
  json.record("open_p95", quantile(open.latencies, 0.95), "s");
  json.record("open_p99", quantile(open.latencies, 0.99), "s");
  json.record("open_queue_peak", static_cast<double>(open.queue_peak), "count");
  json.record("open_peak_bytes", static_cast<double>(open.peak_delta), "bytes");
  if (!json.flush()) ok = false;

  std::printf("%s\n", ok ? "ALL GATES PASSED" : "GATES FAILED");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
