/// served_mix: a seeded Poisson open-loop request stream into
/// serve::SvdService (2 workers, 4 tenants, AdmissionPolicy::Reject, no
/// deadlines).
///
/// Open-loop hygiene:
///   * the whole schedule (arrival times, request kinds, shapes, precisions,
///     tenants, repeats, inputs) is derived from --seed before timing starts;
///   * the generator (this thread) submits each request at its due time;
///     latency runs from the due time, so generator lateness is charged to
///     the request, and the lateness itself is reported;
///   * completions are timestamped by a second thread that polls every
///     outstanding handle every kPollSeconds — not by waiting on handles in
///     submission order, which would charge a tiny request the wait of an
///     earlier large one;
///   * load generation uses exactly these two threads.
/// After the stream, every result is byte-compared with a synchronous solve
/// of the same request and config, and checked against its prescribed
/// spectrum (and for factors, orthogonality and residual).

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>
#include <variant>

#include "checks.hpp"
#include "layers.hpp"
#include "rand/matrix_gen.hpp"
#include "serve/svd_service.hpp"
#include "timing_backend.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

using unisvd::Half;
using unisvd::index_t;
using unisvd::Matrix;
using unisvd::SvdConfig;
using unisvd::SvdJob;
using unisvd::SvdReport;
using unisvd::SvdStatus;
using unisvd::TruncConfig;
using unisvd::TruncReport;
namespace serve = unisvd::serve;

namespace {

/// Offered load, requests per second: about a sixth of the closed-loop
/// capacity of this mix (262/s, measured with `perfbench --calibrate
/// --workload served_mix`, 4 clients, on a 4-core x86-64 box, scalar
/// Release build), so that the load stays light even when a busy host runs
/// every solve 2.5x slower. At half capacity the latency percentiles of one
/// seed varied up to 2x between runs; see perfbench/README.md.
constexpr double kRatePerSecond = 40.0;
/// slo_frac latency limit for served requests (about 10x p99 on a quiet box).
constexpr double kSloSeconds = 0.5;
constexpr double kPollSeconds = 1e-4;
constexpr std::uint32_t kTenants = 4;
constexpr double kRepeatShare = 0.25;
/// Repeats copy one of the most recent distinct requests, so most of them
/// find the result still cached (cache capacity 64) or still in flight.
constexpr std::size_t kRepeatWindow = 32;
constexpr index_t kTruncRank = 16;

enum class Kind { TinyValues, TinyThin, SquareValues, MediumThin, TallThin, Truncated };
constexpr std::size_t kKindCount = 6;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::TinyValues: return "tiny-values";
    case Kind::TinyThin: return "tiny-thin";
    case Kind::SquareValues: return "square-values";
    case Kind::MediumThin: return "medium-thin";
    case Kind::TallThin: return "tall-thin";
    case Kind::Truncated: return "truncated";
  }
  return "?";
}

using AnyMatrix = std::variant<Matrix<Half>, Matrix<float>, Matrix<double>>;
using AnyHandle = std::variant<serve::JobHandle, serve::TruncJobHandle>;

/// One distinct request: its input, the spectrum it was built with and the
/// solver configuration. Repeats point at the same Problem.
struct Problem {
  Kind kind = Kind::TinyValues;
  AnyMatrix a;
  std::vector<double> sigma;  ///< prescribed singular values, descending
  SvdConfig svd;
  TruncConfig trunc;
  double eps = 0.0;           ///< storage epsilon

  [[nodiscard]] index_t rows() const {
    return std::visit([](const auto& m) { return m.rows(); }, a);
  }
  [[nodiscard]] index_t cols() const {
    return std::visit([](const auto& m) { return m.cols(); }, a);
  }
};

struct Request {
  std::size_t problem = 0;   ///< index into Schedule::problems (repeats share one)
  std::uint32_t tenant = 0;
  double due = 0.0;          ///< seconds after the stream starts
};

struct Schedule {
  std::vector<Problem> problems;
  std::vector<Request> requests;
};

/// Element type of a Matrix<T> held in the variant.
template <class M>
struct element;
template <class T>
struct element<Matrix<T>> {
  using type = T;
};
template <class M>
using element_t = typename element<std::decay_t<M>>::type;

/// A distinct request's input and config; its bytes depend only on
/// (kind, precision, size, seed). `size` in [0, 1) places the varying
/// extent within the kind's range.
Problem make_problem(Kind kind, int precision, double size, std::uint64_t seed) {
  unisvd::rnd::Xoshiro256 rng(seed);
  Problem p;
  p.kind = kind;
  const auto in_range = [size](index_t lo, index_t hi) {
    return lo + static_cast<index_t>(size * static_cast<double>(hi - lo + 1));
  };
  index_t m = 0, n = 0;
  switch (kind) {
    case Kind::TinyValues:
    case Kind::TinyThin: m = n = in_range(8, 32); break;
    case Kind::SquareValues: m = n = in_range(96, 256); break;
    case Kind::MediumThin: m = n = in_range(128, 192); break;
    case Kind::TallThin: m = 1024; n = in_range(96, 128); break;
    case Kind::Truncated: m = 1024; n = 256; break;
  }
  const double eps = precision == 0   ? unisvd::precision_traits<Half>::storage_eps
                     : precision == 1 ? unisvd::precision_traits<float>::storage_eps
                                      : unisvd::precision_traits<double>::storage_eps;
  p.eps = eps;
  const index_t k = std::min(m, n);
  if (kind == Kind::Truncated) {
    // A clear gap after the target rank, with a tail below the storage
    // rounding, so the rank-16 sketch is accurate to working precision.
    p.sigma = unisvd::rnd::logarithmic_spectrum(k, 1.0);
    for (index_t i = kTruncRank; i < k; ++i) p.sigma[static_cast<std::size_t>(i)] *= 1e-2 * eps;
  } else {
    p.sigma = unisvd::rnd::logarithmic_spectrum(k, 1.0);
  }
  const Matrix<double> a = unisvd::rnd::rect_matrix_with_spectrum(m, n, p.sigma, rng);
  switch (precision) {
    case 0: p.a = unisvd::rnd::round_to<Half>(a); break;
    case 1: p.a = unisvd::rnd::round_to<float>(a); break;
    default: p.a = unisvd::rnd::round_to<double>(a); break;
  }
  if (kind == Kind::TinyThin || kind == Kind::MediumThin || kind == Kind::TallThin) {
    p.svd.job = SvdJob::Thin;
  }
  p.trunc.rank = kTruncRank;
  p.trunc.seed = rng.next();
  return p;
}

/// A distinct request's kind and storage precision (0 = FP16, 1 = FP32,
/// 2 = FP64).
struct Card {
  Kind kind;
  int precision;
};

/// Distinct requests are dealt from a shuffled deck of 40 (card, copies),
/// so every block of 40 holds the mix exactly, precisions included, and
/// runs differ in order and inputs, not in composition: 60% tiny, 20%
/// square values-only, 5% medium Thin, 7.5% tall Thin, 7.5% truncated;
/// mostly FP32 with 10% FP16 and 12.5% FP64.
constexpr std::array<std::pair<Card, int>, 15> kDeck = {{
    {{Kind::TinyValues, 0}, 1}, {{Kind::TinyValues, 1}, 10}, {{Kind::TinyValues, 2}, 1},
    {{Kind::TinyThin, 0}, 1}, {{Kind::TinyThin, 1}, 10}, {{Kind::TinyThin, 2}, 1},
    {{Kind::SquareValues, 0}, 1}, {{Kind::SquareValues, 1}, 6}, {{Kind::SquareValues, 2}, 1},
    {{Kind::MediumThin, 1}, 1}, {{Kind::MediumThin, 2}, 1},
    {{Kind::TallThin, 0}, 1}, {{Kind::TallThin, 1}, 2},
    {{Kind::Truncated, 1}, 2}, {{Kind::Truncated, 2}, 1}}};

/// Deals cards in shuffled rounds: every card once per round.
template <class T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards) : cards_(std::move(cards)), next_(cards_.size()) {}
  T deal(unisvd::rnd::Xoshiro256& rng) {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[static_cast<std::size_t>(rng.next() % (i + 1))]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<T> cards_;
  std::size_t next_;
};

Deck<Card> request_deck() {
  std::vector<Card> cards;
  for (const auto& [card, copies] : kDeck) cards.insert(cards.end(), copies, card);
  return Deck<Card>(std::move(cards));
}

/// Sizes within each kind's range are stratified the same way: each round
/// of kSizeStrata requests of one kind covers every stratum once, so the
/// few large requests that set p99 do not drift in size from seed to seed.
constexpr int kSizeStrata = 8;

Deck<int> size_deck() {
  std::vector<int> strata(kSizeStrata);
  for (int i = 0; i < kSizeStrata; ++i) strata[static_cast<std::size_t>(i)] = i;
  return Deck<int>(std::move(strata));
}

Schedule make_schedule(std::uint64_t seed, double seconds, double rate) {
  unisvd::rnd::Xoshiro256 rng(unisvd::rnd::SplitMix64(seed ^ 0x5E12'7EDull).next());
  Schedule s;
  struct Spec {
    Kind kind;
    int precision;
    double size;
    std::uint64_t seed;
  };
  std::vector<Spec> specs;
  Deck<Card> deck = request_deck();
  std::vector<Deck<int>> sizes(kKindCount, size_deck());
  double t = 0.0;
  while (true) {
    t += -std::log(rng.uniform_open()) / rate;
    if (t >= seconds) break;
    Request r;
    r.due = t;
    r.tenant = static_cast<std::uint32_t>(rng.next() % kTenants);
    if (!specs.empty() && rng.uniform() < kRepeatShare) {
      const std::size_t window = std::min(kRepeatWindow, specs.size());
      r.problem = specs.size() - 1 - static_cast<std::size_t>(rng.next() % window);
    } else {
      const Card card = deck.deal(rng);
      const int stratum = sizes[static_cast<std::size_t>(card.kind)].deal(rng);
      const double size = (stratum + rng.uniform()) / kSizeStrata;
      specs.push_back({card.kind, card.precision, size, rng.next()});
      r.problem = specs.size() - 1;
    }
    s.requests.push_back(r);
  }
  s.problems.resize(specs.size());
  parallel_stripes(specs.size(), [&](std::size_t w, std::size_t workers) {
    for (std::size_t i = w; i < specs.size(); i += workers) {
      s.problems[i] =
          make_problem(specs[i].kind, specs[i].precision, specs[i].size, specs[i].seed);
    }
  });
  return s;
}


serve::ServeConfig service_config() {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.admission = serve::AdmissionPolicy::Reject;
  return cfg;
}

AnyHandle submit(serve::SvdService& svc, const Problem& p, std::uint32_t tenant,
                 bool use_cache = true) {
  const serve::SubmitOptions opt{.tenant = tenant, .use_cache = use_cache};
  return std::visit(
      [&](const auto& m) -> AnyHandle {
        using T = element_t<decltype(m)>;
        if (p.kind == Kind::Truncated) return svc.submit_truncated<T>(m.view(), p.trunc, opt);
        return svc.submit<T>(m.view(), p.svd, opt);
      },
      p.a);
}

bool handle_done(const AnyHandle& h) {
  return std::visit([](const auto& x) { return x.done(); }, h);
}

SvdStatus handle_status(const AnyHandle& h) {
  return std::visit([](const auto& x) { return x.status(); }, h);
}

struct Solved {
  SvdReport dense;
  TruncReport trunc;
};

/// The synchronous public call a served request must reproduce bit for bit.
Solved solve_sync(const Problem& p, unisvd::ka::Backend& be) {
  Solved out;
  std::visit(
      [&](const auto& m) {
        using T = element_t<decltype(m)>;
        if (p.kind == Kind::Truncated) {
          out.trunc = unisvd::svd_truncated_report<T>(m.view(), p.trunc, be);
        } else {
          out.dense = unisvd::svd_values_report<T>(m.view(), p.svd, be);
        }
      },
      p.a);
  return out;
}

bool matches(const AnyHandle& h, const Solved& ref, Kind kind) {
  if (kind == Kind::Truncated) {
    return same_bytes(std::get<serve::TruncJobHandle>(h).report(), ref.trunc);
  }
  return same_bytes(std::get<serve::JobHandle>(h).report(), ref.dense);
}

/// Matrix bytes a completed result holds (its factors; values are not
/// Matrix storage).
std::size_t factor_bytes(const AnyHandle& h) {
  return std::visit(
      [](const auto& x) {
        const auto& r = x.report();
        return static_cast<std::size_t>(r.u.size() + r.vt.size()) * sizeof(double);
      },
      h);
}

double stage_total(const AnyHandle& h) {
  return std::visit([](const auto& x) { return x.report().stage_times.total(); }, h);
}

struct Errors {
  double sigma = 0.0;
  double orth = -1.0;      ///< -1 when the request computes no factors
  double residual = -1.0;
};

Errors accuracy(const Problem& p, const AnyHandle& h) {
  Errors e;
  const index_t n = std::max(p.rows(), p.cols());
  const auto factors = [&](const auto& r) {
    const Matrix<double> a = std::visit([](const auto& m) { return widen(m); }, p.a);
    e.orth = orth_err(r.u, r.vt, p.eps, n);
    e.residual = residual_err(a, r.u, r.values, r.vt, p.eps, p.sigma[0]);
  };
  if (p.kind == Kind::Truncated) {
    const TruncReport& r = std::get<serve::TruncJobHandle>(h).report();
    const std::vector<double> top(p.sigma.begin(), p.sigma.begin() + kTruncRank);
    e.sigma = sigma_err(r.values, top, p.eps, n);
    factors(r);
  } else {
    const SvdReport& r = std::get<serve::JobHandle>(h).report();
    e.sigma = sigma_err(r.values, p.sigma, p.eps, n);
    if (p.svd.job != SvdJob::ValuesOnly) factors(r);
  }
  return e;
}

bool accurate(const Errors& e) {
  return e.sigma <= kErrorLimit && e.orth <= kErrorLimit && e.residual <= kErrorLimit;
}

/// One FP32 problem of each kind (set-up probe and warm-up).
std::vector<Problem> one_of_each_kind(std::uint64_t seed) {
  unisvd::rnd::SplitMix64 seeds(seed ^ 0xC01Dull);
  std::vector<Problem> out;
  for (Kind k : {Kind::TinyValues, Kind::TinyThin, Kind::SquareValues, Kind::MediumThin,
                 Kind::TallThin, Kind::Truncated}) {
    out.push_back(make_problem(k, 1, 0.5, seeds.next()));
  }
  return out;
}

/// Lazy set-up belongs to setup_s, not to the timed stream. The first
/// large solves on a fresh worker or pool thread run several times slower
/// (its allocator arena is still being faulted in), so every kind runs three
/// times through a throwaway service on the same backend first.
void warm_up(unisvd::ka::Backend& be, std::uint64_t seed) {
  const std::vector<Problem> problems = one_of_each_kind(seed);
  serve::SvdService svc(service_config(), be);
  std::vector<AnyHandle> handles;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (const Problem& p : problems) handles.push_back(submit(svc, p, round, false));
  }
  for (const AnyHandle& h : handles) (void)handle_status(h);
}

/// Distinct requests timed plain and traced for trace.overhead_frac.
constexpr std::size_t kOverheadProbes = 200;

/// How long after the last due time the stream may take to drain before
/// the outstanding requests count as failed.
constexpr double kDrainTimeoutSeconds = 60.0;

}  // namespace

bool is_served_workload(const std::string& name) { return name == "served_mix"; }

double setup_served(const Options& opt) {
  const std::vector<Problem> problems = one_of_each_kind(opt.seed);
  const auto t0 = Clock::now();
  bool ok = true;
  {
    serve::SvdService svc(service_config(), unisvd::ka::default_backend());
    for (const Problem& p : problems) ok = ok && handle_status(submit(svc, p, 0)) == SvdStatus::Ok;
  }
  const double s = seconds_between(t0, Clock::now());
  return ok ? s : -1.0;
}

RunResult calibrate_served(const Options& opt) {
  RunResult res;
  const Schedule sched = make_schedule(opt.seed, opt.seconds, kRatePerSecond);
  unisvd::ka::Backend& be = unisvd::ka::default_backend();
  warm_up(be, opt.seed);
  serve::SvdService svc(service_config(), be);
  std::atomic<std::size_t> failed{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kTenants; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < sched.requests.size(); i += kTenants) {
        const Request& r = sched.requests[i];
        if (handle_status(submit(svc, sched.problems[r.problem], c)) != SvdStatus::Ok) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall = seconds_between(t0, Clock::now());
  res.attempted = sched.requests.size();
  for (std::size_t i = 0; i < failed.load(); ++i) res.fail("calibration request failed");
  res.end_to_end.add("capacity_rps", static_cast<double>(sched.requests.size()) / wall, "1/s");
  return res;
}

RunResult run_served(const Options& opt) {
  RunResult res;
  const Schedule sched = make_schedule(opt.seed, opt.seconds, kRatePerSecond);
  const std::size_t count = sched.requests.size();
  unisvd::ka::Backend& be = unisvd::ka::default_backend();
  warm_up(be, opt.seed);

  Tracer tracer(Clock::now());
  Tracer* tr = opt.trace ? &tracer : nullptr;
  TimingBackend timed(be, tr);
  serve::SvdService svc(service_config(), opt.trace ? static_cast<unisvd::ka::Backend&>(timed) : be);

  std::vector<AnyHandle> handles(count);
  std::vector<double> submitted(count, 0.0);
  std::vector<double> completed(count, std::nan(""));
  unisvd::Mutex mu;
  std::vector<std::size_t> fresh;  // submitted, not yet seen by the poller
  bool generator_done = false;

  // peak_mib is the service's own footprint: live matrix bytes sampled at
  // every poll, minus what was live before the stream (the inputs) and
  // minus the results this harness keeps for the checks.
  const std::size_t live0 = unisvd::matrix_live_bytes();
  std::size_t peak_bytes = 0;
  const auto start = Clock::now();
  const double give_up = opt.seconds + kDrainTimeoutSeconds;

  std::thread poller([&] {
    std::vector<std::size_t> outstanding;
    std::vector<char> kept(sched.problems.size(), 0);
    std::size_t kept_bytes = 0;
    while (true) {
      bool finished = false;
      {
        unisvd::LockGuard lock(mu);
        outstanding.insert(outstanding.end(), fresh.begin(), fresh.end());
        fresh.clear();
        finished = generator_done;
      }
      std::erase_if(outstanding, [&](std::size_t i) {
        if (!handle_done(handles[i])) return false;
        completed[i] = seconds_between(start, Clock::now());
        const std::size_t p = sched.requests[i].problem;
        if (!kept[p]) {
          kept[p] = 1;
          kept_bytes += factor_bytes(handles[i]);
        }
        return true;
      });
      const std::size_t live = unisvd::matrix_live_bytes();
      if (live > live0 + kept_bytes) peak_bytes = std::max(peak_bytes, live - live0 - kept_bytes);
      if (finished && outstanding.empty()) break;
      if (seconds_between(start, Clock::now()) > give_up) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
  });
  const auto stop_poller = [&] {
    {
      unisvd::LockGuard lock(mu);
      generator_done = true;
    }
    poller.join();
  };
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const Request& r = sched.requests[i];
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(r.due)));
      submitted[i] = seconds_between(start, Clock::now());
      {
        Tracer::Scope call(tr, "call", "SvdService::submit");
        handles[i] = submit(svc, sched.problems[r.problem], r.tenant);
      }
      unisvd::LockGuard lock(mu);
      fresh.push_back(i);
    }
  } catch (...) {
    stop_poller();
    throw;
  }
  stop_poller();
  svc.shutdown(serve::DrainMode::Cancel);
  const serve::ServeStats stats = svc.stats();

  // ---- outside the timed region: outcomes, byte identity, accuracy ----
  std::vector<double> latency(count), lag(count);
  std::vector<bool> ok(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    const Request& r = sched.requests[i];
    lag[i] = submitted[i] - r.due;
    latency[i] = completed[i] - r.due;
    ++res.attempted;
    if (std::isnan(completed[i])) {
      res.fail("request not completed within the drain timeout");
      latency[i] = give_up;
      continue;
    }
    const SvdStatus st = handle_status(handles[i]);
    ok[i] = st == SvdStatus::Ok;
    if (!ok[i]) res.fail(std::string("request status ") + unisvd::to_string(st));
    if (tr != nullptr) {
      tracer.async_span("request", kind_name(sched.problems[r.problem].kind),
                        start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(r.due)),
                        start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(completed[i])),
                        i + 1, "\"tenant\":" + std::to_string(r.tenant));
    }
  }

  std::vector<std::vector<std::size_t>> by_problem(sched.problems.size());
  for (std::size_t i = 0; i < count; ++i) by_problem[sched.requests[i].problem].push_back(i);

  // Every distinct request is solved again synchronously, on one
  // SerialBackend per core (results are bit-identical across backends by
  // the library's contract, so this also crosses the backend axis), then
  // byte-compared with each served copy and checked for accuracy.
  std::vector<char> solved(sched.problems.size(), 0);
  std::vector<char> differs(count, 0);
  std::vector<Errors> errors(sched.problems.size());
  parallel_stripes(sched.problems.size(), [&](std::size_t w, std::size_t workers) {
    unisvd::ka::SerialBackend serial;
    for (std::size_t pi = w; pi < sched.problems.size(); pi += workers) {
      const Problem& p = sched.problems[pi];
      if (!ok[by_problem[pi].front()]) continue;
      const Solved ref = solve_sync(p, serial);
      for (const std::size_t i : by_problem[pi]) {
        differs[i] = ok[i] && !matches(handles[i], ref, p.kind);
      }
      errors[pi] = accuracy(p, handles[by_problem[pi].front()]);
      solved[pi] = 1;
    }
  });

  LayerAccum layers;
  std::vector<double> sigma, orth, residual, solve_s, wait_s;
  for (std::size_t pi = 0; pi < sched.problems.size(); ++pi) {
    if (!solved[pi]) continue;
    const Problem& p = sched.problems[pi];
    const std::size_t first = by_problem[pi].front();
    for (const std::size_t i : by_problem[pi]) {
      if (differs[i]) {
        res.fail(std::string("served result differs from the synchronous solve (") +
                 kind_name(p.kind) + ")");
        ok[i] = false;
      }
    }
    const Errors& e = errors[pi];
    if (!accurate(e)) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s %lldx%lld accuracy: sigma %.3g orth %.3g residual %.3g",
                    kind_name(p.kind), static_cast<long long>(p.rows()),
                    static_cast<long long>(p.cols()), e.sigma, e.orth, e.residual);
      for (const std::size_t i : by_problem[pi]) {
        if (ok[i]) res.fail(buf);
        ok[i] = false;
      }
    }
    sigma.push_back(e.sigma);
    if (e.orth >= 0.0) orth.push_back(e.orth);
    if (e.residual >= 0.0) residual.push_back(e.residual);
    std::visit([&](const auto& h) { layers.add(h.report()); }, handles[first]);
    solve_s.push_back(stage_total(handles[first]));
    wait_s.push_back(latency[first] - solve_s.back());
  }

  // Tracing overhead: the same synchronous calls, plain and through a
  // second timing backend with its own tracer, alternately.
  double untraced_s = 0.0, traced_s = 0.0;
  if (opt.trace) {
    Tracer probe_tracer(Clock::now());
    TimingBackend probe(be, &probe_tracer);
    std::size_t probed = 0;
    for (std::size_t pi = 0; pi < sched.problems.size() && probed < kOverheadProbes; ++pi) {
      if (!solved[pi]) continue;
      ++probed;
      auto t0 = Clock::now();
      (void)solve_sync(sched.problems[pi], be);
      untraced_s += seconds_between(t0, Clock::now());
      t0 = Clock::now();
      (void)solve_sync(sched.problems[pi], probe);
      traced_s += seconds_between(t0, Clock::now());
    }
  }

  double within = 0.0;
  for (std::size_t i = 0; i < count; ++i) within += ok[i] && latency[i] <= kSloSeconds ? 1.0 : 0.0;
  res.notes.emplace_back("requests", std::to_string(count));
  res.notes.emplace_back("distinct", std::to_string(sched.problems.size()));
  res.notes.emplace_back("rate_rps", json_number(kRatePerSecond));
  res.notes.emplace_back("slo_limit_s", json_number(kSloSeconds));
  res.notes.emplace_back("poll_resolution_s", json_number(kPollSeconds));
  res.notes.emplace_back("gen_lag_p99_s", json_number(quantile(lag, 0.99)));
  for (const Kind k : {Kind::TinyValues, Kind::TinyThin, Kind::SquareValues, Kind::MediumThin,
                       Kind::TallThin, Kind::Truncated}) {
    std::vector<double> lat_k;
    for (std::size_t i = 0; i < count; ++i) {
      if (sched.problems[sched.requests[i].problem].kind == k) lat_k.push_back(latency[i]);
    }
    char buf[120];
    std::snprintf(buf, sizeof buf, "n=%zu p50=%.4g p99=%.4g max=%.4g", lat_k.size(),
                  median(lat_k), quantile(lat_k, 0.99), quantile(lat_k, 1.0));
    res.notes.emplace_back(std::string("latency_") + kind_name(k), buf);
  }
  if (!opt.trace) {
    // Requests are in due-time order.
    res.end_to_end.add("latency_p50_s", windowed_quantile(latency, 0.5), "s");
    res.end_to_end.add("latency_p99_s", windowed_quantile(latency, 0.99), "s");
    res.end_to_end.add("slo_frac", within / static_cast<double>(std::max<std::size_t>(count, 1)),
                       "fraction");
    res.end_to_end.add("peak_mib", static_cast<double>(peak_bytes) / (1024.0 * 1024.0), "MiB");
    return res;
  }

  layers.add_calls(static_cast<double>(count));
  layers.emit(res.per_layer, timed.snapshot());
  WorkloadLayers wl;
  const double submissions = static_cast<double>(std::max<std::size_t>(count, 1));
  wl.cache_hit_frac = static_cast<double>(stats.cache_hits + stats.coalesced) / submissions;
  wl.waves = static_cast<double>(stats.waves);
  wl.jobs_per_wave = stats.waves > 0 ? static_cast<double>(stats.completed) /
                                           static_cast<double>(stats.waves)
                                     : 0.0;
  wl.queue_depth_peak = static_cast<double>(stats.queue_depth_peak);
  wl.rejected = static_cast<double>(stats.rejected);
  wl.expired = static_cast<double>(stats.expired);
  wl.serve_solve_p50_s = median(solve_s);
  wl.serve_wait_p50_s = median(wait_s);
  wl.pool_speedup = pool_speedup(opt.seed);
  wl.trace_overhead_frac = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  wl.gen_lag_p99_s = quantile(lag, 0.99);
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
