#include "core/tuner.hpp"

#ifdef _WIN32
#include <process.h>
#define UNISVD_GETPID ::_getpid
#else
#include <unistd.h>
#define UNISVD_GETPID ::getpid
#endif

#include <algorithm>
#include <atomic>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/half.hpp"
#include "common/linalg_ref.hpp"
#include "core/batch.hpp"
#include "qr/band_reduction.hpp"
#include "rand/matrix_gen.hpp"
#include "tile/tile_layout.hpp"

// Concurrency model (audited for the -Wthread-safety retrofit): TuningTable
// holds no mutexes and no fields shared between threads — a table instance
// is confined to its owning thread, and the only cross-thread (in fact
// cross-process) coordination is save()'s atomic-rename protocol below,
// whose sole shared state is the process-local save_seq atomic. There is
// deliberately nothing here for UNISVD_GUARDED_BY to annotate; if a shared
// field is ever added it must use unisvd::Mutex (scripts/unisvd_lint.py
// forbids raw std::mutex in src/).

namespace unisvd::core {

namespace {

/// Wall-clock seconds of one call of `f`.
template <class F>
double time_call(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The probe protocol the threshold tuners share. Non-positive `repeats`
/// and sizes are rejected (`name` prefixes the errors); the sizes then run
/// ascending and de-duplicated. Per size, `prepare(n)` builds that size's
/// probe and returns `time(bool candidate) -> seconds`. One untimed run of
/// each side absorbs pool wake-up and first-touch costs, then `repeats`
/// rounds alternate which side is timed first — so neither side
/// systematically pays residual warmup — keeping each side's best in the
/// `baseline` / `candidate` field of a Sample appended to `samples`. A tie
/// counts as a candidate win. Returns the largest probed size up to which
/// the candidate won at EVERY probe from the smallest up (a noisy win above
/// a real loss does not extend it), or 0 when it lost at the smallest.
template <class Sample, class Prepare>
index_t search_threshold(const char* name, std::vector<index_t> sizes, int repeats,
                         std::vector<Sample>& samples, double Sample::*baseline,
                         double Sample::*candidate, const Prepare& prepare) {
  UNISVD_REQUIRE(repeats >= 1, std::string(name) + ": repeats must be positive");
  for (const index_t n : sizes) {
    UNISVD_REQUIRE(n >= 1, std::string(name) + ": probed sizes must be >= 1");
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  for (const index_t n : sizes) {
    const auto time = prepare(n);
    (void)time(false);
    (void)time(true);
    Sample& sample = samples.emplace_back();
    sample.n = n;
    sample.*baseline = sample.*candidate = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const bool candidate_first = r % 2 == 0;
      for (const bool side : {candidate_first, !candidate_first}) {
        double& best = sample.*(side ? candidate : baseline);
        best = std::min(best, time(side));
      }
    }
  }
  const auto won = [&](const Sample& s) { return s.*candidate <= s.*baseline; };
  index_t threshold = 0;
  for (auto it = samples.begin(); it != samples.end() && won(*it); ++it) {
    threshold = it->n;
  }
  return threshold;
}

std::optional<Precision> parse_precision(const std::string& tok) {
  if (tok == "FP16") return Precision::FP16;
  if (tok == "FP32") return Precision::FP32;
  if (tok == "FP64") return Precision::FP64;
  return std::nullopt;
}

/// Fallback precisions, nearest first. FP16 and FP32 prefer each other
/// (they share the FP32 compute path, so tuned values transfer well) before
/// falling back to FP64, and vice versa.
std::array<Precision, 2> precision_neighbors(Precision p) {
  switch (p) {
    case Precision::FP16: return {Precision::FP32, Precision::FP64};
    case Precision::FP32: return {Precision::FP16, Precision::FP64};
    case Precision::FP64: return {Precision::FP32, Precision::FP16};
  }
  return {Precision::FP32, Precision::FP64};
}

/// One directive of the text format: its name, how many integer fields it
/// carries, and the check every stored or parsed value must pass (throws
/// unisvd::Error with the reason).
struct Directive {
  std::string_view name;
  std::size_t fields;
  void (*check)(const KnobFields&);
};

/// Every field is a count, threshold or flag: a non-negative value that
/// fits the int fields it may be narrowed into.
void check_non_negative(const KnobFields& f) {
  for (const index_t v : f) {
    UNISVD_REQUIRE(v >= 0 && v <= std::numeric_limits<int>::max(),
                   "TuningTable: entry fields must be non-negative integers");
  }
}

/// Indexed by Knob, which also fixes the order write() emits them in.
const std::array<Directive, 4> kDirectives{{
    {"crossover", 1, check_non_negative},
    {"kernels", 4,
     [](const KnobFields& f) {
       check_non_negative(f);
       KnobTraits<Knob::Kernels>::decode(f).validate();
     }},
    {"rsvd", 2, check_non_negative},
    {"small_svd", 1, check_non_negative},
}};

const Directive& directive_of(Knob knob) {
  return kDirectives[static_cast<std::size_t>(knob)];
}

/// The directive's fields from the rest of a line, or nullopt when one is
/// missing or the directive's check rejects them.
std::optional<KnobFields> parse_fields(std::istream& is, const Directive& d) {
  KnobFields fields{};
  for (std::size_t i = 0; i < d.fields; ++i) {
    if (!(is >> fields[i])) return std::nullopt;
  }
  try {
    d.check(fields);
  } catch (const Error&) {
    return std::nullopt;
  }
  return fields;
}

/// The table's measured SvdConfig knobs — Phase-1 kernels and the fused
/// small-path threshold — applied over `svd`
/// (fields without an entry keep their value). Shared by
/// tuned_batch_config and tuned_trunc_config.
SvdConfig tuned_svd_config(const TuningTable& table, std::string_view backend,
                           Precision p, SvdConfig svd) {
  svd.kernels = table.get_or<Knob::Kernels>(backend, p, svd.kernels);
  svd.small_svd_threshold =
      table.get_or<Knob::SmallSvdThreshold>(backend, p, svd.small_svd_threshold);
  return svd;
}

}  // namespace

std::vector<qr::KernelConfig> default_candidates(index_t n) {
  std::vector<qr::KernelConfig> out;
  for (int ts : {16, 32, 64}) {
    if (ts > n) continue;
    for (int cpb : {8, 16, 32}) {
      if (cpb > ts) continue;
      qr::KernelConfig cfg;
      cfg.tilesize = ts;
      cfg.colperblock = cpb;
      cfg.splitk = 1;  // CPU emulation gains nothing from split reductions
      cfg.fused = true;
      out.push_back(cfg);
    }
  }
  if (out.empty()) {
    qr::KernelConfig cfg;
    cfg.tilesize = 8;
    cfg.colperblock = 8;
    out.push_back(cfg);
  }
  return out;
}

template <class T>
TuneResult autotune(ka::Backend& backend, index_t n,
                    std::vector<qr::KernelConfig> candidates, int repeats,
                    std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(), "autotune: backend must execute kernels");
  if (candidates.empty()) candidates = default_candidates(n);
  UNISVD_REQUIRE(repeats >= 1, "autotune: repeats must be positive");

  rnd::Xoshiro256 rng(seed);
  const Matrix<double> probe = rnd::gaussian_matrix(n, n, rng);

  TuneResult result;
  for (const auto& cfg : candidates) {
    cfg.validate();
    const auto layout = tile::TileLayout::make(n, cfg.tilesize);
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      Matrix<T> work(layout.n, layout.n, T(0));
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) {
          work(i, j) = static_cast<T>(probe(i, j));
        }
      }
      Matrix<T> tau(layout.ntiles, cfg.tilesize, T(0));
      const double dt = time_call(
          [&] { qr::band_reduction<T>(backend, work.view(), tau.view(), cfg); });
      best = (r == 0) ? dt : std::min(best, dt);
    }
    result.all.push_back(TuneEntry{cfg, best});
  }
  std::sort(result.all.begin(), result.all.end(),
            [](const TuneEntry& a, const TuneEntry& b) { return a.seconds < b.seconds; });
  result.best = result.all.front().config;
  return result;
}

template <class T>
BatchCrossoverResult tune_batch_crossover(ka::Backend& backend,
                                          std::vector<index_t> sizes,
                                          std::size_t problems_per_size, int repeats,
                                          const SvdConfig& config, std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(),
                 "tune_batch_crossover: backend must execute kernels");
  const ka::ThreadPool* pool = backend.batch_pool();
  UNISVD_REQUIRE(pool != nullptr && pool->size() > 1 && !pool->in_job(),
                 "tune_batch_crossover: the inter-problem schedule cannot run "
                 "here — the backend needs a thread pool of >= 2 threads and "
                 "must not be called from inside one of its own pool jobs");
  UNISVD_REQUIRE(problems_per_size >= 1,
                 "tune_batch_crossover: problems_per_size must be positive");
  if (sizes.empty()) sizes = {32, 64, 128, 256};

  rnd::Xoshiro256 rng(seed);
  std::vector<Matrix<T>> problems;
  std::vector<ConstMatrixView<T>> views;
  // Candidate: the inter-problem schedule; baseline: intra. Prefix-win, so
  // a noisy inter win above a real loss cannot drag intermediate sizes
  // (where intra measured faster) into the inter regime.
  BatchCrossoverResult result;
  result.crossover_n = search_threshold(
      "tune_batch_crossover", std::move(sizes), repeats, result.samples,
      &BatchCrossoverSample::intra_seconds, &BatchCrossoverSample::inter_seconds,
      [&](index_t n) {
        problems.clear();
        views.clear();
        for (std::size_t p = 0; p < problems_per_size; ++p) {
          problems.push_back(rnd::round_to<T>(rnd::gaussian_matrix(n, n, rng)));
        }
        for (const auto& problem : problems) views.push_back(problem.view());
        return [&](bool inter) {
          BatchConfig bc;
          bc.svd = config;
          bc.schedule = inter ? BatchSchedule::InterProblem : BatchSchedule::IntraProblem;
          return time_call(
              [&] { (void)svd_values_batched_report<T>(views, bc, backend); });
        };
      });
  return result;
}

void TuningTable::set_fields(Knob knob, std::string_view backend, Precision p,
                             const KnobFields& fields) {
  directive_of(knob).check(fields);
  UNISVD_REQUIRE(backend.find_first_of(" \t\n#") == std::string_view::npos,
                 "TuningTable: backend names must be free of whitespace and '#' "
                 "(the text format's separators and comment marker)");
  entries_[Key{knob, std::string(backend), p}] = fields;
}

const KnobFields* TuningTable::find(Knob knob, std::string_view backend, Precision p,
                                    bool nearest) const {
  const auto exact = entries_.find(Key{knob, std::string(backend), p});
  if (exact != entries_.end()) return &exact->second;
  if (!nearest) return nullptr;
  for (const Precision q : precision_neighbors(p)) {
    const auto near = entries_.find(Key{knob, std::string(backend), q});
    if (near != entries_.end()) return &near->second;
  }
  return nullptr;
}

void TuningTable::write(std::ostream& os) const {
  // The text format is locale-independent by contract: a process that set a
  // global locale with digit grouping on integers must not corrupt the table
  // it saves. Pin the classic "C" locale for the whole write and restore the
  // caller's on exit.
  const std::locale caller_locale = os.imbue(std::locale::classic());
  os << "# unisvd tuning table v1\n";
  for (const auto& [key, fields] : entries_) {
    const Directive& d = directive_of(std::get<Knob>(key));
    os << d.name << ' ' << std::get<std::string>(key) << ' '
       << to_string(std::get<Precision>(key));
    for (std::size_t i = 0; i < d.fields; ++i) os << ' ' << fields[i];
    os << '\n';
  }
  os.imbue(caller_locale);
}

TuningTable TuningTable::read(std::istream& is, std::size_t* malformed_lines) {
  TuningTable table;
  std::size_t malformed = 0;
  // A line whose KNOWN directive fails to parse or validate is corruption (a
  // truncated write, a hand-edit gone wrong) and is counted — as is a
  // directive that is a torn PREFIX of a known one ("crossov": a write cut
  // off inside the token itself). Genuinely unknown directives pass silently
  // so newer tables still load on older code.
  const auto torn_prefix = [](const std::string& token) {
    return std::any_of(kDirectives.begin(), kDirectives.end(), [&](const Directive& d) {
      return token.size() < d.name.size() && d.name.starts_with(token);
    });
  };
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    // Parse under the classic "C" locale whatever the process global is:
    // grouping locales can mangle the integer fields. Mirrors the imbue in
    // write().
    ls.imbue(std::locale::classic());
    std::string token;
    if (!(ls >> token)) continue;  // blank line
    const auto known = std::find_if(kDirectives.begin(), kDirectives.end(),
                                    [&](const Directive& d) { return d.name == token; });
    if (known == kDirectives.end()) {
      if (torn_prefix(token)) ++malformed;
      continue;  // unknown directives are ignored (forward compatibility)
    }
    std::string backend;
    std::string prec_tok;
    ls >> backend >> prec_tok;  // a missing token leaves prec_tok empty
    const std::optional<Precision> p = parse_precision(prec_tok);
    const std::optional<KnobFields> fields =
        p ? parse_fields(ls, *known) : std::nullopt;
    if (!p || !fields) {
      ++malformed;  // corrupt entry: skip, keep the rest of the table
      continue;
    }
    const auto knob = static_cast<Knob>(known - kDirectives.begin());
    table.entries_[Key{knob, backend, *p}] = *fields;
  }
  if (malformed_lines != nullptr) *malformed_lines = malformed;
  return table;
}

bool TuningTable::save(const std::string& path) const {
  // Atomic replace: serialize into a pid+sequence-suffixed sibling, then
  // rename over the target. A crash mid-write leaves only the temp file
  // behind; concurrent savers — other processes (distinct pid) or other
  // threads of this one (distinct sequence number) — race renames, so the
  // last one wins with a COMPLETE table either way: the target path never
  // holds a partial write.
  static std::atomic<unsigned> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(UNISVD_GETPID()) +
                          "." + std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    write(os);
    os.flush();
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    return false;
  }
  return true;
}

TuningTable TuningTable::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return TuningTable{};
  std::size_t malformed = 0;
  TuningTable table = read(is, &malformed);
  if (malformed > 0) {
    // Never fail the caller over a damaged cache file: drop the bad lines
    // (a fully garbled table simply loads empty) and say so once.
    std::cerr << "unisvd: tuning table '" << path << "': ignored " << malformed
              << " malformed line(s)"
              << (table.empty() ? "; no usable entries, loading as empty" : "")
              << '\n';
  }
  return table;
}

BatchConfig tuned_batch_config(const TuningTable& table, const ka::Backend& backend,
                               Precision p, BatchConfig base) {
  base.crossover_n =
      table.get_or<Knob::BatchCrossover>(backend.name(), p, base.crossover_n);
  base.svd = tuned_svd_config(table, backend.name(), p, base.svd);
  return base;
}

template <class T>
SmallSvdThresholdResult tune_small_svd_threshold(ka::Backend& backend,
                                                 std::vector<index_t> sizes,
                                                 int repeats,
                                                 const SvdConfig& config,
                                                 std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(),
                 "tune_small_svd_threshold: backend must execute kernels");
  if (sizes.empty()) sizes = {8, 16, 24, 32, 48, 64};

  rnd::Xoshiro256 rng(seed);
  Matrix<T> probe;
  // Candidate: the fused path forced at the probed size; baseline: the
  // pipeline. Prefix-win, like tune_batch_crossover: a noisy fused win above
  // a real pipeline win cannot drag intermediate sizes into the fused regime.
  SmallSvdThresholdResult result;
  result.threshold = search_threshold(
      "tune_small_svd_threshold", std::move(sizes), repeats, result.samples,
      &SmallSvdSample::pipeline_seconds, &SmallSvdSample::fused_seconds,
      [&](index_t n) {
        probe = rnd::round_to<T>(rnd::gaussian_matrix(n, n, rng));
        return [&, n](bool fused) {
          SvdConfig cfg = config;
          cfg.job = SvdJob::Thin;
          cfg.small_svd_threshold = fused ? n : 0;
          return time_call(
              [&] { (void)svd_values_report<T>(probe.view(), cfg, backend); });
        };
      });
  return result;
}

template <class T>
RsvdTuneResult tune_rsvd(ka::Backend& backend, index_t m, index_t n, index_t rank,
                         std::vector<RsvdDefaults> candidates, int repeats,
                         double accuracy_budget, std::uint64_t seed) {
  UNISVD_REQUIRE(backend.executes(), "tune_rsvd: backend must execute kernels");
  UNISVD_REQUIRE(m >= n && n >= 2 * rank && rank >= 2,
                 "tune_rsvd: probe needs m >= n >= 2*rank, rank >= 2");
  UNISVD_REQUIRE(repeats >= 1, "tune_rsvd: repeats must be positive");
  UNISVD_REQUIRE(accuracy_budget >= 1.0, "tune_rsvd: accuracy_budget must be >= 1");
  if (candidates.empty()) {
    for (const index_t p : {index_t{4}, index_t{8}, index_t{16}}) {
      for (const int q : {0, 1, 2}) {
        candidates.push_back(RsvdDefaults{p, q});
      }
    }
  }

  // Probe: geometric decay to sigma_rank, then a flat noise tail — the
  // shape truncated SVD serves (PCA scree, trained-weight spectra). The
  // optimal rank-k Frobenius error is known exactly from the spectrum.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    sigma[static_cast<std::size_t>(i)] =
        i < rank ? std::pow(10.0, -2.0 * static_cast<double>(i) /
                                      static_cast<double>(rank))
                 : 1e-3;
  }
  double tail2 = 0.0;
  for (index_t i = rank; i < n; ++i) {
    tail2 += sigma[static_cast<std::size_t>(i)] * sigma[static_cast<std::size_t>(i)];
  }
  const double optimal = std::sqrt(tail2);
  rnd::Xoshiro256 rng(seed);
  const Matrix<double> probe64 = rnd::rect_matrix_with_spectrum(m, n, sigma, rng);
  const Matrix<T> probe = rnd::round_to<T>(probe64);

  RsvdTuneResult result;
  for (const auto& cand : candidates) {
    TruncConfig cfg;
    cfg.rank = rank;
    cfg.oversample = cand.oversample;
    cfg.power_iters = cand.power_iters;
    cfg.seed = seed;
    RsvdSample sample;
    sample.defaults = cand;
    sample.seconds = std::numeric_limits<double>::infinity();
    TruncReport rep;
    for (int r = 0; r < repeats; ++r) {
      sample.seconds = std::min(sample.seconds, time_call([&] {
        rep = svd_truncated_report<T>(probe.view(), cfg, backend);
      }));
    }
    // Rank-k residual RELATIVE to the optimal rank-k error (the probe's
    // noise tail guarantees optimal > 0): 1.0 is perfect, accuracy_budget
    // is the gate.
    sample.residual =
        ref::rank_k_residual_fro(probe64.view(), rep.u, rep.values, rep.vt,
                                 rep.rank) /
        optimal;
    sample.accurate = sample.residual <= accuracy_budget;
    result.samples.push_back(sample);
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const RsvdSample& a, const RsvdSample& b) {
              return a.seconds < b.seconds;
            });
  // Fastest accurate candidate; if nothing met the gate (degenerate probe),
  // fall back to the most accurate one.
  const RsvdSample* winner = nullptr;
  for (const auto& s : result.samples) {
    if (s.accurate) {
      winner = &s;
      break;
    }
  }
  if (winner == nullptr) {
    winner = &*std::min_element(result.samples.begin(), result.samples.end(),
                                [](const RsvdSample& a, const RsvdSample& b) {
                                  return a.residual < b.residual;
                                });
  }
  result.best = winner->defaults;
  return result;
}

TruncConfig tuned_trunc_config(const TuningTable& table, const ka::Backend& backend,
                               Precision p, TruncConfig base) {
  const RsvdDefaults d = table.get_or<Knob::Rsvd>(
      backend.name(), p, RsvdDefaults{base.oversample, base.power_iters});
  base.oversample = d.oversample;
  base.power_iters = d.power_iters;
  base.svd = tuned_svd_config(table, backend.name(), p, base.svd);
  return base;
}

TruncConfig tuned_trunc_config(const ka::Backend& backend, Precision p,
                               TruncConfig base) {
  return tuned_trunc_config(default_tuning_table(), backend, p, std::move(base));
}

std::string default_tuning_path() {
  if (const char* env = std::getenv("UNISVD_TUNING_FILE")) {
    return std::string(env);  // empty value disables the default table
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/unisvd/tuning.txt";
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/unisvd/tuning.txt";
  }
  return {};
}

TuningTable default_tuning_table() {
  const std::string path = default_tuning_path();
  if (path.empty()) return TuningTable{};
  return TuningTable::load(path);
}

BatchConfig tuned_batch_config(const ka::Backend& backend, Precision p,
                               BatchConfig base) {
  return tuned_batch_config(default_tuning_table(), backend, p, std::move(base));
}

template <class T>
index_t learn_batch_crossover(ka::Backend& backend, std::vector<index_t> sizes,
                              std::size_t problems_per_size, int repeats,
                              const SvdConfig& config, std::uint64_t seed) {
  const std::string path = default_tuning_path();
  UNISVD_REQUIRE(!path.empty(),
                 "learn_batch_crossover: no default tuning location — set "
                 "UNISVD_TUNING_FILE (or XDG_CACHE_HOME / HOME)");
  TuningTable table = TuningTable::load(path);
  const index_t crossover = learn_batch_crossover<T>(
      table, backend, std::move(sizes), problems_per_size, repeats, config, seed);
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // save() reports failure
  }
  UNISVD_REQUIRE(table.save(path),
                 "learn_batch_crossover: cannot write tuning table to " + path);
  return crossover;
}

// Explicit instantiations: every tuner is compiled into the library for each
// supported storage precision.
#define UNISVD_INSTANTIATE_TUNERS(T)                                               \
  template TuneResult autotune<T>(ka::Backend&, index_t,                           \
                                  std::vector<qr::KernelConfig>, int, std::uint64_t); \
  template BatchCrossoverResult tune_batch_crossover<T>(                           \
      ka::Backend&, std::vector<index_t>, std::size_t, int, const SvdConfig&,      \
      std::uint64_t);                                                              \
  template SmallSvdThresholdResult tune_small_svd_threshold<T>(                    \
      ka::Backend&, std::vector<index_t>, int, const SvdConfig&, std::uint64_t);   \
  template RsvdTuneResult tune_rsvd<T>(ka::Backend&, index_t, index_t, index_t,    \
                                       std::vector<RsvdDefaults>, int, double,     \
                                       std::uint64_t);                             \
  template index_t learn_batch_crossover<T>(ka::Backend&, std::vector<index_t>,    \
                                            std::size_t, int, const SvdConfig&,    \
                                            std::uint64_t);
UNISVD_INSTANTIATE_TUNERS(Half)
UNISVD_INSTANTIATE_TUNERS(float)
UNISVD_INSTANTIATE_TUNERS(double)
#undef UNISVD_INSTANTIATE_TUNERS

}  // namespace unisvd::core
