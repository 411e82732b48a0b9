#pragma once
/// \file tuner.hpp
/// Empirical hyperparameter autotuning (paper §3.3: "a brute-force
/// hyperparameter search was conducted to identify optimal values").
///
/// For GPU device models the tuned tables live in sim/tuning.hpp; this
/// tuner measures REAL executions on an executing backend (e.g. the CPU
/// backend) and picks the fastest Phase-1 configuration — the same
/// procedure the paper runs per hardware/precision combination.

#include <array>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "core/batch.hpp"
#include "core/svd.hpp"
#include "ka/backend.hpp"
#include "qr/kernel_config.hpp"

namespace unisvd::core {

struct TuneEntry {
  qr::KernelConfig config;
  double seconds = 0.0;
};

struct TuneResult {
  qr::KernelConfig best;
  std::vector<TuneEntry> all;  ///< every measured candidate, fastest first
};

/// Default candidate grid (TILESIZE x COLPERBLOCK x SPLITK, fused).
[[nodiscard]] std::vector<qr::KernelConfig> default_candidates(index_t n);

/// Measure Phase-1 (band reduction) on a random n x n matrix of type T for
/// every candidate and return them ranked. `repeats` runs are averaged.
template <class T>
[[nodiscard]] TuneResult autotune(ka::Backend& backend, index_t n,
                                  std::vector<qr::KernelConfig> candidates = {},
                                  int repeats = 1, std::uint64_t seed = 42);

/// One probed size of the batch-schedule tuner.
struct BatchCrossoverSample {
  index_t n = 0;
  double inter_seconds = 0.0;  ///< uniform batch, one problem per pool slot
  double intra_seconds = 0.0;  ///< same batch, sequential with parallel kernels
};

struct BatchCrossoverResult {
  /// Learned BatchConfig::crossover_n: the largest probed size up to which
  /// the inter-problem schedule won at every probed size (0 when it lost at
  /// the smallest — always go intra). A noisy inter win above a real loss
  /// does not extend the crossover.
  index_t crossover_n = 0;
  std::vector<BatchCrossoverSample> samples;  ///< ascending in n
};

/// Learn the inter/intra batch-schedule crossover for this backend and
/// storage type: time a uniform batch of `problems_per_size` random n x n
/// problems under both schedules at each probed size, keeping the best of
/// `repeats` runs per schedule (after one untimed warmup batch per size, and
/// alternating which schedule is timed first). Empty
/// `sizes` uses a default ladder. The result's crossover_n drops into
/// BatchConfig::crossover_n (core/batch.hpp). Throws when the backend has
/// no usable thread pool (serial, width-1): the inter schedule could not
/// actually run and the comparison would be noise.
template <class T>
[[nodiscard]] BatchCrossoverResult tune_batch_crossover(
    ka::Backend& backend, std::vector<index_t> sizes = {},
    std::size_t problems_per_size = 8, int repeats = 2,
    const SvdConfig& config = {}, std::uint64_t seed = 42);

/// Measured randomized-truncated-SVD defaults (core::tune_rsvd): the
/// cheapest (oversample, power_iters) pair that still met the accuracy
/// gate on the probe problem. Dropped into TruncConfig by
/// core::tuned_trunc_config.
struct RsvdDefaults {
  index_t oversample = 8;
  int power_iters = 2;
};

/// The persisted tuning knobs, one per directive of the text format (in
/// format order): `crossover`, `kernels`, `rsvd` and `small_svd`, learned
/// by tune_batch_crossover, autotune, tune_rsvd and
/// tune_small_svd_threshold respectively.
enum class Knob { BatchCrossover, Kernels, Rsvd, SmallSvdThreshold };

/// Every directive's value is a fixed-size tuple of integers; unused
/// trailing fields stay 0.
using KnobFields = std::array<index_t, 4>;

/// A knob's value type and its conversion to and from the directive's
/// integer fields. The two threshold knobs are plain index_t values.
template <Knob K>
struct KnobTraits {
  using value_type = index_t;
  static KnobFields encode(index_t v) { return {v}; }
  static index_t decode(const KnobFields& f) { return f[0]; }
};

template <>
struct KnobTraits<Knob::Kernels> {
  using value_type = qr::KernelConfig;
  static KnobFields encode(const qr::KernelConfig& c) {
    return {c.tilesize, c.colperblock, c.splitk, c.fused ? 1 : 0};
  }
  static qr::KernelConfig decode(const KnobFields& f) {
    return {static_cast<int>(f[0]), static_cast<int>(f[1]), static_cast<int>(f[2]),
            f[3] != 0};
  }
};

template <>
struct KnobTraits<Knob::Rsvd> {
  using value_type = RsvdDefaults;
  static KnobFields encode(const RsvdDefaults& d) {
    return {d.oversample, d.power_iters};
  }
  static RsvdDefaults decode(const KnobFields& f) {
    return {f[0], static_cast<int>(f[1])};
  }
};

template <Knob K>
using knob_value_t = typename KnobTraits<K>::value_type;

/// Persisted empirical-tuning results, keyed by (knob, backend name,
/// precision) — the runtime counterpart of the compile-time device tables in
/// sim/tuning.hpp, so BatchConfig::crossover_n, SvdConfig::kernels and the
/// other knob defaults come from measurements instead of hardcoded
/// constants.
///
/// Lookups fall back sim::tuned_kernel_config-style: exact (backend,
/// precision) first, then the same backend's nearest precision (FP16 and
/// FP32 prefer each other — they share the FP32 compute path — before
/// FP64), then the caller-supplied default.
///
/// Text format, one entry per line ('#' starts a comment; unknown
/// directives and malformed lines are skipped, so newer tables still load):
///   crossover <backend> <FP16|FP32|FP64> <n>
///   kernels <backend> <FP16|FP32|FP64> <tilesize> <colperblock> <splitk> <fused 0|1>
///   rsvd <backend> <FP16|FP32|FP64> <oversample> <power_iters>
///   small_svd <backend> <FP16|FP32|FP64> <threshold>
/// Backend names must be free of whitespace and '#' — the format's
/// separators and comment marker (every ka::Backend::name() is).
///
/// Durability: save() writes a private `<path>.tmp.<pid>.<seq>` file and
/// atomically renames it over the target, so a crash mid-write or two
/// concurrent learn_* processes can never leave a half-written table behind
/// (the last writer wins wholesale). load() stays graceful the other way:
/// a missing file yields an empty table, and a truncated or garbage file
/// loads whatever entries still parse — malformed lines are dropped with
/// one stderr warning instead of failing the caller.
class TuningTable {
 public:
  /// Record a measured value. Throws unisvd::Error when the value fails its
  /// directive's validation or the backend name contains whitespace or '#'.
  template <Knob K>
  void set(std::string_view backend, Precision p, const knob_value_t<K>& value) {
    set_fields(K, backend, p, KnobTraits<K>::encode(value));
  }
  /// The exact (backend, precision) entry, if one was recorded.
  template <Knob K>
  [[nodiscard]] std::optional<knob_value_t<K>> get(std::string_view backend,
                                                   Precision p) const {
    const KnobFields* hit = find(K, backend, p, /*nearest=*/false);
    if (hit == nullptr) return std::nullopt;
    return KnobTraits<K>::decode(*hit);
  }
  /// The entry with the fallback rules applied; `fallback` when nothing matches.
  template <Knob K>
  [[nodiscard]] knob_value_t<K> get_or(std::string_view backend, Precision p,
                                       const knob_value_t<K>& fallback) const {
    const KnobFields* hit = find(K, backend, p, /*nearest=*/true);
    return hit != nullptr ? KnobTraits<K>::decode(*hit) : fallback;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  void write(std::ostream& os) const;
  /// Parse a stream; lines that name a known directive but fail to parse
  /// are skipped and counted into *malformed_lines (when non-null).
  /// Unknown directives stay silently ignored (forward compatibility).
  [[nodiscard]] static TuningTable read(std::istream& is,
                                        std::size_t* malformed_lines = nullptr);

  /// Serialize to `path` atomically: the table is written to
  /// `<path>.tmp.<pid>.<seq>` and renamed over the target, so readers never see a
  /// half-written file and concurrent savers cannot interleave. False on
  /// I/O failure (the temp file is cleaned up).
  [[nodiscard]] bool save(const std::string& path) const;
  /// Parse `path`. Graceful: a missing/unreadable file yields an empty
  /// table; a truncated or garbage file loads as whatever entries still
  /// parse (possibly none) with a single stderr warning about the dropped
  /// lines — callers always get their fallbacks instead of an exception.
  [[nodiscard]] static TuningTable load(const std::string& path);

 private:
  using Key = std::tuple<Knob, std::string, Precision>;
  void set_fields(Knob knob, std::string_view backend, Precision p,
                  const KnobFields& fields);
  [[nodiscard]] const KnobFields* find(Knob knob, std::string_view backend,
                                       Precision p, bool nearest) const;

  std::map<Key, KnobFields> entries_;
};

/// Run tune_batch_crossover and deposit the learned crossover into `table`
/// under the backend's name and T's precision. Returns the crossover.
template <class T>
index_t learn_batch_crossover(TuningTable& table, ka::Backend& backend,
                              std::vector<index_t> sizes = {},
                              std::size_t problems_per_size = 8, int repeats = 2,
                              const SvdConfig& config = {}, std::uint64_t seed = 42) {
  const index_t n = tune_batch_crossover<T>(backend, std::move(sizes), problems_per_size,
                                            repeats, config, seed).crossover_n;
  table.set<Knob::BatchCrossover>(backend.name(), precision_of<T>, n);
  return n;
}

/// BatchConfig whose crossover_n (and Phase-1 kernels and fused small-path
/// threshold, when measured) come from the table —
/// the measurement-backed default for `backend`. Fields of `base` not
/// covered by the table are preserved.
[[nodiscard]] BatchConfig tuned_batch_config(const TuningTable& table,
                                             const ka::Backend& backend, Precision p,
                                             BatchConfig base = {});

/// One probed (oversample, power_iters) candidate of the rsvd tuner.
struct RsvdSample {
  RsvdDefaults defaults;
  double seconds = 0.0;   ///< best-of-repeats wall clock of svd_truncated
  /// ||A - U S V^T||_F divided by the OPTIMAL rank-k error of the probe
  /// (1.0 = perfect; the probe's noise tail guarantees the denominator).
  double residual = 0.0;
  bool accurate = false;  ///< residual <= accuracy_budget
};

struct RsvdTuneResult {
  RsvdDefaults best;                ///< cheapest accurate candidate
  std::vector<RsvdSample> samples;  ///< every candidate, fastest first
};

/// Measure randomized-truncated-SVD defaults for this backend and storage
/// type: run svd_truncated at rank `rank` on an m x n synthetic matrix with
/// a known decaying spectrum for every (oversample, power_iters) candidate,
/// keep the best of `repeats` runs, and pick the FASTEST candidate whose
/// rank-k residual stays within `accuracy_budget` times the optimal rank-k
/// error (the sigma-tail bound the test suite enforces). Empty `candidates`
/// probes oversample {4, 8, 16} x power_iters {0, 1, 2}. The winner drops
/// into TruncConfig via tuned_trunc_config.
template <class T>
[[nodiscard]] RsvdTuneResult tune_rsvd(
    ka::Backend& backend, index_t m = 384, index_t n = 96, index_t rank = 16,
    std::vector<RsvdDefaults> candidates = {}, int repeats = 1,
    double accuracy_budget = 1.5, std::uint64_t seed = 42);

/// Run tune_rsvd and deposit the winner into `table` under the backend's
/// name and T's precision. Returns the winner.
template <class T>
RsvdDefaults learn_rsvd(TuningTable& table, ka::Backend& backend, index_t m = 384,
                        index_t n = 96, index_t rank = 16, int repeats = 1,
                        double accuracy_budget = 1.5, std::uint64_t seed = 42) {
  const RsvdDefaults best =
      tune_rsvd<T>(backend, m, n, rank, {}, repeats, accuracy_budget, seed).best;
  table.set<Knob::Rsvd>(backend.name(), precision_of<T>, best);
  return best;
}

/// One probed size of the fused tiny-problem tuner.
struct SmallSvdSample {
  index_t n = 0;                  ///< probed square extent (min dim)
  double fused_seconds = 0.0;     ///< Thin solve, fused path forced
  double pipeline_seconds = 0.0;  ///< Thin solve, fused path disabled
};

struct SmallSvdThresholdResult {
  /// Learned SvdConfig::small_svd_threshold: the largest probed n up to
  /// which the fused path won at EVERY probed size (prefix-win, mirroring
  /// tune_batch_crossover — a noisy fused win above a real loss does not
  /// extend the threshold), or 0 when it lost at the smallest probe.
  index_t threshold = 0;
  std::vector<SmallSvdSample> samples;  ///< ascending in n
};

/// Learn the fused tiny-problem threshold for this backend and storage
/// type: time a Thin-job solve of a random n x n matrix with the fused path
/// forced (small_svd_threshold = n) vs disabled (0) at each probed size,
/// best of `repeats` alternating runs each after one untimed warmup. Empty
/// `sizes` probes {8, 16, 24, 32, 48, 64}. The result's threshold drops into
/// SvdConfig::small_svd_threshold (tuned_batch_config / tuned_trunc_config
/// apply it from a table).
template <class T>
[[nodiscard]] SmallSvdThresholdResult tune_small_svd_threshold(
    ka::Backend& backend, std::vector<index_t> sizes = {}, int repeats = 2,
    const SvdConfig& config = {}, std::uint64_t seed = 42);

/// Run tune_small_svd_threshold and deposit the learned threshold into
/// `table` under the backend's name and T's precision. Returns the threshold.
template <class T>
index_t learn_small_svd_threshold(TuningTable& table, ka::Backend& backend,
                                  std::vector<index_t> sizes = {}, int repeats = 2,
                                  const SvdConfig& config = {},
                                  std::uint64_t seed = 42) {
  const index_t n = tune_small_svd_threshold<T>(backend, std::move(sizes), repeats,
                                                config, seed).threshold;
  table.set<Knob::SmallSvdThreshold>(backend.name(), precision_of<T>, n);
  return n;
}

/// TruncConfig whose oversample/power_iters come from the table's measured
/// rsvd defaults (exact backend/precision match, then nearest precision,
/// then `base` unchanged) — and whose SvdConfig knobs come from the table
/// exactly as in tuned_batch_config.
[[nodiscard]] TruncConfig tuned_trunc_config(const TuningTable& table,
                                             const ka::Backend& backend, Precision p,
                                             TruncConfig base = {});

/// tuned_trunc_config against the process-default table (UNISVD_TUNING_FILE
/// / XDG fallback; see default_tuning_path).
[[nodiscard]] TruncConfig tuned_trunc_config(const ka::Backend& backend, Precision p,
                                             TruncConfig base = {});

/// ---- Process-default tuning table location ----
///
/// Libraries should pick up persisted tunings without plumbing a path
/// through every call site. The default location is resolved once per call:
///
///   1. $UNISVD_TUNING_FILE            — explicit override; an empty value
///                                        disables the default table
///   2. $XDG_CACHE_HOME/unisvd/tuning.txt
///   3. $HOME/.cache/unisvd/tuning.txt — the XDG fallback spelled out
///
/// and "" when none of the variables resolve (no default location).
[[nodiscard]] std::string default_tuning_path();

/// The table at default_tuning_path() — empty when the path is unset or the
/// file is absent/unreadable (TuningTable::load is graceful).
[[nodiscard]] TuningTable default_tuning_table();

/// tuned_batch_config against the process-default table: the zero-plumbing
/// entry point — honors UNISVD_TUNING_FILE / the XDG fallback and falls
/// back to `base` for anything unmeasured.
[[nodiscard]] BatchConfig tuned_batch_config(const ka::Backend& backend, Precision p,
                                             BatchConfig base = {});

/// learn_batch_crossover against the process-default table: loads the table
/// from default_tuning_path(), measures, and writes the table back (creating
/// parent directories). Throws unisvd::Error when no default location
/// resolves or the table cannot be written — a silent measurement that is
/// never persisted would defeat the point of this overload.
template <class T>
index_t learn_batch_crossover(ka::Backend& backend, std::vector<index_t> sizes = {},
                              std::size_t problems_per_size = 8, int repeats = 2,
                              const SvdConfig& config = {}, std::uint64_t seed = 42);

}  // namespace unisvd::core
