#pragma once
/// \file svd.hpp
/// The unified public API: singular values of a dense square matrix,
/// across storage precisions (FP16/FP32/FP64) and execution backends —
/// the C++ counterpart of the paper's type- and hardware-agnostic
/// `svdvals` built on Algorithms 1-5.
///
/// Pipeline: pad to a TILESIZE multiple -> Stage 1 tiled QR/LQ band
/// reduction (GPU-model kernels on the selected backend) -> Stage 2 Givens
/// bulge chasing to bidiagonal, after which the padding is dropped ->
/// Stage 3 bidiagonal QR iteration on the real n. FP16 inputs compute in
/// FP32 and round at stores (the paper's upcast policy).
///
/// Usage:
///   unisvd::Matrix<float> a = ...;
///   std::vector<float> sigma = unisvd::svd_values(a.view());

#include <cstdint>
#include <string>
#include <vector>

#include "band/band_to_bidiag.hpp"
#include "bidiag/bidiag_qr.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "dc/dc_svd.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"

namespace unisvd {

/// What the solver produces besides the singular values. The job is also
/// the only Stage-3 engine selector: ValuesOnly runs implicit-shift
/// bidiagonal QR (src/bidiag), Thin and Full run divide-and-conquer
/// (src/dc) and then the back-transformation.
enum class SvdJob {
  ValuesOnly,  ///< singular values only — the fast path (no sweep's
               ///< reflectors or rotations are kept, no vector kernels
               ///< launch)
  Thin,        ///< U is m x min(m, n), Vt is min(m, n) x n — the economy
               ///< factorization that PCA / low-rank use. Tall (or wide, on
               ///< the lazy transpose) inputs compose U = Q * U_R from the
               ///< retained panel QR, so the vector working set peaks at
               ///< O(m_pad * n_pad), never O(max(m,n)_pad^2)
  Full         ///< U is m x m, Vt is n x n (orthonormal completions of the
               ///< thin factors; O(m^2) memory for tall inputs). Values are
               ///< bit-identical to Thin's
};

[[nodiscard]] constexpr const char* to_string(SvdJob j) noexcept {
  switch (j) {
    case SvdJob::ValuesOnly: return "values-only";
    case SvdJob::Thin: return "thin";
    case SvdJob::Full: return "full";
  }
  return "?";
}

/// Options of the unified solver.
struct SvdConfig {
  /// Phase-1 kernel hyperparameters (paper §3.3). Defaults suit the CPU
  /// backend; see sim::tuned_kernel_config for the per-GPU tables and
  /// core/tuner.hpp for empirical autotuning.
  qr::KernelConfig kernels;
  /// Reject non-finite inputs up front (recommended; the reduction would
  /// otherwise propagate NaNs silently).
  bool check_finite = true;
  /// Pre-scale the input so its largest magnitude is ~1 and rescale the
  /// singular values on output. Implements the paper's future-work item
  /// "default rescaling for matrices with singular values outside the
  /// target precision range" — essential for FP16, whose storage saturates
  /// at 65504. Off by default to match the paper's baseline behaviour.
  /// Singular vectors are scale-invariant, so SvdJob::Thin/Full factors are
  /// unaffected.
  bool auto_scale = false;
  /// Whether to compute singular vectors (see SvdJob). ValuesOnly keeps
  /// nothing for vectors; Thin/Full keep each stage's reflectors and
  /// rotations, build the vectors in one back-transformation after Stage 3
  /// (compute precision, Stage::VectorAccumulation timing) and fill
  /// SvdReport::u / SvdReport::vt. Thin and Full values are bit-identical;
  /// they agree with the ValuesOnly solve within the accuracy gates
  /// (50*eps*n), not bitwise, because Stage 3 runs divide-and-conquer
  /// for vector jobs and implicit QR for values-only ones.
  SvdJob job = SvdJob::ValuesOnly;
  /// Fused tiny-problem threshold: problems with min(m, n) <= this take the
  /// stack-resident fused path (src/small) — one fused call, no tile
  /// padding, no per-stage launches — for every job, before the tall-panel
  /// QR. Inside it every job runs Golub–Kahan bidiagonalization plus
  /// implicit QR: ValuesOnly a lean values-only chase, Thin and Full the
  /// pipeline's vector iteration on the Q and P formed from the
  /// reflectors. Thin and Full values are bit-identical and agree with the
  /// ValuesOnly ones within the accuracy gates.
  /// Values match the pipeline within the storage precision's accuracy
  /// gates; SvdReport::small_path records the dispatch. Set 0 to force the
  /// pipeline everywhere; core::learn_small_svd_threshold measures and
  /// persists the crossover per backend/precision.
  index_t small_svd_threshold = 32;

  void validate() const {
    kernels.validate();
    UNISVD_REQUIRE(small_svd_threshold >= 0,
                   "SvdConfig: small_svd_threshold must be >= 0 (0 disables "
                   "the fused tiny-problem path)");
  }
};

/// Outcome of one solve. The throwing entry points (svd_values,
/// svd_values_report) only ever return Ok reports; the batched solver under
/// BatchConfig::on_error == ErrorPolicy::Isolate records failures here
/// instead of aborting the batch, so one bad matrix cannot poison its
/// neighbors.
enum class SvdStatus {
  Ok,
  InvalidInput,   ///< empty matrix / malformed problem
  NonFinite,      ///< input contains NaN or Inf (check_finite)
  InternalError,  ///< the solver threw (bad config, convergence failure, ...)
  Rejected,       ///< never solved: refused at admission (serve::SvdService —
                  ///< full queue under AdmissionPolicy::Reject, or a submit
                  ///< after shutdown)
  Cancelled,      ///< never solved: cancelled while queued (serve::SvdService
                  ///< shutdown with DrainMode::Cancel)
  Expired         ///< never solved: the job's deadline passed while it was
                  ///< still queued and the service shed it at claim time
                  ///< (serve::ServeConfig::shed_expired)
};

[[nodiscard]] constexpr const char* to_string(SvdStatus s) noexcept {
  switch (s) {
    case SvdStatus::Ok: return "ok";
    case SvdStatus::InvalidInput: return "invalid-input";
    case SvdStatus::NonFinite: return "non-finite";
    case SvdStatus::InternalError: return "internal-error";
    case SvdStatus::Rejected: return "rejected";
    case SvdStatus::Cancelled: return "cancelled";
    case SvdStatus::Expired: return "expired";
  }
  return "?";
}

/// Result with diagnostics (per-stage wall clock feeds Figure 6).
struct SvdReport {
  std::vector<double> values;   ///< singular values, descending, min(m,n)
  /// Left singular vectors (SvdJob::Thin: m x min(m,n); Full: m x m; empty
  /// for ValuesOnly). Held in double like `values`; the accumulation itself
  /// ran in the compute precision of the storage type (FP32 for FP16).
  Matrix<double> u;
  /// Right singular vectors, transposed (Thin: min(m,n) x n; Full: n x n;
  /// empty for ValuesOnly). A = u * diag(values) * vt in exact arithmetic.
  Matrix<double> vt;
  ka::StageTimes stage_times;   ///< wall clock per pipeline stage
  band::ChaseStats chase_stats; ///< Stage-2 rotation counts
  /// D&C events of a pipeline vector job (zero for ValuesOnly and fused
  /// solves).
  dc::DcStats dc_stats;
  /// Implicit-QR events of a ValuesOnly solve, pipeline or fused (zero for
  /// vector jobs).
  bidiag::QrStats qr_stats;
  index_t padded_n = 0;         ///< square working extent after padding
  /// True when this solve took the fused tiny-problem path (min(m, n) <=
  /// SvdConfig::small_svd_threshold): one stack-resident fused call
  /// (bidiagonalization plus implicit QR for every job, with U and V
  /// rotated out of the reflector products for Thin/Full), no tile
  /// padding — padded_n reports min(m, n) — and all wall clock under
  /// ka::Stage::FusedSmall.
  bool small_path = false;
  /// True when Stage 3 ran the divide-and-conquer engine (src/dc): exactly
  /// the Thin and Full jobs that took the pipeline (not the fused path).
  bool stage3_dc = false;
  double scale_factor = 1.0;    ///< auto_scale divisor applied to the input
  SvdStatus status = SvdStatus::Ok;  ///< per-problem outcome (batched Isolate)
  std::string status_message;   ///< empty when Ok; human-readable reason otherwise
};

/// Singular values with per-stage diagnostics. Rectangular inputs are
/// supported: wide matrices run on the lazy transpose (sigma(A) ==
/// sigma(A^T)); tall matrices are first reduced to square triangular form
/// by the replayable tall-panel QR (qr/panel_qr.hpp) built from the same
/// GEQRT/TSQRT/UNMQR/TSMQR kernels.
template <class T>
SvdReport svd_values_report(ConstMatrixView<T> a, const SvdConfig& config = {},
                            ka::Backend& backend = ka::default_backend());

/// Singular values (descending, min(m,n) of them), returned in the storage
/// precision — the unified `svdvals`. Throws unisvd::Error for empty or
/// (by default) non-finite inputs.
template <class T>
std::vector<T> svd_values(ConstMatrixView<T> a, const SvdConfig& config = {},
                          ka::Backend& backend = ka::default_backend()) {
  const SvdReport rep = svd_values_report(a, config, backend);
  std::vector<T> out(rep.values.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = narrow_from_double<T>(rep.values[i]);
  }
  return out;
}

/// Full factorization in storage precision: A ~= u * diag(values) * vt.
template <class T>
struct Svd {
  Matrix<T> u;            ///< left singular vectors (m x k, or m x m Full)
  std::vector<T> values;  ///< singular values, descending, k = min(m, n)
  Matrix<T> vt;           ///< right singular vectors, transposed (k x n / n x n)
};

namespace detail {

/// Narrow a factor-carrying report (SvdReport into Svd, TruncReport into
/// SvdTrunc) into storage precision (empty factors pass through empty —
/// the batched Isolate failure shape).
template <template <class> class Out, class T, class Report>
Out<T> narrow_factors(const Report& rep) {
  Out<T> out;
  out.values.resize(rep.values.size());
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    out.values[i] = narrow_from_double<T>(rep.values[i]);
  }
  out.u = Matrix<T>(rep.u.rows(), rep.u.cols());
  for (index_t j = 0; j < rep.u.cols(); ++j) {
    for (index_t i = 0; i < rep.u.rows(); ++i) {
      out.u(i, j) = narrow_from_double<T>(rep.u(i, j));
    }
  }
  out.vt = Matrix<T>(rep.vt.rows(), rep.vt.cols());
  for (index_t j = 0; j < rep.vt.cols(); ++j) {
    for (index_t i = 0; i < rep.vt.rows(); ++i) {
      out.vt(i, j) = narrow_from_double<T>(rep.vt(i, j));
    }
  }
  return out;
}

}  // namespace detail

/// Singular vectors with full diagnostics: svd_values_report with the job
/// upgraded to Thin when the caller left it at ValuesOnly (asking for a
/// vector report implies wanting vectors). Use the report's double-held
/// u/vt to measure the compute-path accuracy (FP16 accumulates in FP32).
template <class T>
SvdReport svd_report(ConstMatrixView<T> a, SvdConfig config = {},
                     ka::Backend& backend = ka::default_backend()) {
  if (config.job == SvdJob::ValuesOnly) config.job = SvdJob::Thin;
  return svd_values_report(a, config, backend);
}

/// The unified full SVD: A ~= u * diag(values) * vt in storage precision —
/// the `svd` counterpart of svd_values. config.job selects Thin (default
/// when left at ValuesOnly) or Full factors; both give bit-identical
/// values, which match svd_values(a, config, backend) within 50*eps*n
/// (Stage 3 runs divide-and-conquer here, implicit QR there).
template <class T>
Svd<T> svd(ConstMatrixView<T> a, const SvdConfig& config = {},
           ka::Backend& backend = ka::default_backend()) {
  return detail::narrow_factors<Svd, T>(svd_report(a, config, backend));
}

// ---------------------------------------------------------------------------
// Randomized truncated SVD (implementation in src/rsvd/)
// ---------------------------------------------------------------------------

/// Options of the randomized truncated solver (Halko/Martinsson/Tropp
/// sketch -> power-iterate -> project, on the repo's tiled kernels).
struct TruncConfig {
  /// Target rank k: the number of singular triplets to return, clamped to
  /// min(m, n). 0 picks a small default (8) — callers serious about the
  /// spectrum should set it. In the tolerance-driven adaptive mode
  /// (tol > 0) this is only the INITIAL sketch guess and the returned rank
  /// is chosen from the spectrum.
  index_t rank = 0;
  /// Oversampling p: the sketch uses l = k + p Gaussian test vectors. The
  /// classic l = k + 5..10 regime; larger p tightens the error bound at
  /// linear extra cost. Tuned per backend/precision via the TuningTable
  /// (core::tuned_trunc_config).
  index_t oversample = 8;
  /// Subspace (power) iterations q: each one multiplies the spectral decay
  /// seen by the range finder by (sigma_k / sigma_1)^2, at the cost of two
  /// more panel factorizations per iteration. 1-2 suffices for anything
  /// with visible decay; 0 only for sharply truncated spectra.
  int power_iters = 2;
  /// Adaptive-rank mode: when > 0, pick the smallest rank k whose tail
  /// estimate sigma_{k+1} <= tol * sigma_1, growing the sketch (geometric
  /// doubling, re-using the Gaussian stream prefix) until such a k fits
  /// inside it, up to max_rank — then fall back to the dense path.
  double tol = 0.0;
  /// Adaptive-rank cap (0 = min(m, n)). Ignored when tol == 0.
  index_t max_rank = 0;
  /// Seed of the Gaussian sketch: svd_truncated is deterministic per seed
  /// (across backends, thread counts and batch schedules).
  std::uint64_t seed = 42;
  /// Per-solve options of the underlying kernels/pipeline: `kernels`,
  /// `check_finite`, `auto_scale` and `small_svd_threshold` apply exactly
  /// as for svd() (the projected l x n solve runs under this config too);
  /// `job` is ignored (the truncated solver always produces factors).
  SvdConfig svd;

  void validate() const {
    svd.validate();
    UNISVD_REQUIRE(rank >= 0 && oversample >= 0 && max_rank >= 0,
                   "TruncConfig: rank/oversample/max_rank must be >= 0");
    UNISVD_REQUIRE(power_iters >= 0 && power_iters <= 64,
                   "TruncConfig: power_iters must be in [0, 64]");
    UNISVD_REQUIRE(tol >= 0.0, "TruncConfig: tol must be >= 0");
  }
};

/// Rank-k factorization in storage precision: A ~= u * diag(values) * vt.
template <class T>
struct SvdTrunc {
  Matrix<T> u;            ///< left singular vectors, m x k
  std::vector<T> values;  ///< top k singular values, descending
  Matrix<T> vt;           ///< right singular vectors transposed, k x n

  [[nodiscard]] index_t rank() const noexcept {
    return static_cast<index_t>(values.size());
  }
};

/// Outcome of one truncated solve, with diagnostics. Factors are held in
/// double like SvdReport's (the arithmetic ran in compute precision).
struct TruncReport {
  std::vector<double> values;   ///< top k singular values, descending
  Matrix<double> u;             ///< m x k
  Matrix<double> vt;            ///< k x n
  index_t rank = 0;             ///< k actually returned
  index_t sketch_cols = 0;      ///< Gaussian test vectors used (l = k + p)
  int power_iters = 0;          ///< subspace iterations actually run
  /// Sketch rounds EXECUTED, across every exit: 1 for a fixed-rank solve or
  /// an adaptive first fit, +1 per adaptive growth retry, and 0 only when
  /// the solver fell back to the dense pipeline before sketching at all.
  /// The max-rank dense fallback counts the rounds whose sketches ran.
  int adaptive_rounds = 0;
  bool dense_fallback = false;  ///< solved by the dense pipeline (sketch would
                                ///< not have been smaller than the problem)
  /// Estimate of sigma_{k+1}(A) — the (k+1)-th value of the projected
  /// problem; 0 when the sketch had no tail beyond k. This is the quantity
  /// the adaptive mode thresholds and the optimal rank-k error's scale.
  double sigma_tail = 0.0;
  double scale_factor = 1.0;    ///< auto_scale divisor applied to the input
  ka::StageTimes stage_times;   ///< includes Stage::RandomizedSketch
  SvdStatus status = SvdStatus::Ok;  ///< per-problem outcome (batched Isolate)
  std::string status_message;   ///< empty when Ok
};

/// Randomized truncated SVD with diagnostics: Gaussian sketch, q subspace
/// iterations re-orthonormalized through the tiled panel QR, projection to
/// an (l x n) problem solved by the dense pipeline, back-composition
/// U = Q * U~ through the backward reflector kernels. Rectangular inputs of
/// either orientation are supported (wide ones run on the lazy transpose).
/// Deterministic per TruncConfig::seed. Throws unisvd::Error for empty or
/// (by default) non-finite inputs and for invalid configurations.
template <class T>
TruncReport svd_truncated_report(ConstMatrixView<T> a,
                                 const TruncConfig& config = {},
                                 ka::Backend& backend = ka::default_backend());

/// Randomized truncated SVD in storage precision: the top-k factorization
/// A ~= u * diag(values) * vt at a fraction of the dense pipeline's cost —
/// the PCA / LoRA / low-rank-compression entry point. See TruncConfig for
/// the rank/oversample/power-iteration knobs and the tolerance-driven
/// adaptive-rank mode.
template <class T>
SvdTrunc<T> svd_truncated(ConstMatrixView<T> a, const TruncConfig& config = {},
                          ka::Backend& backend = ka::default_backend()) {
  return detail::narrow_factors<SvdTrunc, T>(svd_truncated_report(a, config, backend));
}

}  // namespace unisvd
