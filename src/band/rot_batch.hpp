#pragma once
/// \file rot_batch.hpp
/// The Stage-2 rotation log and its blocked reverse replay: the Q2 / P2
/// factors of the back-transformation (core/svd.cpp).
///
/// A vector job's bulge chase (band_to_bidiag) touches no factor. It
/// appends every non-identity rotation to one log per side, in generation
/// order: left (row) rotations make Q2, right (column) rotations P2. Every
/// chase rotation acts on an adjacent coordinate pair (r, r+1), so an entry
/// is (r, c, s) — 12 bytes at FP32. The logs allocate through
/// MatrixAllocator, so matrix_peak_bytes() counts them.
///
/// After Stage 3, replay_reverse applies a log to a transposed factor
/// F = U_B^T (or V_B^T; rows = vectors): F <- F * G_N * ... * G_1, i.e.
/// the rotations last first, each transposed to (c, -s), on the coordinate
/// pair (r, r+1). F is held as RowPanels, where that pair of one
/// kRowTile-row panel is one contiguous run, so the kernel runs one
/// workgroup per panel, rotation-outer and lane-inner: per rotation, one
/// contiguous loop over the panel's rows. The rows are independent lanes,
/// so the loop vectorizes at the compiler's baseline ISA (and wider under
/// -march) with no separate vector body.
///
/// Bit-identity with the eager loop apply_givens_rows(F^T, r, r+1, c, -s)
/// over the reversed log is structural: each row of F sees the rotations in
/// exactly that order with exactly that per-element expression, whatever
/// the panel, and the build forbids FMA contraction, so vector lanes round
/// like scalar code.
///
/// The replay is one ka::Backend launch "stage2_rot_batch"
/// (Stage::VectorAccumulation), so it parallelizes across panels on the CPU
/// backends and shows up in trace streams like any other vector kernel.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"

namespace unisvd::band {

/// One chase rotation on coordinates (r, r+1):
/// (u, v) -> (c*u + s*v, -s*u + c*v).
template <class CT>
struct ChaseRotation {
  std::int32_t r;
  CT c;
  CT s;
};

/// One side's rotations, in generation order.
template <class CT>
using RotationLog = std::vector<ChaseRotation<CT>, MatrixAllocator<ChaseRotation<CT>>>;

/// Both sides of one chase: `left` acts on the rows of the band (Q2),
/// `right` on its columns (P2).
template <class CT>
struct ChaseLog {
  RotationLog<CT> left;
  RotationLog<CT> right;
};

/// Factor rows per replay workgroup.
inline constexpr index_t kRowTile = 64;

/// A factor F (rows = vectors, cols = coordinates) in the replay's layout:
/// panels of kRowTile rows, each stored coordinate-major, so coordinate c
/// of a panel is the contiguous run of its kRowTile rows and a coordinate
/// pair (r, r+1) is one contiguous run of 2 * kRowTile elements. (In a
/// column-major F the pair's two runs lie a leading dimension apart, on
/// different pages; that replay measured 2.5-3x slower.) The last panel's
/// rows beyond rows() are zero, and the rotations keep them zero.
template <class CT>
class RowPanels {
 public:
  explicit RowPanels(ConstMatrixView<CT> f)
      : rows_(f.rows()),
        cols_(f.cols()),
        data_(kRowTile, cols_ * ((rows_ + kRowTile - 1) / kRowTile), CT(0)) {
    for (index_t i0 = 0; i0 < rows_; i0 += kRowTile) {
      for (index_t j = 0; j < cols_; ++j) {
        for (index_t i = i0; i < std::min(rows_, i0 + kRowTile); ++i) {
          (*this)(i, j) = f(i, j);
        }
      }
    }
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t panels() const noexcept { return data_.cols() / cols_; }
  [[nodiscard]] CT& operator()(index_t i, index_t j) noexcept {
    return data_(i % kRowTile, i / kRowTile * cols_ + j);
  }
  [[nodiscard]] const CT& operator()(index_t i, index_t j) const noexcept {
    return data_(i % kRowTile, i / kRowTile * cols_ + j);
  }
  /// Panel p: coordinate c is the run [c * kRowTile, (c + 1) * kRowTile).
  [[nodiscard]] CT* panel(index_t p) noexcept { return data_.data() + p * kRowTile * cols_; }

 private:
  index_t rows_;
  index_t cols_;
  Matrix<CT> data_;
};

/// f <- f * G_N * ... * G_1 for the N rotations of `log` (see the file
/// comment) in one launch, each panel running the whole log: it stays
/// cache-resident for all of it (measured 10-20% faster at n = 1024 and
/// 2048 than 4096-rotation passes). Every logged r must satisfy
/// r + 1 < f.cols(), and a log that breaks it throws before the launch: a
/// pipeline factor spans only the real coordinates, and a non-finite input
/// solved with check_finite off can spread NaN rotations into the tile
/// padding. Returns the number of launches: 1, or 0 for an empty log.
template <class CT>
index_t replay_reverse(ka::Backend& be, const RotationLog<CT>& log, RowPanels<CT>& f,
                       ka::StageTimes* times = nullptr) {
  if (log.empty()) return 0;
  std::int32_t max_r = 0;
  for (const auto& rot : log) max_r = std::max(max_r, rot.r);
  UNISVD_REQUIRE(max_r + index_t{1} < f.cols(),
                 "replay_reverse: a rotation lies outside the factor's coordinates");
  const auto nrots = static_cast<index_t>(log.size());
  const double drots = static_cast<double>(nrots);
  const double drows = static_cast<double>(f.rows());
  ka::LaunchDesc desc;
  desc.name = "stage2_rot_batch";
  desc.stage = ka::Stage::VectorAccumulation;
  desc.num_groups = f.panels();
  desc.group_size = static_cast<int>(kRowTile);
  desc.precision = precision_of<CT>;
  desc.cost.flops = 6.0 * drots * drows;
  // Each panel streams its touched coordinates through cache once and
  // reads the whole log.
  const double touched = std::min(2.0 * drots, static_cast<double>(f.cols())) *
                         drows * static_cast<double>(sizeof(CT));
  desc.cost.bytes_read =
      touched + static_cast<double>(desc.num_groups) * drots *
                    static_cast<double>(sizeof(ChaseRotation<CT>));
  desc.cost.bytes_written = touched;
  desc.cost.serial_iterations = drots;

  CT* base = f.panel(0);
  const index_t stride = kRowTile * f.cols();
  const ChaseRotation<CT>* rots = log.data();
  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    CT* panel = base + wg.group_id() * stride;
    // unisvd-lint: begin-kernel(stage2-rot-batch)
    // Lanes are the panel's rows: coordinate r is the contiguous run
    // panel[r * kRowTile, (r + 1) * kRowTile).
    for (index_t q = nrots; q-- > 0;) {
      CT* u = panel + static_cast<index_t>(rots[q].r) * kRowTile;
      CT* v = u + kRowTile;
      // The transposed rotation; local copies, since stores through u / v
      // may alias the log.
      const CT c = rots[q].c;
      const CT s = -rots[q].s;
      for (index_t j = 0; j < kRowTile; ++j) {
        const CT nu = c * u[j] + s * v[j];
        const CT nv = -s * u[j] + c * v[j];
        u[j] = nu;
        v[j] = nv;
      }
    }
    // unisvd-lint: end-kernel
  }, times);
  return 1;
}

}  // namespace unisvd::band
