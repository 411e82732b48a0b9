#pragma once
/// \file rot_batch.hpp
/// Cache-blocked, lane-contiguous Givens rotation batching for the Stage-2
/// accumulators.
///
/// The eager Stage-2 accumulator update mirrors every bulge-chase rotation
/// across the FULL accumulator row pair the moment it is generated: for an
/// n x n accumulator that is O(n) strided traffic per rotation and the
/// whole accumulator streams through cache once per rotation. The batch
/// replay instead buffers a wavefront of rotations (in generation order)
/// and applies the entire buffer to one 64-column accumulator panel at a
/// time, turning O(rots) full-matrix sweeps into O(rots / capacity) panel
/// passes.
///
/// Panel layout. The accumulators are column-major with rows = vectors. A
/// rotation of rows (r1, r2) updates the (r1, r2) pair of every column, and
/// along a row consecutive columns are `ld` apart, so in that layout the
/// update is strided and does not vectorize. For the length of one chase
/// the batch therefore re-lays every kColTile-column panel in place as
/// row-major. In column-major storage a panel is already the contiguous
/// rows x kColTile block at `data + p * kColTile * rows`, so the re-layout
/// is a transpose of that block through one rows x kColTile scratch; row i
/// of the panel becomes the contiguous run `panel + i * w` (w = the panel's
/// width, kColTile except for a ragged last panel). finish() restores
/// column-major, so no code outside this file sees the panel layout.
///
/// The replay kernel is rotation-outer and lane-inner: one workgroup per
/// panel, and for each buffered rotation one contiguous loop over the
/// panel's w columns. The columns are independent lanes, so that loop
/// vectorizes at the compiler's baseline ISA (and wider under -march);
/// there is no separate vector body.
///
/// Bit-identity with the eager path is structural, not approximate: a
/// Givens rotation of rows (r1, r2) touches each column independently, so
/// the value at (row, col) only depends on the sub-sequence of rotations
/// hitting that column — which the replay applies in exactly the original
/// order with exactly the per-element expression of apply_givens_rows
/// (common/givens_rows.hpp). Reordering across columns is invisible, and
/// the build forbids FMA contraction, so vector lanes round like scalar
/// code.
///
/// Every flush goes through ka::Backend::launch as a "stage2_rot_batch"
/// kernel (Stage::VectorAccumulation), so execution parallelizes across
/// panels on the CPU backends AND the launch shows up in trace streams /
/// the sim/ performance model like any other accumulator kernel. The
/// layout conversion is host code booked to the same AccTimer.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/error.hpp"
#include "common/givens_rows.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"

namespace unisvd::band {

/// Ordered buffer of Stage-2 mirror rotations with panel-wise replay. Owns
/// the accumulators' layout from construction until finish().
template <class CT>
class GivensBatch {
 public:
  /// Accumulator columns per panel (one replay workgroup each).
  static constexpr index_t kColTile = 64;

  enum class Side : std::uint8_t {
    Left,  ///< row rotation, mirrors onto Ut
    Right  ///< column rotation, mirrors onto Vt
  };

  /// `ut` / `vt` may be null individually (values-only never constructs a
  /// batch at all) and must otherwise be untransposed views with
  /// ld == rows (a whole Matrix); both are re-laid as row-major panels
  /// here. `capacity` is the total rotation count that triggers an
  /// automatic flush. The timer books re-layout and replay wall clock to
  /// the caller's Stage::VectorAccumulation share, matching the eager path.
  GivensBatch(ka::Backend& backend, MatrixView<CT>* ut, MatrixView<CT>* vt,
              index_t capacity, const AccTimer& timer)
      : backend_(backend),
        ut_(ut),
        vt_(vt),
        capacity_(capacity >= 1 ? capacity : 1),
        timer_(timer) {
    for (const MatrixView<CT>* m : {ut_, vt_}) {
      UNISVD_REQUIRE(m == nullptr || (!m->is_transposed() && m->ld() == m->rows()),
                     "GivensBatch: accumulators must be untransposed with ld == rows");
    }
    // The chase alternates sides, so each list holds about half a batch.
    const auto half = static_cast<std::size_t>(capacity_ / 2 + 1);
    left_.reserve(half);
    right_.reserve(half);
    timer_.timed([&] { relayout(/*to_panels=*/true); });
  }

  GivensBatch(const GivensBatch&) = delete;
  GivensBatch& operator=(const GivensBatch&) = delete;

  /// Buffer one rotation; flushes automatically at capacity.
  void push(Side side, index_t r1, index_t r2, CT c, CT s) {
    (side == Side::Left ? left_ : right_).push_back(Rot{r1, r2, c, s});
    if (static_cast<index_t>(left_.size() + right_.size()) >= capacity_) flush();
  }

  /// Flush, then restore the accumulators to column-major. Call exactly
  /// once, after the last push and before anything reads the accumulators.
  void finish() {
    flush();
    timer_.timed([&] { relayout(/*to_panels=*/false); });
  }

  [[nodiscard]] index_t flushes() const noexcept { return flushes_; }

 private:
  struct Rot {
    index_t r1;
    index_t r2;
    CT c;
    CT s;
  };

  /// Replay every buffered rotation onto the panel-laid accumulators, in
  /// order.
  void flush() {
    if (left_.empty() && right_.empty()) return;
    timer_.timed([&] {
      if (ut_ != nullptr) replay(*ut_, left_);
      if (vt_ != nullptr) replay(*vt_, right_);
    });
    left_.clear();
    right_.clear();
    ++flushes_;
  }

  /// Transpose every panel of both accumulators in place: column-major
  /// (panel[i + jj * rows]) to row-major (panel[i * w + jj]) when
  /// `to_panels`, and back otherwise.
  void relayout(bool to_panels) {
    for (const MatrixView<CT>* m : {ut_, vt_}) {
      if (m == nullptr) continue;
      const index_t r = m->rows();
      Matrix<CT> scratch(r, std::min(kColTile, m->cols()));
      CT* tmp = scratch.data();
      for (index_t j0 = 0; j0 < m->cols(); j0 += kColTile) {
        const index_t w = std::min(kColTile, m->cols() - j0);
        CT* panel = m->data() + j0 * r;
        std::copy(panel, panel + r * w, tmp);
        if (to_panels) {
          for (index_t i = 0; i < r; ++i) {
            for (index_t jj = 0; jj < w; ++jj) panel[i * w + jj] = tmp[i + jj * r];
          }
        } else {
          for (index_t jj = 0; jj < w; ++jj) {
            for (index_t i = 0; i < r; ++i) panel[i + jj * r] = tmp[i * w + jj];
          }
        }
      }
    }
  }

  void replay(MatrixView<CT> m, const std::vector<Rot>& rots) {
    if (rots.empty()) return;

    const index_t nrows = m.rows();
    const index_t ncols = m.cols();
    const double dcols = static_cast<double>(ncols);
    const double drots = static_cast<double>(rots.size());
    ka::LaunchDesc desc;
    desc.name = "stage2_rot_batch";
    desc.stage = ka::Stage::VectorAccumulation;
    desc.num_groups = (ncols + kColTile - 1) / kColTile;
    desc.group_size = static_cast<int>(kColTile);
    desc.precision = precision_of<CT>;
    desc.cost.flops = 6.0 * drots * dcols;
    // Blocked replay streams each accumulator element through cache at
    // most once per flush: traffic is the smaller of per-rotation row
    // pairs and the full accumulator footprint.
    const double touched =
        std::min(2.0 * drots, static_cast<double>(nrows)) * dcols *
        static_cast<double>(sizeof(CT));
    desc.cost.bytes_read = touched;
    desc.cost.bytes_written = touched;
    desc.cost.serial_iterations = drots;

    backend_.launch(desc, [&](ka::WorkGroupCtx& wg) {
      const index_t j0 = wg.group_id() * kColTile;
      const index_t w = std::min(kColTile, ncols - j0);
      CT* panel = m.data() + j0 * nrows;
      // unisvd-lint: begin-kernel(stage2-rot-batch)
      // Lanes are the panel's columns: row r of the panel is the
      // contiguous run panel[r * w, r * w + w).
      for (const Rot& r : rots) {
        CT* u = panel + r.r1 * w;
        CT* v = panel + r.r2 * w;
        // Local copies: stores through u / v may alias r.c and r.s.
        const CT c = r.c;
        const CT s = r.s;
        for (index_t j = 0; j < w; ++j) {
          const CT nu = c * u[j] + s * v[j];
          const CT nv = -s * u[j] + c * v[j];
          u[j] = nu;
          v[j] = nv;
        }
      }
      // unisvd-lint: end-kernel
    });
  }

  ka::Backend& backend_;
  MatrixView<CT>* ut_;
  MatrixView<CT>* vt_;
  index_t capacity_;
  AccTimer timer_;
  std::vector<Rot> left_;   ///< buffered Side::Left rotations, in order
  std::vector<Rot> right_;  ///< buffered Side::Right rotations, in order
  index_t flushes_ = 0;
};

}  // namespace unisvd::band
