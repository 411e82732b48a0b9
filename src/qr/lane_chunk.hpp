#pragma once
/// \file lane_chunk.hpp
/// The lane chunk shared by the UNMQR and TSMQR kernel bodies.
///
/// Both kernels give each work-item one column of a tile row. On the CPU a
/// group's work-items run as the lanes of one loop, kLaneChunk columns at a
/// time: the chunk is staged transposed into a ts x kLaneChunk local tile
/// (row r at `tile + r * kLaneChunk`), so every reflector step walks the
/// lanes contiguously and the compiler vectorizes it for the build's ISA.
/// stage_column reads one reflector column in place or stages it.

#include <type_traits>

#include "common/matrix.hpp"

namespace unisvd::qr {

/// Columns one chunk carries as lanes. 32 lanes fill whole vectors at every
/// ISA and precision in use (SSE2 to AVX-512, FP32 and FP64). It is one
/// constant for both precisions on purpose: GCC fully unrolls a 16-double
/// chunk before its loop vectorizer runs, and the unrolled scalar code is
/// several times slower.
inline constexpr int kLaneChunk = 32;

// unisvd-lint: begin-kernel(lane-chunk)
/// Stage rows [r0, r0 + ts) of columns [c0, c0 + ncb) of C into `tile`,
/// zeroing the pad lanes [ncb, kLaneChunk). C is read along its contiguous
/// direction: walking a column-major C row by row touches kLaneChunk cache
/// lines one leading dimension apart, which share a few L1 sets and evict
/// each other before the next row reuses them.
template <class CT, class TA>
void load_chunk(CT* tile, MatrixView<TA> C, index_t r0, index_t c0, int ts,
                int ncb) {
  constexpr int W = kLaneChunk;
  for (int r = 0; r < ts; ++r) {
    for (int j = ncb; j < W; ++j) tile[r * W + j] = CT(0);
  }
  if (C.is_transposed()) {
    for (int r = 0; r < ts; ++r) {
      for (int j = 0; j < ncb; ++j) {
        tile[r * W + j] = static_cast<CT>(C.at(r0 + r, c0 + j));
      }
    }
  } else {
    for (int j = 0; j < ncb; ++j) {
      const TA* col = &C.at(r0, c0 + j);
      for (int r = 0; r < ts; ++r) tile[r * W + j] = static_cast<CT>(col[r]);
    }
  }
}

/// Write the first ncb lanes of `tile` back to C: the inverse of
/// load_chunk, with the same walk order.
template <class CT, class TA>
void store_chunk(MatrixView<TA> C, const CT* tile, index_t r0, index_t c0,
                 int ts, int ncb) {
  constexpr int W = kLaneChunk;
  if (C.is_transposed()) {
    for (int r = 0; r < ts; ++r) {
      for (int j = 0; j < ncb; ++j) {
        C.at(r0 + r, c0 + j) = static_cast<TA>(tile[r * W + j]);
      }
    }
  } else {
    for (int j = 0; j < ncb; ++j) {
      TA* col = &C.at(r0, c0 + j);
      for (int r = 0; r < ts; ++r) col[r] = static_cast<TA>(tile[r * W + j]);
    }
  }
}

/// Rows [from, len) of column c of the row block starting at r0 of V, in
/// compute type CT: a pointer into V itself when that column is contiguous
/// and already of type CT, else `buf` (indexed from row r0) after staging
/// those rows into it.
template <class CT, class TS>
const CT* stage_column(MatrixView<TS> V, index_t r0, index_t c, int from, int len,
                       CT* buf) {
  if constexpr (std::is_same_v<TS, CT>) {
    if (!V.is_transposed()) return &V.at(r0, c);
  }
  for (int idx = from; idx < len; ++idx) {
    buf[idx] = static_cast<CT>(V.at(r0 + idx, c));
  }
  return buf;
}
// unisvd-lint: end-kernel

}  // namespace unisvd::qr
