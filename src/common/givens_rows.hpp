#pragma once
/// \file givens_rows.hpp
/// Shared Givens plane-rotation application for the transposed factor
/// accumulators (Ut / Vt, rows = singular vectors): the Stage-3 QR
/// iteration and D&C's leaf solver mirror their rotations through this ONE
/// helper, and it is the eager reference of the Stage-2 reverse replay
/// (band/rot_batch.hpp).

#include "common/matrix.hpp"

namespace unisvd {

/// Apply the rotation pair (c, s) to full rows (r1, r2) of `m`:
/// row r1 <- c*r1 + s*r2, row r2 <- -s*r1 + c*r2.
template <class AT>
void apply_givens_rows(MatrixView<AT> m, index_t r1, index_t r2, AT c, AT s) {
  for (index_t j = 0; j < m.cols(); ++j) {
    AT& u = m.at(r1, j);
    AT& v = m.at(r2, j);
    const AT nu = c * u + s * v;
    const AT nv = -s * u + c * v;
    u = nu;
    v = nv;
  }
}

}  // namespace unisvd
