#pragma once
/// \file gemm.hpp
/// The D&C composition GEMM: C = A * B in double through one ka:: launch.
///
/// A divide-and-conquer merge composes its arrow-frame vectors with both
/// children's factors (LAPACK dlasd3's back-multiplication), and that
/// product is the merge's cost. `gemm` runs a list of such products in ONE
/// launch whose grid covers all of them, so a merge launches once per side.
///
/// Grid: one workgroup per 128 x 64 cache block of C; 32 x 16 work-items
/// per group, each owning one 4 x 4 register tile of the block. Per
/// 256-deep chunk of the inner dimension the group packs its A rows and B
/// columns into 4-wide slivers in local memory, then every work-item runs
/// its tile over the chunk. The tile is a plain loop that the compiler
/// keeps in registers and vectorizes for the build's ISA (at the x86-64
/// baseline: 8 mulpd + 8 addpd per inner index, no spills).
///
/// Bits: every output element is summed by one work-item in ascending
/// inner index, starting from +0, with each product rounded before its add
/// (the build pins -ffp-contract=off). The result is therefore that of the
/// plain loop `c = 0; for (j) c += a(r, j) * b(j, c)`, on every backend,
/// pool width and ISA, and also of that loop with zero weights skipped
/// (a ±0 term never changes a sum of finite values that starts at +0).

#include <span>

#include "common/matrix.hpp"
#include "ka/backend.hpp"

namespace unisvd::dc {

/// One product of a `gemm` launch: c = a * b. Column-major (untransposed)
/// views; a is m x k, b is k x n, c is m x n and is overwritten.
struct GemmProduct {
  ConstMatrixView<double> a;
  ConstMatrixView<double> b;
  MatrixView<double> c;
};

/// Every product's c = a * b in one launch ("dc_gemm", stage
/// BidiagonalToDiagonal, no StageTimes). The c views must not overlap each
/// other or any a or b. k = 0 writes zeros.
void gemm(ka::Backend& be, std::span<const GemmProduct> products);

}  // namespace unisvd::dc
