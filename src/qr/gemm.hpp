#pragma once
/// \file gemm.hpp
/// The library's one GEMM: c = a * b / scale through one ka:: launch, summed
/// in the compute precision CT.
///
/// Two callers. A divide-and-conquer merge composes its arrow-frame vectors
/// with both children's factors in double (LAPACK dlasd3's
/// back-multiplication) and launches once per side over both children's
/// products. The randomized range finder (src/rsvd) forms its sketch,
/// power-iteration and projection products and composes U in
/// compute_t<T>. Each caller names its launches and picks their stage.
///
/// Grid: one workgroup per 128 x 64 cache block of C; 32 x 16 work-items
/// per group, each owning one 4 x 4 register tile of the block. Per
/// 256-deep chunk of the inner dimension the group packs its A rows and B
/// columns into 4-wide slivers in local memory, converting each element
/// once to CT, so the operands may be any views: any storage type, plain
/// or lazily transposed. Every work-item then runs its tile over the chunk.
/// The tile is a plain loop that the compiler keeps in registers and
/// vectorizes for the build's ISA (at the x86-64 baseline in double: 8
/// mulpd + 8 addpd per inner index, no spills).
///
/// Bits: every output element is summed by one work-item in ascending
/// inner index, starting from +0, with each product rounded before its add
/// (the build pins -ffp-contract=off). The sum is then divided by the scale
/// in CT (skipped when the scale is 1) and rounded once into C's type. The
/// result is therefore that of the plain loop `c = 0; for (j) c += a(r, j)
/// * b(j, c)` followed by that epilogue, on every backend, pool width and
/// ISA, and also of that loop with zero weights skipped (a ±0 term never
/// changes a sum of finite values that starts at +0).

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/launch.hpp"
#include "ka/stage_times.hpp"

namespace unisvd::qr {

/// One product of a gemm launch: c = a * b / scale. a is m x k, b is k x n
/// and c is m x n, overwritten; any of them may be lazily transposed.
template <class TA, class TB, class TC>
struct GemmProduct {
  ConstMatrixView<TA> a;
  ConstMatrixView<TB> b;
  MatrixView<TC> c;
};

/// How a gemm launch is reported and scaled: its kernel name and stage,
/// the StageTimes that receive its wall time (none when null), and the
/// divisor of every product.
struct GemmLaunch {
  const char* name;
  ka::Stage stage;
  ka::StageTimes* times = nullptr;
  double scale = 1.0;
};

namespace detail {

/// Rows and columns of the cache block of C one workgroup owns, and the
/// inner-dimension depth of one packed chunk.
inline constexpr index_t kGemmBlockRows = 128;
inline constexpr index_t kGemmBlockCols = 64;
inline constexpr index_t kGemmDepth = 256;
inline constexpr int kTile = 4;  ///< register tile edge
inline constexpr int kTiles = kTile * kTile;
inline constexpr int kSliversA = static_cast<int>(kGemmBlockRows) / kTile;
inline constexpr int kSliversB = static_cast<int>(kGemmBlockCols) / kTile;
static_assert(kGemmBlockRows % kTile == 0 && kGemmBlockCols % kTile == 0);

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// An operand's element (i, j) sits at data[i * rs + j * cs]; one of the
/// two strides is 1.
template <class T>
struct Strided {
  const T* data;
  index_t rs;
  index_t cs;
};

template <class T>
Strided<T> strided(ConstMatrixView<T> v) {
  return v.is_transposed() ? Strided<T>{v.data(), v.ld(), 1}
                           : Strided<T>{v.data(), 1, v.ld()};
}

/// dst[kk * kTile + i] = x(r0 + i, k0 + kk) in CT for i < rows and kk < kc;
/// rows [rows, kTile) pack as zeros. The walk follows x's contiguous
/// direction.
template <class CT, class T>
void pack_sliver(CT* dst, const Strided<T>& x, index_t r0, index_t rows, index_t k0,
                 index_t kc) {
  for (index_t kk = 0; kk < kc; ++kk) {
    for (index_t i = rows; i < kTile; ++i) dst[kk * kTile + i] = CT(0);
  }
  const T* src = x.data + r0 * x.rs + k0 * x.cs;
  if (x.rs == 1) {
    for (index_t kk = 0; kk < kc; ++kk) {
      for (index_t i = 0; i < rows; ++i) {
        dst[kk * kTile + i] = static_cast<CT>(src[i + kk * x.cs]);
      }
    }
  } else {
    for (index_t i = 0; i < rows; ++i) {
      for (index_t kk = 0; kk < kc; ++kk) {
        dst[kk * kTile + i] = static_cast<CT>(src[i * x.rs + kk]);
      }
    }
  }
}

}  // namespace detail

/// The launch descriptor of gemm<CT> over `products`, named and staged as
/// `launch` says: one group per cache block of every product, and a
/// KernelCost of 2mnk flops with A re-read once per column block, B once
/// per row block and C written once; serial_iterations counts k-chunks.
template <class CT, class TA, class TB, class TC>
[[nodiscard]] ka::LaunchDesc gemm_desc(std::span<const GemmProduct<TA, TB, TC>> products,
                                       const GemmLaunch& launch) {
  using namespace detail;
  ka::LaunchDesc desc;
  desc.name = launch.name;
  desc.stage = launch.stage;
  desc.num_groups = 0;
  desc.group_size = kSliversA * kSliversB;
  desc.local_bytes =
      static_cast<std::size_t>(kGemmBlockRows + kGemmBlockCols) * kGemmDepth * sizeof(CT);
  desc.private_bytes_per_item = kTiles * sizeof(CT);
  desc.precision = precision_of<CT>;
  for (const auto& pr : products) {
    const index_t m = pr.a.rows();
    const index_t k = pr.a.cols();
    const index_t n = pr.b.cols();
    const index_t row_blocks = ceil_div(m, kGemmBlockRows);
    const index_t col_blocks = ceil_div(n, kGemmBlockCols);
    desc.num_groups += row_blocks * col_blocks;
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    const double dn = static_cast<double>(n);
    desc.cost.flops += 2.0 * dm * dn * dk;
    desc.cost.bytes_read += static_cast<double>(col_blocks) * dm * dk * sizeof(TA) +
                            static_cast<double>(row_blocks) * dk * dn * sizeof(TB);
    desc.cost.bytes_written += dm * dn * sizeof(TC);
    desc.cost.serial_iterations = std::max(
        desc.cost.serial_iterations, static_cast<double>(ceil_div(k, kGemmDepth)));
  }
  return desc;
}

/// Every product's c = a * b / launch.scale in one launch. The c views
/// must not overlap each other or any a or b. k = 0 writes zeros.
template <class CT, class TA, class TB, class TC>
void gemm(ka::Backend& be, std::span<const GemmProduct<TA, TB, TC>> products,
          const GemmLaunch& launch) {
  using namespace detail;
  // Product p owns groups [first[p], first[p + 1]), column-block major.
  std::vector<index_t> first(products.size() + 1, 0);
  for (std::size_t p = 0; p < products.size(); ++p) {
    const GemmProduct<TA, TB, TC>& pr = products[p];
    UNISVD_REQUIRE(pr.b.rows() == pr.a.cols() && pr.c.rows() == pr.a.rows() &&
                       pr.c.cols() == pr.b.cols(),
                   "gemm: extents differ");
    first[p + 1] = first[p] + ceil_div(pr.a.rows(), kGemmBlockRows) *
                                  ceil_div(pr.b.cols(), kGemmBlockCols);
  }
  const bool divide = launch.scale != 1.0;
  const auto s = static_cast<CT>(launch.scale);

  ka::timed_launch(be, gemm_desc<CT>(products, launch), [&](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(gemm)
    // Sliver s of apack holds block rows [4s, 4s + 4) of one k-chunk, the
    // four entries of each inner index adjacent; bpack likewise holds four
    // block columns per sliver. Rows and columns past the product's edge
    // pack as zeros and their tile entries are never stored.
    auto apack = wg.local<CT>(static_cast<std::size_t>(kGemmBlockRows * kGemmDepth));
    auto bpack = wg.local<CT>(static_cast<std::size_t>(kGemmDepth * kGemmBlockCols));
    auto acc = wg.priv<CT>(kTiles);

    const index_t g = wg.group_id();
    std::size_t p = 0;
    while (g >= first[p + 1]) ++p;
    const GemmProduct<TA, TB, TC>& pr = products[p];
    const index_t m = pr.a.rows();
    const index_t k = pr.a.cols();
    const index_t n = pr.b.cols();
    const index_t row_blocks = ceil_div(m, kGemmBlockRows);
    const index_t i0 = ((g - first[p]) % row_blocks) * kGemmBlockRows;
    const index_t j0 = ((g - first[p]) / row_blocks) * kGemmBlockCols;
    const int mt = static_cast<int>(ceil_div(std::min(kGemmBlockRows, m - i0), kTile));
    const int nt = static_cast<int>(ceil_div(std::min(kGemmBlockCols, n - j0), kTile));
    const Strided<TA> a = strided(pr.a);
    const Strided<TB> bt = strided(pr.b.transposed());

    wg.items([&](int it) {
      for (CT& x : acc(it)) x = CT(0);
    });
    for (index_t k0 = 0; k0 < k; k0 += kGemmDepth) {
      const index_t kc = std::min(kGemmDepth, k - k0);
      wg.items([&](int it) {
        if (it < mt) {
          const index_t r0 = i0 + static_cast<index_t>(it) * kTile;
          pack_sliver(apack.data() + static_cast<std::size_t>(it) * kTile * kGemmDepth, a,
                      r0, std::min<index_t>(kTile, m - r0), k0, kc);
        } else if (it < mt + nt) {
          const index_t c0 = j0 + static_cast<index_t>(it - mt) * kTile;
          pack_sliver(bpack.data() + static_cast<std::size_t>(it - mt) * kTile * kGemmDepth,
                      bt, c0, std::min<index_t>(kTile, n - c0), k0, kc);
        }
      });
      // Tile rows vary fastest, so one B sliver stays in L1 while the A
      // slivers stream past it.
      wg.items([&](int it) {
        if (it >= mt * nt) return;
        const CT* __restrict as =
            apack.data() + static_cast<std::size_t>(it % mt) * kTile * kGemmDepth;
        const CT* __restrict bs =
            bpack.data() + static_cast<std::size_t>(it / mt) * kTile * kGemmDepth;
        CT* __restrict c = acc(it).data();
        CT t[kTiles];
        for (int x = 0; x < kTiles; ++x) t[x] = c[x];
        for (index_t kk = 0; kk < kc; ++kk) {
          const CT* ak = as + kk * kTile;
          const CT* bk = bs + kk * kTile;
          for (int j = 0; j < kTile; ++j) {
            for (int i = 0; i < kTile; ++i) t[j * kTile + i] += ak[i] * bk[j];
          }
        }
        for (int x = 0; x < kTiles; ++x) c[x] = t[x];
      });
    }
    wg.items([&](int it) {
      if (it >= mt * nt) return;
      const index_t r0 = i0 + static_cast<index_t>(it % mt) * kTile;
      const index_t c0 = j0 + static_cast<index_t>(it / mt) * kTile;
      const index_t rows = std::min<index_t>(kTile, m - r0);
      const index_t cols = std::min<index_t>(kTile, n - c0);
      const CT* t = acc(it).data();
      for (index_t j = 0; j < cols; ++j) {
        for (index_t i = 0; i < rows; ++i) {
          const CT v = t[j * kTile + i];
          pr.c(r0 + i, c0 + j) = static_cast<TC>(divide ? v / s : v);
        }
      }
    });
    // unisvd-lint: end-kernel
  }, launch.times);
}

/// gemm over one product.
template <class CT, class TA, class TB, class TC>
void gemm(ka::Backend& be, const GemmProduct<TA, TB, TC>& product,
          const GemmLaunch& launch) {
  gemm<CT>(be, std::span<const GemmProduct<TA, TB, TC>>(&product, 1), launch);
}

}  // namespace unisvd::qr
