/// \file gemm.cpp
/// The D&C composition GEMM kernel. See gemm.hpp for the grid and the bits.

#include "dc/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "ka/launch.hpp"

namespace unisvd::dc {
namespace {

/// Rows and columns of the cache block of C one workgroup owns, and the
/// inner-dimension depth of one packed chunk.
constexpr index_t kGemmBlockRows = 128;
constexpr index_t kGemmBlockCols = 64;
constexpr index_t kGemmDepth = 256;
constexpr int kTile = 4;  ///< register tile edge
constexpr int kTiles = kTile * kTile;
constexpr int kSliversA = static_cast<int>(kGemmBlockRows) / kTile;
constexpr int kSliversB = static_cast<int>(kGemmBlockCols) / kTile;
static_assert(kGemmBlockRows % kTile == 0 && kGemmBlockCols % kTile == 0);

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

}  // namespace

void gemm(ka::Backend& be, std::span<const GemmProduct> products) {
  // Product p owns groups [first[p], first[p + 1]), column-block major.
  std::vector<index_t> first(products.size() + 1, 0);
  ka::LaunchDesc desc;
  desc.name = "dc_gemm";
  desc.stage = ka::Stage::BidiagonalToDiagonal;
  desc.group_size = kSliversA * kSliversB;
  desc.local_bytes = static_cast<std::size_t>(kGemmBlockRows + kGemmBlockCols) *
                     kGemmDepth * sizeof(double);
  desc.private_bytes_per_item = kTiles * sizeof(double);
  desc.precision = Precision::FP64;
  for (std::size_t p = 0; p < products.size(); ++p) {
    const GemmProduct& pr = products[p];
    UNISVD_REQUIRE(!pr.a.is_transposed() && !pr.b.is_transposed() &&
                       !pr.c.is_transposed(),
                   "dc::gemm: views must be column-major");
    const index_t m = pr.a.rows();
    const index_t k = pr.a.cols();
    const index_t n = pr.b.cols();
    UNISVD_REQUIRE(pr.b.rows() == k && pr.c.rows() == m && pr.c.cols() == n,
                   "dc::gemm: extents differ");
    const index_t row_blocks = ceil_div(m, kGemmBlockRows);
    const index_t col_blocks = ceil_div(n, kGemmBlockCols);
    first[p + 1] = first[p] + row_blocks * col_blocks;
    const double dm = static_cast<double>(m);
    const double dk = static_cast<double>(k);
    const double dn = static_cast<double>(n);
    desc.cost.flops += 2.0 * dm * dn * dk;
    desc.cost.bytes_read +=
        (static_cast<double>(col_blocks) * dm * dk +
         static_cast<double>(row_blocks) * dk * dn) * sizeof(double);
    desc.cost.bytes_written += dm * dn * sizeof(double);
    desc.cost.serial_iterations =
        std::max(desc.cost.serial_iterations,
                 static_cast<double>(ceil_div(k, kGemmDepth)));
  }
  desc.num_groups = first.back();

  be.launch(desc, [&](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(dc-gemm)
    // Sliver s of apack holds block rows [4s, 4s + 4) of one k-chunk, the
    // four entries of each inner index adjacent; bpack likewise holds four
    // block columns per sliver. Rows and columns past the product's edge
    // pack as zeros and their tile entries are never stored.
    auto apack = wg.local<double>(static_cast<std::size_t>(kGemmBlockRows * kGemmDepth));
    auto bpack = wg.local<double>(static_cast<std::size_t>(kGemmDepth * kGemmBlockCols));
    auto acc = wg.priv<double>(kTiles);

    const index_t g = wg.group_id();
    std::size_t p = 0;
    while (g >= first[p + 1]) ++p;
    const GemmProduct& pr = products[p];
    const index_t m = pr.a.rows();
    const index_t k = pr.a.cols();
    const index_t n = pr.b.cols();
    const index_t row_blocks = ceil_div(m, kGemmBlockRows);
    const index_t i0 = ((g - first[p]) % row_blocks) * kGemmBlockRows;
    const index_t j0 = ((g - first[p]) / row_blocks) * kGemmBlockCols;
    const int mt = static_cast<int>(ceil_div(std::min(kGemmBlockRows, m - i0), kTile));
    const int nt = static_cast<int>(ceil_div(std::min(kGemmBlockCols, n - j0), kTile));
    const double* const a = pr.a.data();
    const double* const b = pr.b.data();
    const index_t lda = pr.a.ld();
    const index_t ldb = pr.b.ld();

    wg.items([&](int it) {
      for (double& x : acc(it)) x = 0.0;
    });
    for (index_t k0 = 0; k0 < k; k0 += kGemmDepth) {
      const index_t kc = std::min(kGemmDepth, k - k0);
      wg.items([&](int it) {
        if (it < mt) {
          double* dst = apack.data() + static_cast<std::size_t>(it) * kTile * kGemmDepth;
          const index_t r0 = i0 + static_cast<index_t>(it) * kTile;
          const index_t rows = std::min<index_t>(kTile, m - r0);
          for (index_t kk = 0; kk < kc; ++kk) {
            const double* src = a + r0 + (k0 + kk) * lda;
            for (index_t i = 0; i < kTile; ++i) dst[kk * kTile + i] = i < rows ? src[i] : 0.0;
          }
        } else if (it < mt + nt) {
          double* dst =
              bpack.data() + static_cast<std::size_t>(it - mt) * kTile * kGemmDepth;
          const index_t c0 = j0 + static_cast<index_t>(it - mt) * kTile;
          for (index_t j = 0; j < kTile; ++j) {
            const double* src = b + k0 + (c0 + j) * ldb;
            const bool inside = c0 + j < n;
            for (index_t kk = 0; kk < kc; ++kk) dst[kk * kTile + j] = inside ? src[kk] : 0.0;
          }
        }
      });
      // Tile rows vary fastest, so one B sliver stays in L1 while the A
      // slivers stream past it.
      wg.items([&](int it) {
        if (it >= mt * nt) return;
        const double* __restrict as =
            apack.data() + static_cast<std::size_t>(it % mt) * kTile * kGemmDepth;
        const double* __restrict bs =
            bpack.data() + static_cast<std::size_t>(it / mt) * kTile * kGemmDepth;
        double* __restrict c = acc(it).data();
        double t[kTiles];
        for (int x = 0; x < kTiles; ++x) t[x] = c[x];
        for (index_t kk = 0; kk < kc; ++kk) {
          const double* ak = as + kk * kTile;
          const double* bk = bs + kk * kTile;
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
      const double* t = acc(it).data();
      for (index_t j = 0; j < cols; ++j) {
        for (index_t i = 0; i < rows; ++i) pr.c(r0 + i, c0 + j) = t[j * kTile + i];
      }
    });
    // unisvd-lint: end-kernel
  });
}

}  // namespace unisvd::dc
