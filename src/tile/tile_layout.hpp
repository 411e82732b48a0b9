#pragma once
/// \file tile_layout.hpp
/// Tiling of an n x n matrix into square TILESIZE tiles.

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace unisvd::tile {

/// Square tile decomposition. The working matrix is padded so that its
/// extent is an exact multiple of the tile size (padding columns/rows are
/// zero, contributing only zero singular values which the pipeline drops).
struct TileLayout {
  index_t n = 0;        ///< working (padded) matrix extent
  int ts = 0;           ///< tile size (the paper's TILESIZE)
  index_t ntiles = 0;   ///< tiles per side

  static TileLayout make(index_t n_logical, int ts) {
    UNISVD_REQUIRE(n_logical >= 1, "TileLayout: matrix extent must be positive");
    UNISVD_REQUIRE(ts >= 2, "TileLayout: tile size must be at least 2");
    TileLayout out;
    out.ts = ts;
    out.ntiles = (n_logical + ts - 1) / ts;
    out.n = out.ntiles * ts;
    return out;
  }
};

}  // namespace unisvd::tile
