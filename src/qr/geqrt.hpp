#pragma once
/// \file geqrt.hpp
/// GEQRT: in-place Householder QR of one diagonal tile (paper Algorithm 3).
///
/// One workgroup of TILESIZE x SPLITK work-items factors a TILESIZE x
/// TILESIZE tile in place. Each work-item keeps a segment of one tile
/// column in private ("register") memory; for every reflector k the owner
/// column is staged through local memory, its tail norm and the per-column
/// dot products are formed (split SPLITK ways and reduced through local
/// memory), and every remaining column applies the reflector to its own
/// registers. On exit the tile holds R in its upper triangle and the
/// normalized Householder tails v (v[k] = 1 implicit) below the diagonal;
/// tau_hat (H = I - tau_hat * v * v^T) is written to the Tau row.
///
/// The |x| < 10*eps branch is the small-reflector guard of Algorithm 3
/// lines 14-15. With SPLITK = 1 this is literally Algorithm 3; SPLITK > 1
/// executes the same updates with each column's reductions split across
/// SPLITK work-items (a purely computational re-decomposition, paper §3.2).

#include <algorithm>
#include <cmath>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"

namespace unisvd::qr {

/// Factor tile (row0, k) of the working view W. Tau row `row0` receives the
/// tau_hat coefficients. W may be a lazy-transposed view (LQ sweeps).
template <class T>
void geqrt(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           MatrixView<T> Tau, const KernelConfig& cfg,
           ka::StageTimes* times = nullptr) {
  using CT = compute_t<T>;
  const int ts = cfg.tilesize;
  const int sk = cfg.splitk;
  const int seg = ts / sk;
  const index_t rbase = row0 * ts;
  const index_t cbase = k * ts;

  ka::LaunchDesc desc;
  desc.name = "geqrt";
  desc.stage = ka::Stage::PanelFactorization;
  desc.num_groups = 1;
  desc.group_size = ts * sk;
  desc.local_bytes = static_cast<std::size_t>(3 * ts + ts * sk + sk + 2) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(seg + 2) * sizeof(CT);
  desc.precision = precision_of<T>;
  desc.cost.flops = cost::geqrt_flops(ts);
  desc.cost.bytes_read = cost::geqrt_bytes_r(ts, sizeof(T));
  desc.cost.bytes_written = cost::geqrt_bytes_w(ts, sizeof(T));
  desc.cost.serial_iterations = 3.0 * ts;

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(geqrt)
    auto Ai = wg.priv<CT>(static_cast<std::size_t>(seg));
    auto Ak = wg.local<CT>(static_cast<std::size_t>(ts));
    auto rowk = wg.local<CT>(static_cast<std::size_t>(ts));
    auto tauv = wg.local<CT>(static_cast<std::size_t>(ts));
    auto partials = wg.local<CT>(static_cast<std::size_t>(ts) * sk);
    auto normp = wg.local<CT>(static_cast<std::size_t>(sk));

    // Load: every work-item fetches its column segment into registers.
    wg.items([&](int t) {
      const int i = t % ts;
      const int s = t / ts;
      const int r0 = s * seg;
      auto a = Ai(t);
      for (int r = 0; r < seg; ++r) {
        a[r] = static_cast<CT>(W.at(rbase + r0 + r, cbase + i));
      }
      if (s == 0) tauv[i] = CT(0);
    });

    for (int kk = 0; kk + 1 < ts; ++kk) {
      const int owner = kk / seg;  // split segment holding row kk

      // Stage column kk into local memory; tail-norm partials per segment.
      wg.items([&](int t) {
        const int i = t % ts;
        const int s = t / ts;
        if (i != kk) return;
        const int r0 = s * seg;
        auto a = Ai(t);
        CT np = CT(0);
        for (int r = 0; r < seg; ++r) {
          Ak[r0 + r] = a[r];
          if (r0 + r > kk) np += a[r] * a[r];
        }
        normp[s] = np;
      });

      // Partial dot products of every remaining column with the staged
      // column tail; publish the row-kk element of every column.
      wg.items([&](int t) {
        const int i = t % ts;
        const int s = t / ts;
        if (i < kk) return;
        const int r0 = s * seg;
        auto a = Ai(t);
        CT p = CT(0);
        for (int r = 0; r < seg; ++r) {
          if (r0 + r > kk) p += a[r] * Ak[r0 + r];
        }
        partials[static_cast<std::size_t>(i) * sk + s] = p;
        if (s == owner) rowk[i] = a[kk - r0];
      });

      // Reflector scalars (redundantly per item, from shared reductions)
      // and the register-resident column update.
      wg.items([&](int t) {
        const int i = t % ts;
        const int s = t / ts;
        if (i < kk) return;
        const int r0 = s * seg;
        CT nrm = CT(0);
        for (int q = 0; q < sk; ++q) nrm += normp[q];
        CT rho = CT(0);
        for (int q = 0; q < sk; ++q) {
          rho += partials[static_cast<std::size_t>(i) * sk + q];
        }
        const CT akk = Ak[kk];
        const CT r = std::sqrt(akk * akk + nrm);
        CT x = (akk < CT(0)) ? akk - r : akk + r;
        CT tau;
        CT rho2;
        const CT guard = CT(10) * compute_eps<CT>();
        // Small-reflector guard (Algorithm 3 lines 14-15). The column is
        // numerically zero, so the stored reflector is the exact orthogonal
        // sign flip H = I - 2 e_k e_k^T: tail v = 0, tau_hat = 2. (Dividing
        // the ~eps tail by the guard would store a non-unit v with tau = 2 —
        // a non-orthogonal H, invisible to singular values but poisonous to
        // the accumulated singular vectors.)
        const bool negligible = std::abs(x) < guard;
        if (negligible) {
          x = guard;
          tau = CT(2);
          rho2 = CT(2) * rowk[i];
        } else {
          tau = CT(2) * x * x / (x * x + nrm);
          rho2 = (tau / x) * (rowk[i] * x + rho);
        }
        auto a = Ai(t);
        // The r0 + rr > kk guard selects a contiguous suffix of the segment.
        const int rr0 = std::clamp(kk - r0 + 1, 0, seg);
        if (i == kk) {
          if (s == 0) tauv[kk] = tau;
          if (negligible) {
            for (int rr = rr0; rr < seg; ++rr) a[rr] = CT(0);
          } else {
            for (int rr = rr0; rr < seg; ++rr) a[rr] /= x;
          }
        } else if (!negligible) {
          for (int rr = rr0; rr < seg; ++rr) a[rr] -= rho2 * (Ak[r0 + rr] / x);
        }
        if (s == owner) a[kk - r0] = rowk[i] - rho2;  // row kk of R
      });
    }

    // Write-back: tile (R upper, v tails lower) and tau_hat.
    wg.items([&](int t) {
      const int i = t % ts;
      const int s = t / ts;
      const int r0 = s * seg;
      auto a = Ai(t);
      for (int r = 0; r < seg; ++r) {
        W.at(rbase + r0 + r, cbase + i) = static_cast<T>(a[r]);
      }
      if (s == 0) Tau.at(row0, i) = static_cast<T>(tauv[i]);
    });
    // unisvd-lint: end-kernel
  }, times);
}

}  // namespace unisvd::qr
