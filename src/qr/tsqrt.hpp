#pragma once
/// \file tsqrt.hpp
/// TSQRT / FTSQRT: triangle-on-top-of-square QR panel annihilation.
///
/// Jointly factors the R tile produced by GEQRT (tile (row0, k)) with a
/// column of square tiles below it, annihilating them. The Householder
/// vector of reflector kk is [e_kk (R part); b/x (full B column)]; the B
/// tile ends up holding the normalized tails, R's upper triangle is
/// updated in place (row kk per reflector), and tau_hat goes to Tau row l.
///
/// The *fused* form (paper Figure 2, FTSQRT) processes all tile rows
/// [lbegin, lend) in ONE launch: R stays in registers across rows; the
/// per-row launch of the classic schedule is the nrows == 1 special case.

#include <cmath>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"
#include "qr/kernel_config.hpp"

namespace unisvd::qr {

template <class T>
void tsqrt(ka::Backend& be, MatrixView<T> W, index_t row0, index_t k,
           index_t lbegin, index_t lend, MatrixView<T> Tau,
           const KernelConfig& cfg, ka::StageTimes* times = nullptr) {
  using CT = compute_t<T>;
  const int ts = cfg.tilesize;
  const int sk = cfg.splitk;
  const int seg = ts / sk;
  const index_t nrows = lend - lbegin;
  const index_t rbase = row0 * ts;
  const index_t cbase = k * ts;

  ka::LaunchDesc desc;
  desc.name = nrows > 1 ? "ftsqrt" : "tsqrt";
  desc.stage = ka::Stage::PanelFactorization;
  desc.num_groups = 1;
  desc.group_size = ts * sk;
  desc.local_bytes = static_cast<std::size_t>(3 * ts + ts * sk + sk + 2) * sizeof(CT);
  desc.private_bytes_per_item = static_cast<std::size_t>(2 * seg + 2) * sizeof(CT);
  desc.precision = precision_of<T>;
  desc.cost.flops = cost::tsqrt_flops(ts, nrows);
  desc.cost.bytes_read = cost::tsqrt_bytes_r(ts, nrows, sizeof(T));
  desc.cost.bytes_written = cost::tsqrt_bytes_w(ts, nrows, sizeof(T));
  desc.cost.serial_iterations = 3.0 * ts * static_cast<double>(nrows);

  ka::timed_launch(be, desc, [=](ka::WorkGroupCtx& wg) {
    // unisvd-lint: begin-kernel(tsqrt)
    auto Ri = wg.priv<CT>(static_cast<std::size_t>(seg));
    auto Bi = wg.priv<CT>(static_cast<std::size_t>(seg));
    auto Bk = wg.local<CT>(static_cast<std::size_t>(ts));
    auto rowk = wg.local<CT>(static_cast<std::size_t>(ts));
    auto tauv = wg.local<CT>(static_cast<std::size_t>(ts));
    auto partials = wg.local<CT>(static_cast<std::size_t>(ts) * sk);
    auto normp = wg.local<CT>(static_cast<std::size_t>(sk));

    // R stays register-resident across all fused rows.
    wg.items([&](int t) {
      const int i = t % ts;
      const int s = t / ts;
      const int r0 = s * seg;
      auto r = Ri(t);
      for (int rr = 0; rr < seg; ++rr) {
        r[rr] = static_cast<CT>(W.at(rbase + r0 + rr, cbase + i));
      }
    });

    for (index_t l = lbegin; l < lend; ++l) {
      const index_t bbase = l * ts;

      wg.items([&](int t) {
        const int i = t % ts;
        const int s = t / ts;
        const int r0 = s * seg;
        auto b = Bi(t);
        for (int rr = 0; rr < seg; ++rr) {
          b[rr] = static_cast<CT>(W.at(bbase + r0 + rr, cbase + i));
        }
        if (s == 0) tauv[i] = CT(0);
      });

      for (int kk = 0; kk < ts; ++kk) {
        const int owner = kk / seg;

        // Stage B column kk; norm partials over the FULL column (the
        // eliminated tail spans the whole B tile for every reflector).
        wg.items([&](int t) {
          const int i = t % ts;
          const int s = t / ts;
          if (i != kk) return;
          const int r0 = s * seg;
          auto b = Bi(t);
          CT np = CT(0);
          for (int rr = 0; rr < seg; ++rr) {
            Bk[r0 + rr] = b[rr];
            np += b[rr] * b[rr];
          }
          normp[s] = np;
        });

        wg.items([&](int t) {
          const int i = t % ts;
          const int s = t / ts;
          if (i < kk) return;
          const int r0 = s * seg;
          auto b = Bi(t);
          CT p = CT(0);
          for (int rr = 0; rr < seg; ++rr) p += b[rr] * Bk[r0 + rr];
          partials[static_cast<std::size_t>(i) * sk + s] = p;
          if (s == owner) rowk[i] = Ri(t)[kk - r0];  // R row kk entries
        });

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
          const CT akk = rowk[kk];  // pivot lives in R, not in B
          const CT r = std::sqrt(akk * akk + nrm);
          CT x = (akk < CT(0)) ? akk - r : akk + r;
          CT tau;
          CT rho2;
          const CT guard = CT(10) * compute_eps<CT>();
          // Small-reflector guard: store the exact sign-flip reflector
          // (tail v = 0, tau_hat = 2) for a numerically-zero column — see
          // the matching comment in geqrt.hpp.
          const bool negligible = std::abs(x) < guard;
          if (negligible) {
            x = guard;
            tau = CT(2);
            rho2 = CT(2) * rowk[i];
          } else {
            tau = CT(2) * x * x / (x * x + nrm);
            rho2 = (tau / x) * (rowk[i] * x + rho);
          }
          auto b = Bi(t);
          if (i == kk) {
            if (s == 0) tauv[kk] = tau;
            if (negligible) {
              for (int rr = 0; rr < seg; ++rr) b[rr] = CT(0);
            } else {
              for (int rr = 0; rr < seg; ++rr) b[rr] /= x;  // store tails
            }
          } else if (!negligible) {
            for (int rr = 0; rr < seg; ++rr) b[rr] -= rho2 * (Bk[r0 + rr] / x);
          }
          if (s == owner) Ri(t)[kk - r0] = rowk[i] - rho2;
        });
      }

      wg.items([&](int t) {
        const int i = t % ts;
        const int s = t / ts;
        const int r0 = s * seg;
        auto b = Bi(t);
        for (int rr = 0; rr < seg; ++rr) {
          W.at(bbase + r0 + rr, cbase + i) = static_cast<T>(b[rr]);
        }
        if (s == 0) Tau.at(l, i) = static_cast<T>(tauv[i]);
      });
    }

    wg.items([&](int t) {
      const int i = t % ts;
      const int s = t / ts;
      const int r0 = s * seg;
      auto r = Ri(t);
      for (int rr = 0; rr < seg; ++rr) {
        W.at(rbase + r0 + rr, cbase + i) = static_cast<T>(r[rr]);
      }
    });
    // unisvd-lint: end-kernel
  }, times);
}

}  // namespace unisvd::qr
