/// Kernel microbenchmarks (google-benchmark): REAL CPU-backend throughput
/// of every Phase-1 kernel across TILESIZE / COLPERBLOCK / SPLITK and
/// storage precision — the raw material behind the paper's §4.2 analysis
/// and the hyperparameter discussion of §3.3 — plus the library's one GEMM
/// at the range finder's sketch shape and at D&C's largest n = 1024 merge.
///
/// Every kernel has one body, vectorized by the compiler for the ISA the
/// build targets; the label column names that ISA (ka::simd::isa_name()).
/// Comparing two ISAs means running this binary from two builds, e.g. a
/// baseline one and one configured with -DCMAKE_CXX_FLAGS=-march=x86-64-v3.

#include <benchmark/benchmark.h>

#include <string>

#include "common/half.hpp"
#include "ka/backend.hpp"
#include "ka/simd/dispatch.hpp"
#include "qr/band_reduction.hpp"
#include "qr/gemm.hpp"
#include "rand/matrix_gen.hpp"

using namespace unisvd;

namespace {

void label_isa(benchmark::State& state) {
  state.SetLabel(std::string(ka::simd::isa_name()));
}

/// A reusable tiled working set: nt x nt tiles with a factored panel.
template <class T>
struct Fixture {
  Matrix<T> w;
  Matrix<T> tau;
  qr::KernelConfig cfg;
  ka::CpuBackend be;

  Fixture(index_t nt, int ts, int cpb, int splitk)
      : w(nt * ts, nt * ts), tau(nt, ts, T(0)) {
    cfg.tilesize = ts;
    cfg.colperblock = cpb;
    cfg.splitk = splitk;
    rnd::Xoshiro256 rng(99);
    for (index_t j = 0; j < w.cols(); ++j) {
      for (index_t i = 0; i < w.rows(); ++i) {
        w(i, j) = static_cast<T>(rng.normal());
      }
    }
  }
};

template <class T>
void BM_geqrt(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const int splitk = static_cast<int>(state.range(1));
  Fixture<T> f(2, ts, std::min(32, ts), splitk);
  const Matrix<T> input = f.w;
  for (auto _ : state) {
    // Factor the same tile every iteration: refactoring the factored tile
    // in place drifts into subnormals, whose timing depends on the
    // iteration count.
    state.PauseTiming();
    f.w = input;
    state.ResumeTiming();
    qr::geqrt<T>(f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = qr::cost::geqrt_flops(ts);
  label_isa(state);
}

template <class T>
void BM_tsqrt_fused(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const index_t nrows = state.range(1);
  Fixture<T> f(nrows + 1, ts, std::min(32, ts), 1);
  qr::geqrt<T>(f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  const Matrix<T> input = f.w;
  for (auto _ : state) {
    state.PauseTiming();  // same panel every iteration, as in BM_geqrt
    f.w = input;
    state.ResumeTiming();
    qr::tsqrt<T>(f.be, f.w.view(), 0, 0, 1, nrows + 1, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.counters["rows"] = static_cast<double>(nrows);
  label_isa(state);
}

template <class T>
void BM_unmqr(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const int cpb = static_cast<int>(state.range(1));
  const index_t nt = ts >= 128 ? 4 : 8;  // keep the 256-class fixture sane
  Fixture<T> f(nt, ts, cpb, 1);
  qr::geqrt<T>(f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  for (auto _ : state) {
    qr::unmqr<T>(f.be, f.w.view(), 0, 0, 1, nt, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  state.counters["cols"] = static_cast<double>((nt - 1) * ts);
  label_isa(state);
}

template <class T>
void BM_tsmqr_fused(benchmark::State& state) {
  const int ts = static_cast<int>(state.range(0));
  const index_t nt = state.range(1);
  Fixture<T> f(nt, ts, std::min(32, ts), 1);
  qr::geqrt<T>(f.be, f.w.view(), 0, 0, f.tau.view(), f.cfg);
  qr::tsqrt<T>(f.be, f.w.view(), 0, 0, 1, nt, f.tau.view(), f.cfg);
  for (auto _ : state) {
    qr::tsmqr<T>(f.be, f.w.view(), 0, 0, 1, nt, 1, nt, f.tau.view(), f.cfg);
    benchmark::DoNotOptimize(f.w.data());
  }
  label_isa(state);
}

/// The randomized range finder's sketch product on the shared GEMM:
/// Y = A * Omega with A (4*ts x ts) in storage precision, a 64-column
/// Gaussian sketch in compute precision, summed in compute precision and
/// rounded once into Y — the rsvd Stage-1 shape — launched as the range
/// finder launches it, Y^T = Omega^T * A^T.
template <class T>
void BM_gemm_sketch(benchmark::State& state) {
  using CT = compute_t<T>;
  const index_t ts = state.range(0);
  ka::CpuBackend be;
  const index_t m = 4 * ts;
  const index_t n = ts;
  const index_t l = 64;
  rnd::Xoshiro256 rng(7);
  Matrix<T> a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<T>(rng.normal());
  }
  Matrix<CT> omega(n, l);
  for (index_t j = 0; j < l; ++j) {
    for (index_t i = 0; i < n; ++i) omega(i, j) = static_cast<CT>(rng.normal());
  }
  Matrix<T> y(m, l, T(0));
  const qr::GemmProduct<CT, T, T> prod{omega.view().transposed(), a.view().transposed(),
                                       y.view().transposed()};
  for (auto _ : state) {
    qr::gemm<CT>(be, prod, {"sketch_gemm", ka::Stage::RandomizedSketch});
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(l) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  label_isa(state);
}

/// The shared GEMM at D&C's top-merge U-side product of an n = 1024 solve:
/// C (1024 x 512) = A (1024 x 512) * B (512 x 512), FP64, one product per
/// launch; range(0) is the pool width.
void BM_gemm_dc(benchmark::State& state) {
  ka::CpuBackend be(static_cast<unsigned>(state.range(0)));
  const index_t m = 1024;
  const index_t n = 512;
  const index_t k = 512;
  rnd::Xoshiro256 rng(3);
  Matrix<double> a(m, k);
  Matrix<double> b(k, n);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.normal();
  }
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < k; ++i) b(i, j) = rng.normal();
  }
  Matrix<double> c(m, n);
  const qr::GemmProduct<double, double, double> prod{a.view(), b.view(), c.view()};
  for (auto _ : state) {
    qr::gemm<double>(be, prod, {"dc_gemm", ka::Stage::BidiagonalToDiagonal});
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  label_isa(state);
}

void BM_band_reduction_fp32(benchmark::State& state) {
  const index_t n = state.range(0);
  const bool fused = state.range(1) != 0;
  Fixture<float> f(n / 32, 32, 32, 1);
  f.cfg.fused = fused;
  for (auto _ : state) {
    state.PauseTiming();
    rnd::Xoshiro256 rng(5);
    for (index_t j = 0; j < f.w.cols(); ++j) {
      for (index_t i = 0; i < f.w.rows(); ++i) {
        f.w(i, j) = static_cast<float>(rng.normal());
      }
    }
    state.ResumeTiming();
    qr::band_reduction<float>(f.be, f.w.view(), f.tau.view(), f.cfg);
  }
  const double n3 = static_cast<double>(n) * n * n;
  state.counters["GFlop/s"] = benchmark::Counter(
      (8.0 / 3.0) * n3 * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  label_isa(state);
}

}  // namespace

// The 256-class rows (tilesize 256) are where vectorization pays most.
BENCHMARK_TEMPLATE(BM_geqrt, float)->Args({16, 1})->Args({32, 1})->Args({32, 8})->Args({64, 1})->Args({64, 8})->Args({256, 1});
BENCHMARK_TEMPLATE(BM_geqrt, double)->Args({32, 1})->Args({64, 1})->Args({256, 1});
BENCHMARK_TEMPLATE(BM_geqrt, unisvd::Half)->Args({32, 1});
BENCHMARK_TEMPLATE(BM_tsqrt_fused, float)->Args({32, 1})->Args({32, 4})->Args({32, 15})->Args({256, 4});
BENCHMARK_TEMPLATE(BM_tsqrt_fused, double)->Args({32, 4})->Args({256, 4});
BENCHMARK_TEMPLATE(BM_unmqr, float)->Args({32, 8})->Args({32, 16})->Args({32, 32})->Args({64, 32})->Args({256, 32});
BENCHMARK_TEMPLATE(BM_unmqr, double)->Args({32, 32})->Args({256, 32});
BENCHMARK_TEMPLATE(BM_tsmqr_fused, float)->Args({32, 4})->Args({32, 8})->Args({64, 4})->Args({256, 4});
BENCHMARK_TEMPLATE(BM_tsmqr_fused, double)->Args({32, 4})->Args({256, 4});
BENCHMARK_TEMPLATE(BM_tsmqr_fused, unisvd::Half)->Args({32, 4});
BENCHMARK_TEMPLATE(BM_gemm_sketch, float)->Arg(32)->Arg(256);
BENCHMARK_TEMPLATE(BM_gemm_sketch, double)->Arg(32)->Arg(256);
BENCHMARK_TEMPLATE(BM_gemm_sketch, unisvd::Half)->Arg(32)->Arg(256);
BENCHMARK(BM_gemm_dc)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_band_reduction_fp32)->Args({256, 1})->Args({256, 0})->Args({512, 1})->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
