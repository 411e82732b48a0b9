/// Performance-model tests: device profiles, occupancy laws, launch-time
/// monotonicities, precision policies (FP16/FP64 support matrix of Figure
/// 5), the Table 3 L1-cliff mechanism, and library-model orderings
/// (Figures 3-4 shape properties).

#include <gtest/gtest.h>

#include <span>

#include "qr/gemm.hpp"
#include "sim/device_spec.hpp"
#include "sim/library_model.hpp"
#include "sim/occupancy.hpp"
#include "sim/perf_model.hpp"
#include "sim/tuning.hpp"

using namespace unisvd;
using namespace unisvd::sim;

namespace {

ka::LaunchDesc trailing_launch(index_t groups, int cpb, int ts, Precision p) {
  ka::LaunchDesc d;
  d.name = "ftsmqr";
  d.stage = ka::Stage::TrailingUpdate;
  d.num_groups = groups;
  d.group_size = cpb;
  d.precision = p;
  d.local_bytes = static_cast<std::size_t>(2 * ts) * bytes_of(p);
  d.private_bytes_per_item = static_cast<std::size_t>(2 * ts + 1) * bytes_of(p);
  d.cost.flops = 1e9;
  d.cost.bytes_read = 1e8;
  d.cost.bytes_written = 1e7;
  d.cost.serial_iterations = 2.0 * ts;
  return d;
}

ka::LaunchDesc panel_launch(int ts, Precision p) {
  ka::LaunchDesc d;
  d.name = "geqrt";
  d.stage = ka::Stage::PanelFactorization;
  d.num_groups = 1;
  d.group_size = ts;
  d.precision = p;
  d.local_bytes = static_cast<std::size_t>(3 * ts) * bytes_of(p);
  d.private_bytes_per_item = static_cast<std::size_t>(ts + 2) * bytes_of(p);
  d.cost.flops = 1e6;
  d.cost.bytes_read = 1e5;
  d.cost.bytes_written = 1e5;
  d.cost.serial_iterations = 3.0 * ts;
  return d;
}

}  // namespace

TEST(DeviceSpec, ProfilesMatchPaperTable2) {
  EXPECT_EQ(h100().num_cu, 132);
  EXPECT_EQ(a100().num_cu, 108);
  EXPECT_EQ(rtx4060().num_cu, 24);
  EXPECT_EQ(mi250().num_cu, 208);
  EXPECT_EQ(m1pro().num_cu, 8);
  EXPECT_NEAR(h100().mem_bw_gbs, 3360, 1);
  EXPECT_NEAR(mi250().l1_kb_per_cu, 16, 0.1);
  EXPECT_NEAR(h100().fp32_tflops, 67, 0.1);
  EXPECT_EQ(all_devices().size(), 6u);
  EXPECT_EQ(&device_by_name("MI250"), &mi250());
  EXPECT_THROW(device_by_name("TPU"), Error);
}

TEST(DeviceSpec, PrecisionPolicies) {
  // Paper Figure 5: Metal has no FP64; Julia/AMDGPU had no FP16; NVIDIA
  // upcasts FP16 to the FP32 pipes (same rate).
  EXPECT_FALSE(m1pro().supports(Precision::FP64));
  EXPECT_THROW((void)m1pro().flop_rate(Precision::FP64), Error);
  EXPECT_FALSE(mi250().supports(Precision::FP16));
  EXPECT_TRUE(m1pro().supports(Precision::FP16));
  EXPECT_EQ(h100().flop_rate(Precision::FP16), h100().flop_rate(Precision::FP32));
  EXPECT_EQ(h100().flop_rate(Precision::FP64), h100().flop_rate(Precision::FP32) / 2);
  EXPECT_NEAR(rtx4060().flop_rate(Precision::FP64),
              rtx4060().flop_rate(Precision::FP32) / 32.0, 1e6);
}

TEST(DeviceSpec, MemoryCapacityGovernsMaxSize) {
  // Paper: RTX4060 limited to 32k; H100 FP16 reaches 131k.
  EXPECT_TRUE(rtx4060().fits(32768, Precision::FP32));
  EXPECT_FALSE(rtx4060().fits(65536, Precision::FP32));
  EXPECT_TRUE(h100().fits(131072, Precision::FP16));
  EXPECT_FALSE(h100().fits(131072, Precision::FP32));
}

TEST(Occupancy, ThreadLimited) {
  auto d = trailing_launch(10000, 256, 8, Precision::FP32);
  d.private_bytes_per_item = 16;
  d.local_bytes = 64;
  const auto occ = occupancy_of(h100(), d);
  EXPECT_EQ(occ.wgs_per_cu, 2048 / 256);
  EXPECT_EQ(occ.spill_factor, 1.0);
}

TEST(Occupancy, RegisterFileLimited) {
  // 32 items x 1 KB = 32 KB per workgroup against a 256 KB register file.
  auto d = trailing_launch(10000, 32, 64, Precision::FP64);
  const auto occ = occupancy_of(h100(), d);
  EXPECT_LE(occ.wgs_per_cu, 8);
  EXPECT_GE(occ.wgs_per_cu, 4);
}

TEST(Occupancy, PanelTileMustFitL1) {
  // The paper's rule: TILESIZE^2 * sizeof must fit in L1. 64x64 FP64
  // = 32 KB: fine on H100 (256 KB), thrashes on MI250 (16 KB).
  const auto d64 = panel_launch(64, Precision::FP64);
  EXPECT_EQ(occupancy_of(h100(), d64).spill_factor, 1.0);
  EXPECT_GT(occupancy_of(mi250(), d64).spill_factor, 1.5);
  const auto d32 = panel_launch(32, Precision::FP64);
  EXPECT_LT(occupancy_of(mi250(), d32).spill_factor, 1.3);
}

TEST(PerfModel, MoreWorkTakesLonger) {
  const PerfModel m(h100());
  auto d1 = trailing_launch(1000, 32, 32, Precision::FP32);
  auto d2 = d1;
  d2.cost.flops *= 10;
  EXPECT_GT(m.launch_seconds(d2), m.launch_seconds(d1));
  auto d3 = d1;
  d3.cost.bytes_read *= 100;
  EXPECT_GT(m.launch_seconds(d3), m.launch_seconds(d1));
}

TEST(PerfModel, LaunchOverheadFloors) {
  const PerfModel m(h100());
  ka::LaunchDesc d = trailing_launch(1, 32, 32, Precision::FP32);
  d.cost = {};  // empty kernel: only overhead remains
  EXPECT_GE(m.launch_seconds(d), h100().launch_overhead_us * 1e-6 * 0.99);
}

TEST(PerfModel, SerialChainSetsFloor) {
  const PerfModel m(h100());
  auto d = panel_launch(32, Precision::FP32);
  d.cost.flops = 1.0;  // no throughput term
  const double expect = 3.0 * 32 * h100().barrier_ns * 1e-9;
  EXPECT_GE(m.launch_seconds(d), expect);
}

TEST(PerfModel, WaveQuantization) {
  const PerfModel m(rtx4060());
  // Fixed per-group work: 10x the groups beyond device concurrency must
  // take roughly 10x as long (wave serialization).
  auto one_wave = trailing_launch(24 * 6, 256, 8, Precision::FP32);
  one_wave.private_bytes_per_item = 8;
  auto ten_waves = one_wave;
  ten_waves.num_groups = one_wave.num_groups * 10;
  ten_waves.cost.flops *= 10;
  ten_waves.cost.bytes_read *= 10;
  ten_waves.cost.bytes_written *= 10;
  const double t1 = m.launch_seconds(one_wave);
  const double t10 = m.launch_seconds(ten_waves);
  EXPECT_GT(t10, 5.0 * t1);
  EXPECT_LT(t10, 15.0 * t1);
}

TEST(PerfModel, StageAttributionSumsToTotal) {
  const auto trace = unified_schedule(1024, Precision::FP32,
                                      tuned_kernel_config(h100(), Precision::FP32, 1024));
  const PerfModel m(h100());
  const auto br = m.simulate(trace);
  EXPECT_GT(br.panel, 0.0);
  EXPECT_GT(br.trailing, 0.0);
  EXPECT_GT(br.band2bidiag, 0.0);
  EXPECT_GT(br.bidiag2diag, 0.0);
  double sum = 0.0;
  for (const auto& d : trace) sum += m.launch_seconds(d);
  EXPECT_NEAR(sum, br.total(), 1e-12 * sum);
}

namespace {

/// The descriptor of the range finder's sketch launch, Y = A * Omega for an
/// m x n FP32 input sketched to l columns, as the GEMM itself builds it.
ka::LaunchDesc sketch_desc(index_t m, index_t n, index_t l) {
  const qr::GemmProduct<float, float, float> y{
      {nullptr, m, n, m}, {nullptr, n, l, n}, {nullptr, m, l, m}};
  return qr::gemm_desc<float>(std::span(&y, 1),
                              {"sketch_gemm", ka::Stage::RandomizedSketch});
}

}  // namespace

TEST(PerfModel, SketchRecordIsModeledAndAttributed) {
  // Stage::RandomizedSketch is priced, not dropped: the GEMM's own
  // descriptor for the sketch (2mnl flops) is booked by simulate() into its
  // own breakdown bucket and the total.
  const PerfModel m(h100());
  const auto d = sketch_desc(4096, 4096, 64);
  EXPECT_EQ(d.stage, ka::Stage::RandomizedSketch);
  EXPECT_EQ(d.name, "sketch_gemm");
  EXPECT_DOUBLE_EQ(d.cost.flops, 2.0 * 4096.0 * 4096.0 * 64.0);

  const double t = m.launch_seconds(d);
  EXPECT_GT(t, 0.0);
  const auto br = m.simulate({d});
  EXPECT_DOUBLE_EQ(br.sketch, t);
  EXPECT_DOUBLE_EQ(br.total(), t);
  EXPECT_EQ(br.panel, 0.0);
  EXPECT_EQ(br.vector_acc, 0.0);

  // Monotonicities: more sketch columns and more input rows both cost more
  // once the grid fills the device. Each group owns a 128 x 64 block of Y,
  // so the 4096-row sketch above is 32 groups, under one wave on the
  // H100's 132 CUs, where the model prices extra groups as free (see
  // WaveQuantization); a 32768-row sketch is 256 groups.
  const double full = m.launch_seconds(sketch_desc(32768, 4096, 64));
  EXPECT_GT(full, t);
  EXPECT_GT(m.launch_seconds(sketch_desc(32768, 4096, 256)), full);
  EXPECT_GT(m.launch_seconds(sketch_desc(65536, 4096, 64)), full);
}

TEST(PerfModel, Fp16MatchesFp32SpeedOnNvidia) {
  // Paper Fig 5: "FP16 has the same speed as FP32 because it uses the FP32
  // CUDA cores" (memory traffic differs slightly, so allow 25%).
  const double t32 = simulate_unified(h100(), 8192, Precision::FP32).total();
  const double t16 = simulate_unified(h100(), 8192, Precision::FP16).total();
  EXPECT_NEAR(t16 / t32, 1.0, 0.25);
  EXPECT_LE(t16, t32 * 1.001);  // FP16 never slower (half the bytes)
}

TEST(PerfModel, Fp64CostsAboutTwiceFp32OnH100) {
  const double t32 = simulate_unified(h100(), 8192, Precision::FP32).total();
  const double t64 = simulate_unified(h100(), 8192, Precision::FP64).total();
  EXPECT_GT(t64 / t32, 1.3);
  EXPECT_LT(t64 / t32, 2.6);
}

TEST(PerfModel, TrailingShareGrowsWithSize) {
  // Paper Fig 6: the trailing update dominates at scale and its ratio to
  // the panel factorization increases with matrix size.
  const auto small = simulate_unified(h100(), 1024, Precision::FP32);
  const auto large = simulate_unified(h100(), 16384, Precision::FP32);
  EXPECT_GT(large.trailing / large.panel, small.trailing / small.panel);
  const double small_share1 = (small.panel + small.trailing) / small.total();
  const double large_share1 = (large.panel + large.trailing) / large.total();
  EXPECT_GT(large_share1, small_share1 - 0.05);  // stage 1 grows (or saturates)
}

TEST(Tuning, TablesFollowPaperFindings) {
  // AMD FP64 prefers TILESIZE 32 at every size (Table 3); NVIDIA and AMD
  // FP32 move to 64 at large sizes.
  EXPECT_EQ(tuned_kernel_config(mi250(), Precision::FP64, 32768).tilesize, 32);
  EXPECT_EQ(tuned_kernel_config(mi250(), Precision::FP32, 32768).tilesize, 64);
  EXPECT_EQ(tuned_kernel_config(h100(), Precision::FP32, 32768).tilesize, 64);
  EXPECT_EQ(tuned_kernel_config(h100(), Precision::FP32, 512).tilesize, 32);
}

TEST(LibraryModels, Table3Mi250Fp64Cliff) {
  // TILESIZE 64 must lose badly to 32 on MI250/FP64 (paper Table 3: +50%
  // at 32k) while winning on H100 at the same size.
  auto cfg32 = tuned_kernel_config(mi250(), Precision::FP64, 32768);
  auto cfg64 = cfg32;
  cfg64.tilesize = 64;
  const PerfModel mi(mi250());
  const double t32 =
      mi.simulate(unified_schedule(32768, Precision::FP64, cfg32)).total();
  const double t64 =
      mi.simulate(unified_schedule(32768, Precision::FP64, cfg64)).total();
  EXPECT_GT(t64 / t32, 1.2);

  const PerfModel h(h100());
  const double h32 = h.simulate(unified_schedule(32768, Precision::FP64, cfg32)).total();
  const double h64 = h.simulate(unified_schedule(32768, Precision::FP64, cfg64)).total();
  EXPECT_LT(h64, h32 * 1.05);  // TS64 competitive or better on H100
}

TEST(LibraryModels, SupportMatrices) {
  EXPECT_TRUE(cusolver_model().supports(h100(), Precision::FP32));
  EXPECT_FALSE(cusolver_model().supports(mi250(), Precision::FP32));
  EXPECT_TRUE(rocsolver_model().supports(mi250(), Precision::FP64));
  EXPECT_FALSE(rocsolver_model().supports(h100(), Precision::FP32));
  EXPECT_TRUE(onemkl_model().supports(pvc(), Precision::FP32));
  EXPECT_TRUE(magma_model().supports(mi250(), Precision::FP32));
  EXPECT_FALSE(magma_model().supports(m1pro(), Precision::FP32));
  EXPECT_FALSE(slate_model().supports(h100(), Precision::FP16));
}

TEST(LibraryModels, Figure4Shapes) {
  // Unified beats rocSOLVER at every size on MI250.
  for (index_t n : {256, 1024, 4096, 16384}) {
    const double uni = unified_model().seconds(mi250(), n, Precision::FP32);
    const double roc = rocsolver_model().seconds(mi250(), n, Precision::FP32);
    EXPECT_GT(roc / uni, 1.0) << n;
  }
  // cuSOLVER wins on H100 at large sizes, with unified at >= 50%.
  for (index_t n : {8192, 16384}) {
    const double uni = unified_model().seconds(h100(), n, Precision::FP32);
    const double cu = cusolver_model().seconds(h100(), n, Precision::FP32);
    EXPECT_GT(cu / uni, 0.5) << n;
    EXPECT_LT(cu / uni, 1.05) << n;
  }
  // Unified beats cuSOLVER on the consumer RTX4060.
  const double uni = unified_model().seconds(rtx4060(), 8192, Precision::FP32);
  const double cu = cusolver_model().seconds(rtx4060(), 8192, Precision::FP32);
  EXPECT_GT(cu / uni, 1.0);
}

TEST(LibraryModels, Figure3Shapes) {
  // Unified beats SLATE across the board on HPC parts.
  for (index_t n : {512, 2048, 8192}) {
    const double uni = unified_model().seconds(h100(), n, Precision::FP32);
    const double sl = slate_model().seconds(h100(), n, Precision::FP32);
    EXPECT_GT(sl / uni, 1.0) << n;
  }
  // MAGMA: ahead at small sizes, behind at large (crossover ~1-2k).
  const double r_small =
      magma_model().seconds(h100(), 256, Precision::FP32) /
      unified_model().seconds(h100(), 256, Precision::FP32);
  const double r_large =
      magma_model().seconds(h100(), 16384, Precision::FP32) /
      unified_model().seconds(h100(), 16384, Precision::FP32);
  EXPECT_LT(r_small, 1.0);
  EXPECT_GT(r_large, 1.5);
}

TEST(LibraryModels, OneMklCrossover) {
  // Paper Fig 4: oneMKL ahead below ~2k on PVC, unified ahead at scale.
  const double r_small = onemkl_model().seconds(pvc(), 512, Precision::FP32) /
                         unified_model().seconds(pvc(), 512, Precision::FP32);
  const double r_large = onemkl_model().seconds(pvc(), 32768, Precision::FP32) /
                         unified_model().seconds(pvc(), 32768, Precision::FP32);
  EXPECT_LT(r_small, 1.0);
  EXPECT_GT(r_large, 1.0);
}
