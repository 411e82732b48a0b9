/// Autotuner tests: candidate generation, ranking, determinism of the
/// probe, validation; TuningTable persistence (round-trip, fallback rules,
/// graceful handling of missing/corrupt table files).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <locale>
#include <sstream>
#include <string>

#include "core/tuner.hpp"
#include "ka/backend.hpp"

using namespace unisvd;
using core::Knob;

TEST(Tuner, DefaultCandidatesRespectConstraints) {
  const auto cands = core::default_candidates(64);
  EXPECT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_NO_THROW(c.validate());
    EXPECT_LE(c.tilesize, 64);
  }
}

TEST(Tuner, SmallMatrixGetsSmallTiles) {
  const auto cands = core::default_candidates(16);
  for (const auto& c : cands) EXPECT_LE(c.tilesize, 16);
}

TEST(Tuner, RanksAndReturnsBest) {
  ka::CpuBackend be(4);
  std::vector<qr::KernelConfig> cands;
  for (int ts : {8, 16}) {
    qr::KernelConfig c;
    c.tilesize = ts;
    c.colperblock = 8;
    cands.push_back(c);
  }
  const auto result = core::autotune<float>(be, 64, cands);
  ASSERT_EQ(result.all.size(), 2u);
  EXPECT_LE(result.all[0].seconds, result.all[1].seconds);
  EXPECT_EQ(result.best.tilesize, result.all[0].config.tilesize);
  for (const auto& e : result.all) EXPECT_GT(e.seconds, 0.0);
}

TEST(Tuner, RejectsNonExecutingBackendAndBadArgs) {
  ka::TraceBackend trace;
  EXPECT_THROW(core::autotune<float>(trace, 32), Error);
  ka::CpuBackend be(2);
  EXPECT_THROW(core::autotune<float>(be, 32, {}, 0), Error);
}

TEST(Tuner, BatchCrossoverProbesBothSchedules) {
  ka::CpuBackend be(4);
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  const auto result = core::tune_batch_crossover<float>(be, {8, 16}, 2, 1, cfg);
  ASSERT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.samples[0].n, 8);
  EXPECT_EQ(result.samples[1].n, 16);
  for (const auto& s : result.samples) {
    EXPECT_GT(s.inter_seconds, 0.0);
    EXPECT_GT(s.intra_seconds, 0.0);
  }
  // The learned crossover is one of the probed sizes, or 0 if inter never won.
  EXPECT_TRUE(result.crossover_n == 0 || result.crossover_n == 8 ||
              result.crossover_n == 16);
}

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

core::TuningTable sample_table() {
  core::TuningTable table;
  table.set<Knob::BatchCrossover>("cpu", Precision::FP32, 160);
  table.set<Knob::BatchCrossover>("cpu", Precision::FP64, 96);
  table.set<Knob::BatchCrossover>("serial", Precision::FP16, 0);
  qr::KernelConfig cfg;
  cfg.tilesize = 16;
  cfg.colperblock = 8;
  cfg.splitk = 2;
  cfg.fused = false;
  table.set<Knob::Kernels>("cpu", Precision::FP32, cfg);
  return table;
}

}  // namespace

TEST(TuningTable, RoundTripSaveLoadIdentical) {
  const auto table = sample_table();
  const std::string path = temp_path("unisvd_tuning_roundtrip.txt");
  ASSERT_TRUE(table.save(path));

  const auto loaded = core::TuningTable::load(path);
  EXPECT_EQ(loaded.size(), table.size());
  for (const Precision p : {Precision::FP16, Precision::FP32, Precision::FP64}) {
    for (const char* backend : {"cpu", "serial", "gpu-sim"}) {
      EXPECT_EQ(loaded.get<Knob::BatchCrossover>(backend, p),
                table.get<Knob::BatchCrossover>(backend, p))
          << backend << " " << to_string(p);
      EXPECT_EQ(loaded.get<Knob::Kernels>(backend, p).has_value(),
                table.get<Knob::Kernels>(backend, p).has_value());
    }
  }
  const auto cfg = loaded.get<Knob::Kernels>("cpu", Precision::FP32);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->tilesize, 16);
  EXPECT_EQ(cfg->colperblock, 8);
  EXPECT_EQ(cfg->splitk, 2);
  EXPECT_FALSE(cfg->fused);
}

TEST(TuningTable, FallbackRulesExactThenNearPrecisionThenDefault) {
  const auto table = sample_table();
  // Exact hit.
  EXPECT_EQ(table.get_or<Knob::BatchCrossover>("cpu", Precision::FP32, 999), 160);
  // FP16 has no cpu entry: falls back to FP32 (shared compute path) first.
  EXPECT_EQ(table.get_or<Knob::BatchCrossover>("cpu", Precision::FP16, 999), 160);
  // Unknown backend: the caller's default wins — no cross-backend leakage.
  EXPECT_EQ(table.get_or<Knob::BatchCrossover>("gpu-sim", Precision::FP32, 999), 999);
  // Same rules for kernel configs.
  EXPECT_EQ(
      table.get_or<Knob::Kernels>("cpu", Precision::FP16, qr::KernelConfig{}).tilesize,
      16);
  EXPECT_EQ(table.get_or<Knob::Kernels>("gpu-sim", Precision::FP32, qr::KernelConfig{})
                .tilesize,
            qr::KernelConfig{}.tilesize);
  // A crossover of 0 ("always intra") is a real entry, not a missing one.
  EXPECT_EQ(table.get_or<Knob::BatchCrossover>("serial", Precision::FP16, 999), 0);
}

TEST(TuningTable, MissingFileLoadsEmptyAndFallsBack) {
  const auto table =
      core::TuningTable::load(temp_path("unisvd_tuning_does_not_exist.txt"));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.get_or<Knob::BatchCrossover>("cpu", Precision::FP32,
                                               BatchConfig{}.crossover_n),
            BatchConfig{}.crossover_n);
}

TEST(TuningTable, CorruptLinesAreSkippedGoodLinesSurvive) {
  const std::string path = temp_path("unisvd_tuning_corrupt.txt");
  {
    std::ofstream os(path);
    os << "# hand-edited table with assorted damage\n"
       << "crossover cpu FP32 160\n"
       << "crossover cpu FP64 not_a_number\n"      // bad value
       << "crossover cpu BF16 64\n"               // unknown precision
       << "crossover cpu\n"                       // truncated
       << "kernels cpu FP32 7 5 3 1\n"            // fails KernelConfig::validate
       << "kernels cpu FP64 16 8 2 1\n"
       << "warp_schedule cpu FP32 whatever\n"     // unknown directive (future)
       << "\x01\x02 binary garbage\n"
       << "crossover serial FP32 32  # trailing comment\n";
  }
  const auto table = core::TuningTable::load(path);
  EXPECT_EQ(table.get<Knob::BatchCrossover>("cpu", Precision::FP32), 160);
  EXPECT_EQ(table.get<Knob::BatchCrossover>("serial", Precision::FP32), 32);
  EXPECT_FALSE(table.get<Knob::BatchCrossover>("cpu", Precision::FP64).has_value());
  EXPECT_FALSE(table.get<Knob::Kernels>("cpu", Precision::FP32).has_value());
  ASSERT_TRUE(table.get<Knob::Kernels>("cpu", Precision::FP64).has_value());
  EXPECT_EQ(table.get<Knob::Kernels>("cpu", Precision::FP64)->tilesize, 16);
  EXPECT_EQ(table.size(), 3u);
}

TEST(TuningTable, SaveIsAtomicAndLeavesNoTempFile) {
  // save() writes <path>.tmp.<pid>.<seq> and renames it over the target:
  // after a successful save the directory holds exactly the table, no temp
  // debris, and a pre-existing stale temp file from a crashed writer is
  // harmless.
  namespace fs = std::filesystem;
  const std::string dir = temp_path("unisvd_atomic_save");
  fs::create_directories(dir);
  const std::string path = dir + "/tuning.txt";
  {
    std::ofstream stale(path + ".tmp.99999");  // a crashed writer's leftovers
    stale << "crossover cpu FP32 1\n";
  }
  const auto table = sample_table();
  ASSERT_TRUE(table.save(path));
  ASSERT_TRUE(table.save(path));  // overwrite is atomic too

  std::size_t entries = 0;
  std::size_t own_temps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name == "tuning.txt") ++entries;
    if (name.find(".tmp.") != std::string::npos && name != "tuning.txt.tmp.99999") {
      ++own_temps;
    }
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(own_temps, 0u);  // our writer cleaned up after itself
  EXPECT_EQ(core::TuningTable::load(path).size(), table.size());

  // An unwritable destination reports failure instead of corrupting state.
  EXPECT_FALSE(table.save(dir + "/no_such_dir/tuning.txt"));
}

TEST(TuningTable, TruncatedTableLoadsSurvivorsWithWarning) {
  // A write cut off mid-line (the pre-atomic-save failure mode) loads every
  // intact entry, drops the torn one, and says so on stderr — never throws.
  const std::string path = temp_path("unisvd_tuning_truncated.txt");
  {
    std::ofstream os(path);
    os << "# unisvd tuning table v1\n"
       << "crossover cpu FP32 160\n"
       << "crossover cpu FP6\n"     // torn inside the precision token
       << "kernels cpu FP64 16 8 2 1\n"
       << "crossov";                // torn inside the directive token itself
  }
  ::testing::internal::CaptureStderr();
  const auto table = core::TuningTable::load(path);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.get<Knob::BatchCrossover>("cpu", Precision::FP32), 160);
  EXPECT_NE(warning.find("malformed"), std::string::npos) << warning;
}

TEST(TuningTable, GarbageTableLoadsAsEmptyWithWarning) {
  const std::string path = temp_path("unisvd_tuning_garbage.txt");
  {
    std::ofstream os(path);
    os << "crossover \x01\x02\n"
       << "kernels cpu FP32 broken\n"
       << "rsvd !!\n";
  }
  ::testing::internal::CaptureStderr();
  const auto table = core::TuningTable::load(path);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(table.empty());
  EXPECT_NE(warning.find("loading as empty"), std::string::npos) << warning;
}

TEST(TuningTable, LoadsTablesCarryingTheRetiredAspectDirective) {
  // Tables written while the dense solver still had a separately tuned tall
  // path carry a sixth directive holding a floating-point aspect ratio, and
  // tables written while Stage 3 had a tuned engine crossover carry a
  // `stage3` directive. Both must load as unknown directives — skipped,
  // never counted as malformed — with every other entry reaching the tuned
  // configs unchanged. (The aspect directive is spelled in two pieces so it
  // appears nowhere else in the source tree.)
  const std::string head =
      "# unisvd tuning table v1\n"
      "crossover cpu FP32 160\n"
      "kernels cpu FP32 16 8 2 0\n"
      "rsvd cpu FP32 12 1\n";
  const std::string retired = "qr" "_first cpu FP32 1.6\n";
  const std::string tail = "small_svd cpu FP32 24\n";
  const std::string retired_stage3 = "stage3 cpu FP32 256\n";
  std::istringstream is(head + retired + tail + retired_stage3);
  std::size_t malformed = 99;
  const auto table = core::TuningTable::read(is, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(table.size(), 4u);  // the retired lines are ignored

  ka::CpuBackend backend(2);
  const BatchConfig batch = core::tuned_batch_config(table, backend, Precision::FP32);
  EXPECT_EQ(batch.crossover_n, 160);
  EXPECT_EQ(batch.svd.kernels.tilesize, 16);
  EXPECT_EQ(batch.svd.kernels.colperblock, 8);
  EXPECT_EQ(batch.svd.kernels.splitk, 2);
  EXPECT_FALSE(batch.svd.kernels.fused);
  EXPECT_EQ(batch.svd.small_svd_threshold, 24);
  const TruncConfig trunc = core::tuned_trunc_config(table, backend, Precision::FP32);
  EXPECT_EQ(trunc.oversample, 12);
  EXPECT_EQ(trunc.power_iters, 1);
  EXPECT_EQ(trunc.svd.kernels.tilesize, 16);
  EXPECT_EQ(trunc.svd.kernels.colperblock, 8);
  EXPECT_EQ(trunc.svd.kernels.splitk, 2);
  EXPECT_FALSE(trunc.svd.kernels.fused);
  EXPECT_EQ(trunc.svd.small_svd_threshold, 24);

  // The on-disk format is unchanged: writing the table back reproduces the
  // input text, minus the retired lines.
  std::ostringstream os;
  table.write(os);
  EXPECT_EQ(os.str(), head + tail);
}

TEST(TuningTable, RejectsInvalidEntries) {
  core::TuningTable table;
  EXPECT_THROW(table.set<Knob::BatchCrossover>("cpu", Precision::FP32, -1), Error);
  EXPECT_THROW(table.set<Knob::BatchCrossover>("my backend", Precision::FP32, 8), Error);
  // '#' starts a comment in the text format: a name containing it would be
  // silently truncated on load, so the setter refuses it up front.
  EXPECT_THROW(table.set<Knob::BatchCrossover>("cpu#2", Precision::FP32, 8), Error);
  qr::KernelConfig bad;
  bad.tilesize = 3;
  EXPECT_THROW(table.set<Knob::Kernels>("cpu", Precision::FP32, bad), Error);
  EXPECT_THROW(
      table.set<Knob::Rsvd>("cpu", Precision::FP32, core::RsvdDefaults{-1, 2}),
      Error);
  EXPECT_THROW(table.set<Knob::Rsvd>("a b", Precision::FP32, core::RsvdDefaults{}),
               Error);
}

TEST(TuningTable, RsvdEntriesRoundTripWithFallbacks) {
  core::TuningTable table;
  table.set<Knob::Rsvd>("cpu", Precision::FP32, core::RsvdDefaults{12, 1});
  table.set<Knob::Rsvd>("serial", Precision::FP64, core::RsvdDefaults{4, 3});
  const std::string path = temp_path("unisvd_tuning_rsvd.txt");
  ASSERT_TRUE(table.save(path));

  const auto loaded = core::TuningTable::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  const auto hit = loaded.get<Knob::Rsvd>("cpu", Precision::FP32);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->oversample, 12);
  EXPECT_EQ(hit->power_iters, 1);
  // Nearest-precision fallback (FP16 prefers the FP32 entry).
  EXPECT_EQ(
      loaded.get_or<Knob::Rsvd>("cpu", Precision::FP16, core::RsvdDefaults{}).oversample,
      12);
  // Unknown backend keeps the caller's default.
  EXPECT_EQ(loaded.get_or<Knob::Rsvd>("gpu-sim", Precision::FP32, core::RsvdDefaults{7, 5})
                .power_iters,
            5);
  EXPECT_FALSE(loaded.get<Knob::Rsvd>("cpu", Precision::FP64).has_value());
}

TEST(TuningTable, TunedTruncConfigAppliesMeasuredDefaults) {
  core::TuningTable table;
  table.set<Knob::Rsvd>("cpu", Precision::FP32, core::RsvdDefaults{16, 1});
  qr::KernelConfig kc;
  kc.tilesize = 16;
  kc.colperblock = 8;
  table.set<Knob::Kernels>("cpu", Precision::FP32, kc);

  ka::CpuBackend backend(2);
  TruncConfig base;
  base.rank = 9;
  base.seed = 99;
  const TruncConfig tuned =
      core::tuned_trunc_config(table, backend, Precision::FP32, base);
  EXPECT_EQ(tuned.oversample, 16);
  EXPECT_EQ(tuned.power_iters, 1);
  EXPECT_EQ(tuned.svd.kernels.tilesize, 16);
  // Untuned fields pass through.
  EXPECT_EQ(tuned.rank, 9);
  EXPECT_EQ(tuned.seed, 99u);
  // Nothing measured: base comes back unchanged.
  const TruncConfig untouched = core::tuned_trunc_config(
      core::TuningTable{}, backend, Precision::FP32, base);
  EXPECT_EQ(untouched.oversample, base.oversample);
  EXPECT_EQ(untouched.power_iters, base.power_iters);
}

TEST(Tuner, LearnRsvdFeedsTableAndStaysAccurate) {
  // A tiny probe keeps this fast: the learner must deposit SOME candidate
  // for the backend/precision, and every recorded sample must carry a
  // finite timing and residual (the accuracy gate saw real numbers).
  ka::CpuBackend backend(2);
  const auto result = core::tune_rsvd<float>(backend, 96, 48, 8,
                                             {{4, 0}, {4, 1}, {8, 1}}, 1, 2.0, 7);
  ASSERT_EQ(result.samples.size(), 3u);
  bool any_accurate = false;
  for (const auto& s : result.samples) {
    EXPECT_TRUE(std::isfinite(s.seconds));
    EXPECT_TRUE(std::isfinite(s.residual));
    any_accurate = any_accurate || s.accurate;
  }
  EXPECT_TRUE(any_accurate);  // power_iters >= 1 must pass the gate here

  core::TuningTable table;
  const auto best = core::learn_rsvd<float>(table, backend, 96, 48, 8, 1, 2.0, 7);
  const auto stored = table.get<Knob::Rsvd>(backend.name(), Precision::FP32);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->oversample, best.oversample);
  EXPECT_EQ(stored->power_iters, best.power_iters);
}

TEST(TuningTable, LearnBatchCrossoverFeedsTableAndTunedConfig) {
  ka::CpuBackend be(4);
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  core::TuningTable table;
  const index_t learned =
      core::learn_batch_crossover<float>(table, be, {8, 16}, 2, 1, cfg);
  ASSERT_TRUE(table.get<Knob::BatchCrossover>("cpu", Precision::FP32).has_value());
  EXPECT_EQ(*table.get<Knob::BatchCrossover>("cpu", Precision::FP32), learned);

  // The measured value becomes the BatchConfig default for this backend,
  // replacing the hardcoded crossover.
  const BatchConfig tuned = core::tuned_batch_config(table, be, Precision::FP32);
  EXPECT_EQ(tuned.crossover_n, learned);
  // Unrelated backends keep the static default.
  ka::SerialBackend serial;
  EXPECT_EQ(core::tuned_batch_config(table, serial, Precision::FP32).crossover_n,
            BatchConfig{}.crossover_n);
}

TEST(Tuner, BatchCrossoverRejectsBadArgs) {
  ka::TraceBackend trace;
  EXPECT_THROW(core::tune_batch_crossover<float>(trace), Error);
  ka::CpuBackend be(2);
  EXPECT_THROW(core::tune_batch_crossover<float>(be, {8}, 0), Error);
  EXPECT_THROW(core::tune_batch_crossover<float>(be, {8}, 2, 0), Error);
  // A width-1 pool cannot run the inter-problem schedule; learning a
  // crossover from intra-vs-intra noise must be refused.
  ka::CpuBackend solo(1);
  EXPECT_THROW(core::tune_batch_crossover<float>(solo, {8}), Error);
  ka::SerialBackend serial;
  EXPECT_THROW(core::tune_batch_crossover<float>(serial, {8}), Error);
}

// ---- Process-default tuning table location (UNISVD_TUNING_FILE / XDG) ----

namespace {

/// RAII save/restore of one environment variable around a test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace

TEST(TuningDefaultPath, EnvVarTakesPrecedence) {
  const std::string path = temp_path("unisvd_env_tuning.txt");
  ScopedEnv env("UNISVD_TUNING_FILE", path.c_str());
  EXPECT_EQ(core::default_tuning_path(), path);
}

TEST(TuningDefaultPath, XdgThenHomeFallback) {
  ScopedEnv env("UNISVD_TUNING_FILE", nullptr);
  {
    ScopedEnv xdg("XDG_CACHE_HOME", "/tmp/xdgcache");
    EXPECT_EQ(core::default_tuning_path(), "/tmp/xdgcache/unisvd/tuning.txt");
  }
  ScopedEnv xdg("XDG_CACHE_HOME", nullptr);
  ScopedEnv home("HOME", "/tmp/homedir");
  EXPECT_EQ(core::default_tuning_path(), "/tmp/homedir/.cache/unisvd/tuning.txt");
}

TEST(TuningDefaultPath, EmptyEnvDisablesDefaultTable) {
  ScopedEnv env("UNISVD_TUNING_FILE", "");
  EXPECT_TRUE(core::default_tuning_path().empty());
  EXPECT_TRUE(core::default_tuning_table().empty());
  // With no location, the default-table tuned_batch_config is all fallbacks…
  ka::CpuBackend be(2);
  EXPECT_EQ(core::tuned_batch_config(be, Precision::FP32).crossover_n,
            BatchConfig{}.crossover_n);
  // …and the persisting learn_batch_crossover refuses to run silently.
  EXPECT_THROW(core::learn_batch_crossover<float>(be, {8}, 2, 1), Error);
}

TEST(TuningDefaultPath, TunedBatchConfigReadsDefaultTable) {
  const std::string path = temp_path("unisvd_default_table.txt");
  {
    core::TuningTable table;
    table.set<Knob::BatchCrossover>("cpu", Precision::FP32, 224);
    ASSERT_TRUE(table.save(path));
  }
  ScopedEnv env("UNISVD_TUNING_FILE", path.c_str());
  ka::CpuBackend be(2);
  EXPECT_EQ(core::tuned_batch_config(be, Precision::FP32).crossover_n, 224);
  // FP16 falls back to the FP32 entry (nearest precision, same backend).
  EXPECT_EQ(core::tuned_batch_config(be, Precision::FP16).crossover_n, 224);
}

TEST(TuningDefaultPath, LearnPersistsToDefaultLocationCreatingDirectories) {
  const std::string dir = temp_path("unisvd_learn_dir");
  const std::string path = dir + "/nested/tuning.txt";
  ScopedEnv env("UNISVD_TUNING_FILE", path.c_str());
  ka::CpuBackend be(4);
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  const index_t learned = core::learn_batch_crossover<float>(be, {8}, 2, 1, cfg);
  // The learned value is on disk at the default location and round-trips
  // through the zero-plumbing config entry point.
  const auto loaded = core::TuningTable::load(path);
  ASSERT_TRUE(loaded.get<Knob::BatchCrossover>("cpu", Precision::FP32).has_value());
  EXPECT_EQ(*loaded.get<Knob::BatchCrossover>("cpu", Precision::FP32), learned);
  EXPECT_EQ(core::tuned_batch_config(be, Precision::FP32).crossover_n, learned);
  // Re-learning merges into the existing file instead of clobbering it.
  const index_t learned16 = core::learn_batch_crossover<Half>(be, {8}, 2, 1, cfg);
  const auto merged = core::TuningTable::load(path);
  EXPECT_EQ(*merged.get<Knob::BatchCrossover>("cpu", Precision::FP32), learned);
  ASSERT_TRUE(merged.get<Knob::BatchCrossover>("cpu", Precision::FP16).has_value());
  EXPECT_EQ(*merged.get<Knob::BatchCrossover>("cpu", Precision::FP16), learned16);
}

// ---------------------------------------------------------------------------
// Fused small_svd threshold entries
// ---------------------------------------------------------------------------

TEST(TuningTable, SmallSvdThresholdRoundTripsWithFallbacks) {
  core::TuningTable table;
  table.set<Knob::SmallSvdThreshold>("cpu", Precision::FP32, 48);
  table.set<Knob::SmallSvdThreshold>("serial", Precision::FP64, 0);  // "never faster"
  const std::string path = temp_path("unisvd_tuning_small_svd.txt");
  ASSERT_TRUE(table.save(path));

  const auto loaded = core::TuningTable::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  const auto hit = loaded.get<Knob::SmallSvdThreshold>("cpu", Precision::FP32);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 48);
  // 0 is a real entry ("path disabled"), not a missing one.
  ASSERT_TRUE(loaded.get<Knob::SmallSvdThreshold>("serial", Precision::FP64).has_value());
  EXPECT_EQ(*loaded.get<Knob::SmallSvdThreshold>("serial", Precision::FP64), 0);
  // Nearest-precision fallback (FP16 prefers the FP32 entry) and
  // caller-default rules match the other directives.
  EXPECT_EQ(loaded.get_or<Knob::SmallSvdThreshold>("cpu", Precision::FP16, 999), 48);
  EXPECT_EQ(loaded.get_or<Knob::SmallSvdThreshold>("gpu-sim", Precision::FP32, 999), 999);

  // Invalid entries are refused up front, like every other directive.
  EXPECT_THROW(table.set<Knob::SmallSvdThreshold>("cpu", Precision::FP32, -1), Error);
  EXPECT_THROW(table.set<Knob::SmallSvdThreshold>("a b", Precision::FP32, 8), Error);

  // tuned_batch_config / tuned_trunc_config drop the measured threshold
  // into the SvdConfig the solvers consult.
  ka::CpuBackend be(2);
  core::TuningTable cpu_table;
  cpu_table.set<Knob::SmallSvdThreshold>(be.name(), Precision::FP32, 24);
  EXPECT_EQ(core::tuned_batch_config(cpu_table, be, Precision::FP32)
                .svd.small_svd_threshold,
            24);
  EXPECT_EQ(core::tuned_trunc_config(cpu_table, be, Precision::FP32)
                .svd.small_svd_threshold,
            24);
}

TEST(Tuner, LearnSmallSvdThresholdFeedsTable) {
  ka::CpuBackend be(2);
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  core::TuningTable table;
  const index_t learned =
      core::learn_small_svd_threshold<float>(table, be, {8, 16}, 1, cfg);
  ASSERT_TRUE(table.get<Knob::SmallSvdThreshold>(be.name(), Precision::FP32).has_value());
  EXPECT_EQ(*table.get<Knob::SmallSvdThreshold>(be.name(), Precision::FP32), learned);
  // Prefix-win over the probed ladder: the learned threshold is a probed
  // size or 0 (the fused path lost at the smallest probe).
  EXPECT_TRUE(learned == 0 || learned == 8 || learned == 16);
}

TEST(Tuner, TuneSmallSvdThresholdReportsBothSidesPerSize) {
  ka::CpuBackend be(2);
  SvdConfig cfg;
  cfg.kernels.tilesize = 8;
  cfg.kernels.colperblock = 8;
  const auto result = core::tune_small_svd_threshold<float>(be, {8, 16}, 1, cfg);
  ASSERT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.samples[0].n, 8);
  EXPECT_EQ(result.samples[1].n, 16);
  for (const auto& s : result.samples) {
    EXPECT_GT(s.fused_seconds, 0.0);
    EXPECT_GT(s.pipeline_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Locale independence of the text format
// ---------------------------------------------------------------------------

namespace {

/// A numpunct facet with ',' as the decimal point and '.' as the thousands
/// separator, grouped by 3 — the de_DE shape that breaks naive numeric I/O.
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Install a comma-decimal global locale for the scope (streams default to
/// the global locale at construction, so this poisons every stream the code
/// under test creates without imbuing std::locale::classic()).
class GlobalLocaleGuard {
 public:
  GlobalLocaleGuard()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaNumpunct))) {}
  ~GlobalLocaleGuard() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

}  // namespace

TEST(TuningTable, RoundTripsUnderCommaDecimalLocale) {
  // Under a de_DE-style global locale an un-imbued ostream renders 1024 as
  // "1.024" and an un-imbued istream reads it back as 1 — corrupting the
  // table. write() and read() must imbue std::locale::classic() on their
  // own streams, so every directive round-trips (through explicitly imbued
  // caller streams too) under any global locale.
  GlobalLocaleGuard guard;

  core::TuningTable table;
  table.set<Knob::BatchCrossover>("cpu", Precision::FP32, 1024);  // grouping bait
  qr::KernelConfig kc;
  kc.tilesize = 16;
  kc.colperblock = 8;
  kc.splitk = 2;
  table.set<Knob::Kernels>("cpu", Precision::FP32, kc);
  table.set<Knob::Rsvd>("gpu-x", Precision::FP16, core::RsvdDefaults{1024, 3});
  table.set<Knob::SmallSvdThreshold>("cpu", Precision::FP32, 32);

  const auto expect_round_trip = [](const core::TuningTable& t) {
    EXPECT_EQ(t.get<Knob::BatchCrossover>("cpu", Precision::FP32), 1024);
    const auto k = t.get<Knob::Kernels>("cpu", Precision::FP32);
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(k->tilesize, 16);
    EXPECT_EQ(k->colperblock, 8);
    EXPECT_EQ(k->splitk, 2);
    EXPECT_TRUE(k->fused);
    const auto r = t.get<Knob::Rsvd>("gpu-x", Precision::FP16);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->oversample, 1024);
    EXPECT_EQ(r->power_iters, 3);
    EXPECT_EQ(t.get<Knob::SmallSvdThreshold>("cpu", Precision::FP32), 32);
  };

  // Worst case: the caller's streams are THEMSELVES imbued with the comma
  // locale; the implementation must still write/parse classic-locale text.
  std::ostringstream os;
  os.imbue(std::locale(std::locale::classic(), new CommaNumpunct));
  table.write(os);
  const std::string text = os.str();
  EXPECT_EQ(text.find(','), std::string::npos)
      << "comma leaked into the table text:\n" << text;
  EXPECT_EQ(text.find('.'), std::string::npos)
      << "a field was thousands-grouped:\n" << text;
  EXPECT_NE(text.find("1024"), std::string::npos) << text;

  std::istringstream is(text);
  is.imbue(std::locale(std::locale::classic(), new CommaNumpunct));
  std::size_t malformed = 0;
  const auto loaded = core::TuningTable::read(is, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(loaded.size(), table.size());
  expect_round_trip(loaded);

  // And the file path round trip under the poisoned GLOBAL locale.
  const std::string path = temp_path("unisvd_tuning_locale.txt");
  ASSERT_TRUE(table.save(path));
  const auto from_file = core::TuningTable::load(path);
  EXPECT_EQ(from_file.size(), table.size());
  expect_round_trip(from_file);
}

TEST(TuningTable, ConcurrentLearnAndSaveNeverCorruptTheFile) {
  // Two workers learn into their own tables and race save() against the
  // SAME path (the UNISVD_TUNING_FILE sharing scenario: two processes or
  // threads autotuning concurrently), while a reader load()s throughout.
  // The atomic temp-file-plus-rename contract must make every observable
  // file state a COMPLETE table from one writer or the other — a reader
  // must never see a torn or partially written table.
  const std::string path = temp_path("unisvd_tuning_concurrent.txt");
  std::filesystem::remove(path);
  ka::Backend& backend = ka::default_backend();

  // Each writer's table has exactly kEntries entries, with writer-tagged
  // keys: any mixed or truncated file would load with a different size.
  constexpr std::size_t kEntries = 9;
  auto build_table = [&](const std::string& tag, Precision p,
                         std::uint64_t seed) {
    core::TuningTable table;
    (void)core::learn_small_svd_threshold<float>(table, backend, {4, 8}, 1,
                                                 SvdConfig{}, seed);
    ASSERT_EQ(table.size(), 1u);  // the learned threshold entry
    for (int i = 0; i < 8; ++i) {
      table.set<Knob::BatchCrossover>(tag + std::to_string(i), p, 100 + i);
    }
    ASSERT_EQ(table.size(), kEntries);
    std::atomic<int> failed_saves{0};
    std::thread t([&svc_table = table, path, &failed_saves] {
      for (int iter = 0; iter < 25; ++iter) {
        if (!svc_table.save(path)) failed_saves.fetch_add(1);
      }
    });
    int bad_loads = 0;
    for (int iter = 0; iter < 25; ++iter) {
      const auto loaded = core::TuningTable::load(path);
      // Complete table (either writer's) or — before the very first rename
      // landed — an absent file loading as empty. Nothing in between.
      if (loaded.size() != kEntries && loaded.size() != 0) ++bad_loads;
    }
    t.join();
    EXPECT_EQ(failed_saves.load(), 0);
    EXPECT_EQ(bad_loads, 0);
  };

  std::thread writer_a([&] { build_table("wa", Precision::FP32, 1); });
  build_table("wb", Precision::FP64, 2);
  writer_a.join();

  // The last rename wins; whichever writer it was, the file is a complete,
  // parseable table.
  std::size_t malformed = 0;
  std::ifstream is(path);
  const auto final_table = core::TuningTable::read(is, &malformed);
  EXPECT_EQ(malformed, 0u);
  EXPECT_EQ(final_table.size(), kEntries);
}
