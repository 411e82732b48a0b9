/// Deterministic tests of the asynchronous serving layer
/// (serve::SvdService): byte identity with the synchronous solvers, queue
/// admission (block/reject, full queue, post-shutdown), round-robin tenant
/// fairness and priority/deadline ordering through the manual drain path
/// (workers = 0 makes the service a synchronous object), result caching and
/// in-flight coalescing, fault containment for poison jobs, move-not-copy
/// result delivery, graceful shutdown, and the stats conservation laws.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "serve/svd_service.hpp"
#include "test_util.hpp"

using namespace unisvd;
using serve::AdmissionPolicy;
using serve::DrainMode;
using serve::JobHandle;
using serve::ServeConfig;
using serve::ServeStats;
using serve::SubmitOptions;
using serve::SvdService;

namespace {

/// Manual-drain service: no workers, no cache — every test controls
/// execution and sharing explicitly unless it opts back in.
ServeConfig manual_config() {
  ServeConfig cfg;
  cfg.workers = 0;
  cfg.cache_capacity = 0;
  return cfg;
}

Matrix<float> test_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  return testutil::convert<float>(testutil::random_matrix(rows, cols, seed));
}

void drain_all(SvdService& svc) {
  while (svc.drain_once() > 0) {
  }
}

}  // namespace

TEST(Serve, SubmitWaitMatchesSyncByteIdentical) {
  const Matrix<float> a = test_matrix(40, 40, 7);
  SvdService svc(manual_config());
  JobHandle h = svc.submit<float>(a.view());
  EXPECT_FALSE(h.done());
  EXPECT_EQ(h.try_get(), nullptr);
  ASSERT_EQ(svc.drain_once(), 1u);
  ASSERT_TRUE(h.done());

  const SvdReport& async_rep = h.report();
  EXPECT_EQ(async_rep.status, SvdStatus::Ok);
  const SvdReport sync_rep = svd_values_report<float>(a.view());
  ASSERT_EQ(async_rep.values.size(), sync_rep.values.size());
  for (std::size_t i = 0; i < sync_rep.values.size(); ++i) {
    EXPECT_EQ(async_rep.values[i], sync_rep.values[i]) << "i=" << i;
  }
}

TEST(Serve, SubmitCopiesInputCallerBufferMayDie) {
  SvdService svc(manual_config());
  JobHandle h;
  std::vector<double> sync_values;
  {
    const Matrix<float> a = test_matrix(24, 24, 11);
    sync_values = svd_values_report<float>(a.view()).values;
    h = svc.submit<float>(a.view());
  }  // the caller's matrix is destroyed before the job runs
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_EQ(h.report().values, sync_values);
}

TEST(Serve, TransposedViewMatchesCompactSubmission) {
  // A lazy-transposed view must solve (and cache-key) as its logical matrix.
  const Matrix<float> a = test_matrix(20, 32, 13);
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 8;
  SvdService svc(cfg);
  JobHandle h = svc.submit<float>(a.view().transposed());
  ASSERT_EQ(svc.drain_once(), 1u);
  const SvdReport sync_rep =
      svd_values_report<float>(ConstMatrixView<float>(a.view()).transposed());
  EXPECT_EQ(h.report().values, sync_rep.values);

  // Same logical content through a compact copy: must be a cache hit.
  Matrix<float> compact(32, 20);
  for (index_t j = 0; j < 20; ++j) {
    for (index_t i = 0; i < 32; ++i) compact(i, j) = a(j, i);
  }
  JobHandle h2 = svc.submit<float>(compact.view());
  EXPECT_TRUE(h2.done());
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(Serve, DrainOnceRoundRobinFairness) {
  ServeConfig cfg = manual_config();
  cfg.max_wave = 3;
  SvdService svc(cfg);

  // Tenant 5 floods; tenants 1 and 2 submit one job each, AFTER the flood.
  std::vector<JobHandle> flood;
  for (int i = 0; i < 6; ++i) {
    flood.push_back(svc.submit<float>(test_matrix(8, 8, 100 + i).view(),
                                      SvdConfig{}, SubmitOptions{.tenant = 5}));
  }
  JobHandle t1 = svc.submit<float>(test_matrix(8, 8, 200).view(), SvdConfig{},
                                   SubmitOptions{.tenant = 1});
  JobHandle t2 = svc.submit<float>(test_matrix(8, 8, 201).view(), SvdConfig{},
                                   SubmitOptions{.tenant = 2});

  // One wave of 3, round-robin across tenant ids: every tenant is served
  // once despite tenant 5 holding 6 of the 8 queued jobs.
  ASSERT_EQ(svc.drain_once(), 3u);
  EXPECT_TRUE(t1.done());
  EXPECT_TRUE(t2.done());
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.tenants.at(1).completed, 1u);
  EXPECT_EQ(s.tenants.at(2).completed, 1u);
  EXPECT_EQ(s.tenants.at(5).completed, 1u);
  drain_all(svc);
  for (auto& h : flood) EXPECT_EQ(h.status(), SvdStatus::Ok);
}

TEST(Serve, PriorityThenDeadlineThenSubmissionOrder) {
  ServeConfig cfg = manual_config();
  cfg.max_wave = 1;
  SvdService svc(cfg);

  JobHandle low = svc.submit<float>(test_matrix(8, 8, 1).view(), SvdConfig{},
                                    SubmitOptions{.priority = 0});
  JobHandle late = svc.submit<float>(
      test_matrix(8, 8, 2).view(), SvdConfig{},
      SubmitOptions{.priority = 1, .deadline_seconds = 1e6});
  JobHandle soon = svc.submit<float>(
      test_matrix(8, 8, 3).view(), SvdConfig{},
      SubmitOptions{.priority = 1, .deadline_seconds = 60.0});

  // Wave 1: highest priority wins; among equals the earlier deadline.
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_TRUE(soon.done());
  EXPECT_FALSE(late.done());
  EXPECT_FALSE(low.done());
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_TRUE(late.done());
  EXPECT_FALSE(low.done());
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_TRUE(low.done());
}

TEST(Serve, CacheHitAndInFlightCoalescing) {
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 8;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(16, 16, 21);

  JobHandle first = svc.submit<float>(a.view());
  JobHandle twin = svc.submit<float>(a.view());  // identical, still queued
  EXPECT_EQ(svc.stats().coalesced, 1u);
  EXPECT_EQ(svc.queue_depth(), 1u);  // ONE physical job for both handles

  ASSERT_EQ(svc.drain_once(), 1u);
  ASSERT_TRUE(first.done());
  ASSERT_TRUE(twin.done());
  EXPECT_EQ(first.report().values, twin.report().values);

  JobHandle hit = svc.submit<float>(a.view());  // after completion: a hit
  EXPECT_TRUE(hit.done());
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.completed, 1u);  // one solve served three submissions
  EXPECT_EQ(hit.report().values, first.report().values);
}

TEST(Serve, CacheKeyedByConfigNotJustContent) {
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 8;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(16, 16, 22);

  JobHandle h1 = svc.submit<float>(a.view());
  ASSERT_EQ(svc.drain_once(), 1u);

  SvdConfig other;  // different dispatch threshold => different result path
  other.small_svd_threshold = 0;
  JobHandle h2 = svc.submit<float>(a.view(), other);
  EXPECT_FALSE(h2.done());  // not a hit: the config is part of the key
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(h1.report().status, SvdStatus::Ok);
  EXPECT_EQ(h2.report().status, SvdStatus::Ok);
  EXPECT_TRUE(h1.report().small_path);
  EXPECT_FALSE(h2.report().small_path);
}

TEST(Serve, CacheEvictionIsLru) {
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 2;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(12, 12, 31);
  const Matrix<float> b = test_matrix(12, 12, 32);
  const Matrix<float> c = test_matrix(12, 12, 33);

  (void)svc.submit<float>(a.view());
  drain_all(svc);
  (void)svc.submit<float>(b.view());
  drain_all(svc);
  // Touch a (hit) so b becomes least recently used, then insert c.
  JobHandle touch = svc.submit<float>(a.view());
  EXPECT_TRUE(touch.done());
  (void)svc.submit<float>(c.view());
  drain_all(svc);
  EXPECT_EQ(svc.stats().cache_entries, 2u);

  JobHandle a_again = svc.submit<float>(a.view());
  EXPECT_TRUE(a_again.done());  // survived: recently used
  JobHandle b_again = svc.submit<float>(b.view());
  EXPECT_FALSE(b_again.done());  // evicted: must re-solve
  drain_all(svc);
}

TEST(Serve, PoisonJobIsIsolatedAndNeverCached) {
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 8;
  SvdService svc(cfg);
  Matrix<float> poison = test_matrix(12, 12, 41);
  poison(3, 4) = std::numeric_limits<float>::quiet_NaN();
  const Matrix<float> good = test_matrix(12, 12, 42);

  JobHandle bad = svc.submit<float>(poison.view());
  JobHandle ok = svc.submit<float>(good.view());
  drain_all(svc);

  EXPECT_EQ(bad.status(), SvdStatus::NonFinite);
  EXPECT_TRUE(bad.report().values.empty());
  EXPECT_FALSE(bad.report().status_message.empty());
  EXPECT_EQ(ok.status(), SvdStatus::Ok);

  // Failures are not cached: resubmitting the poison solves (and fails)
  // again instead of replaying a cached failure.
  JobHandle bad2 = svc.submit<float>(poison.view());
  EXPECT_FALSE(bad2.done());
  drain_all(svc);
  EXPECT_EQ(bad2.status(), SvdStatus::NonFinite);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.cache_entries, 1u);  // only the good result
}

TEST(Serve, RejectWhenFull) {
  ServeConfig cfg = manual_config();
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::Reject;
  SvdService svc(cfg);

  JobHandle h1 = svc.submit<float>(test_matrix(8, 8, 51).view());
  JobHandle h2 = svc.submit<float>(test_matrix(8, 8, 52).view());
  JobHandle h3 = svc.submit<float>(test_matrix(8, 8, 53).view());
  EXPECT_TRUE(h3.done());  // rejected immediately, no solve
  EXPECT_EQ(h3.status(), SvdStatus::Rejected);
  EXPECT_TRUE(h3.report().values.empty());

  drain_all(svc);
  EXPECT_EQ(h1.status(), SvdStatus::Ok);
  EXPECT_EQ(h2.status(), SvdStatus::Ok);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Serve, BlockWhenFullAppliesBackpressure) {
  // Real workers + a tiny queue: Block admission must throttle the
  // submitting thread, and every job must still complete.
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2;
  cfg.max_wave = 1;
  cfg.admission = AdmissionPolicy::Block;
  cfg.cache_capacity = 0;
  SvdService svc(cfg);

  std::vector<JobHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(svc.submit<float>(test_matrix(10, 10, 60 + i).view()));
  }
  for (auto& h : handles) EXPECT_EQ(h.status(), SvdStatus::Ok);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.accepted, 12u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_LE(s.queue_depth_peak, 2u);
}

TEST(Serve, SubmitAfterShutdownIsRejected) {
  SvdService svc(manual_config());
  JobHandle before = svc.submit<float>(test_matrix(8, 8, 71).view());
  svc.shutdown(DrainMode::Cancel);
  JobHandle after = svc.submit<float>(test_matrix(8, 8, 72).view());

  EXPECT_EQ(before.status(), SvdStatus::Cancelled);
  ASSERT_TRUE(after.done());
  EXPECT_EQ(after.status(), SvdStatus::Rejected);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(svc.drain_once(), 0u);  // nothing left, and nothing crashes
}

TEST(Serve, ShutdownDrainCompletesQueuedJobs) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.cache_capacity = 0;
  SvdService svc(cfg);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(svc.submit<float>(test_matrix(12, 12, 80 + i).view()));
  }
  svc.shutdown(DrainMode::Drain);
  for (auto& h : handles) EXPECT_EQ(h.status(), SvdStatus::Ok);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.accepted, 8u);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(Serve, ShutdownCancelFailsQueuedJobs) {
  SvdService svc(manual_config());
  std::vector<JobHandle> handles;
  for (int i = 0; i < 5; ++i) {
    handles.push_back(svc.submit<float>(test_matrix(12, 12, 90 + i).view()));
  }
  svc.shutdown(DrainMode::Cancel);
  for (auto& h : handles) {
    EXPECT_EQ(h.status(), SvdStatus::Cancelled);
    EXPECT_TRUE(h.report().values.empty());
  }
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.accepted, 5u);
  EXPECT_EQ(s.cancelled, 5u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(Serve, BatchOfOneTakesDrainPath) {
  // The scheduling-engine edge case: a wave of exactly one job.
  ServeConfig cfg = manual_config();
  cfg.max_wave = 16;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(48, 20, 95);  // rectangular, tall
  JobHandle h = svc.submit<float>(a.view());
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_EQ(h.report().values, svd_values_report<float>(a.view()).values);
  EXPECT_EQ(svc.stats().waves, 1u);
}

TEST(Serve, ZeroSizeViewCompletesWithInvalidInput) {
  SvdService svc(manual_config());
  const ConstMatrixView<float> empty(nullptr, 0, 5, 1);
  JobHandle h = svc.submit<float>(empty);
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_EQ(h.status(), SvdStatus::InvalidInput);
  EXPECT_TRUE(h.report().values.empty());
  EXPECT_FALSE(h.report().status_message.empty());
}

TEST(Serve, TruncatedSubmissionMatchesSync) {
  const Matrix<float> a = test_matrix(60, 24, 97);
  SvdService svc(manual_config());
  TruncConfig tc;
  tc.rank = 4;
  serve::TruncJobHandle h = svc.submit_truncated<float>(a.view(), tc);
  ASSERT_EQ(svc.drain_once(), 1u);
  const TruncReport& async_rep = h.report();
  ASSERT_EQ(async_rep.status, SvdStatus::Ok);
  const TruncReport sync_rep = svd_truncated_report<float>(a.view(), tc);
  EXPECT_EQ(async_rep.values, sync_rep.values);  // same seed => bit identical
  EXPECT_EQ(async_rep.rank, sync_rep.rank);
}

TEST(Serve, TakeMovesResultOutOfPrivateState) {
  // The no-copy delivery contract: with the cache bypassed, the report the
  // worker published is the very buffer take() hands back (pointer
  // identity), not a copy.
  SvdService svc(manual_config());
  SvdConfig cfg;
  cfg.job = SvdJob::Thin;
  JobHandle h = svc.submit<float>(test_matrix(20, 20, 99).view(), cfg,
                                  SubmitOptions{.use_cache = false});
  ASSERT_EQ(svc.drain_once(), 1u);
  const double* u_buffer = h.report().u.data();
  ASSERT_NE(u_buffer, nullptr);
  const SvdReport taken = h.take();
  EXPECT_EQ(taken.u.data(), u_buffer);  // moved, not copied
}

TEST(Serve, TakeCopiesWhenStateIsShared) {
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 4;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(16, 16, 101);
  JobHandle h = svc.submit<float>(a.view());  // cache holds the state too
  ASSERT_EQ(svc.drain_once(), 1u);
  const SvdReport taken = h.take();
  EXPECT_FALSE(taken.values.empty());
  // The cached state is intact: a resubmission still hits and reads values.
  JobHandle hit = svc.submit<float>(a.view());
  ASSERT_TRUE(hit.done());
  EXPECT_EQ(hit.report().values, taken.values);
}

TEST(Serve, ExpiredJobIsShedNotSolved) {
  // A job whose deadline has already passed when a worker claims it is
  // failed with Expired instead of solved: under overload the capacity
  // goes to jobs that can still be on time.
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 8;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(16, 16, 130);

  JobHandle dead = svc.submit<float>(
      a.view(), SvdConfig{}, SubmitOptions{.deadline_seconds = -1.0});
  JobHandle live = svc.submit<float>(test_matrix(16, 16, 131).view());
  EXPECT_FALSE(dead.done());  // shedding happens at claim, not at submit
  drain_all(svc);

  EXPECT_EQ(dead.status(), SvdStatus::Expired);
  EXPECT_TRUE(dead.report().values.empty());
  EXPECT_FALSE(dead.report().status_message.empty());
  EXPECT_EQ(live.status(), SvdStatus::Ok);

  // The shed job's pending cache anchor was withdrawn: an identical
  // resubmission with a generous deadline solves instead of inheriting
  // the expiry.
  JobHandle retry = svc.submit<float>(a.view());
  EXPECT_FALSE(retry.done());  // not a hit, not coalesced onto the corpse
  drain_all(svc);
  EXPECT_EQ(retry.status(), SvdStatus::Ok);

  const ServeStats s = svc.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.coalesced, 0u);
  // Conservation: accepted == completed + cancelled + expired.
  EXPECT_EQ(s.accepted, s.completed + s.cancelled + s.expired);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Serve, ExpiredJobsDoNotConsumeWaveSlots) {
  // max_wave = 2 with two expired jobs ahead of two live ones: one drain
  // must shed both corpses AND solve both live jobs — shedding is free.
  ServeConfig cfg = manual_config();
  cfg.max_wave = 2;
  SvdService svc(cfg);

  JobHandle d1 = svc.submit<float>(
      test_matrix(8, 8, 140).view(), SvdConfig{},
      SubmitOptions{.priority = 2, .deadline_seconds = -1.0});
  JobHandle d2 = svc.submit<float>(
      test_matrix(8, 8, 141).view(), SvdConfig{},
      SubmitOptions{.priority = 2, .deadline_seconds = -1.0});
  JobHandle l1 = svc.submit<float>(test_matrix(8, 8, 142).view());
  JobHandle l2 = svc.submit<float>(test_matrix(8, 8, 143).view());

  EXPECT_EQ(svc.drain_once(), 4u);  // 2 shed + 2 solved, one wave
  EXPECT_EQ(d1.status(), SvdStatus::Expired);
  EXPECT_EQ(d2.status(), SvdStatus::Expired);
  EXPECT_EQ(l1.status(), SvdStatus::Ok);
  EXPECT_EQ(l2.status(), SvdStatus::Ok);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.expired, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.waves, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(Serve, SheddingDisabledSolvesExpiredJobs) {
  // shed_expired = false restores the historic behaviour: a stale job is
  // still solved and reports Ok.
  ServeConfig cfg = manual_config();
  cfg.shed_expired = false;
  SvdService svc(cfg);
  JobHandle stale = svc.submit<float>(
      test_matrix(12, 12, 150).view(), SvdConfig{},
      SubmitOptions{.deadline_seconds = -1.0});
  ASSERT_EQ(svc.drain_once(), 1u);
  EXPECT_EQ(stale.status(), SvdStatus::Ok);
  EXPECT_EQ(svc.stats().expired, 0u);
}

TEST(Serve, EachJobIsChargedItsOwnCompletionTime) {
  // A serial backend solves the wave in claim order (tenant 0, then 1), so
  // the tiny job completes long before the large one. Charging every job
  // the wave's end would bill the tiny job the large job's solve.
  ka::SerialBackend serial;
  SvdService svc(manual_config(), serial);
  const Matrix<float> tiny = test_matrix(8, 8, 301);
  const Matrix<float> large = test_matrix(384, 384, 302);
  JobHandle t0 = svc.submit<float>(tiny.view(), SvdConfig{}, SubmitOptions{.tenant = 0});
  JobHandle t1 = svc.submit<float>(large.view(), SvdConfig{}, SubmitOptions{.tenant = 1});
  ASSERT_EQ(svc.drain_once(), 2u);
  ASSERT_EQ(t0.status(), SvdStatus::Ok);
  ASSERT_EQ(t1.status(), SvdStatus::Ok);
  const ServeStats s = svc.stats();
  EXPECT_EQ(s.waves, 1u);
  EXPECT_LT(s.tenants.at(0).max_latency_seconds,
            0.5 * s.tenants.at(1).max_latency_seconds);
}

TEST(Serve, StatsConservationAndQueueGauges) {
  ServeConfig cfg = manual_config();
  cfg.queue_capacity = 4;
  cfg.admission = AdmissionPolicy::Reject;
  cfg.cache_capacity = 4;
  SvdService svc(cfg);
  const Matrix<float> a = test_matrix(10, 10, 111);

  (void)svc.submit<float>(a.view());                       // accepted
  (void)svc.submit<float>(a.view());                       // coalesced
  (void)svc.submit<float>(test_matrix(10, 10, 112).view()); // accepted
  EXPECT_EQ(svc.queue_depth(), 2u);
  drain_all(svc);
  (void)svc.submit<float>(a.view());                       // cache hit
  for (int i = 0; i < 6; ++i) {  // 4 accepted, 2 rejected (capacity 4)
    (void)svc.submit<float>(test_matrix(10, 10, 120 + i).view());
  }
  drain_all(svc);

  const ServeStats s = svc.stats();
  // Every submission is exactly one of the four admission outcomes.
  EXPECT_EQ(s.accepted + s.rejected + s.cache_hits + s.coalesced, 10u);
  EXPECT_EQ(s.accepted, 6u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.coalesced, 1u);
  // Idle service: everything accepted was completed (nothing cancelled).
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.queue_depth_peak, 4u);
  EXPECT_GE(s.waves, 1u);
  EXPECT_GT(s.tenants.at(0).total_latency_seconds, 0.0);
  EXPECT_GE(s.tenants.at(0).max_latency_seconds, 0.0);
}
