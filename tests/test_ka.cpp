/// Tests for the kernel-abstraction runtime: thread pool, workgroup model
/// (items/barrier semantics, local and private memory), backends and trace
/// recording.

#include <gtest/gtest.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ka/backend.hpp"
#include "ka/stage_times.hpp"

using namespace unisvd;

TEST(ThreadPool, RunsAllIndicesExactlyOnce) {
  ka::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](index_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

#if defined(__linux__)
TEST(ThreadPool, DefaultWidthFollowsAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  if (CPU_COUNT(&original) < 2) {
    GTEST_SKIP() << "the affinity mask holds fewer than 2 CPUs";
  }
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int c = 0, picked = 0; c < CPU_SETSIZE && picked < 2; ++c) {
    if (CPU_ISSET(c, &original)) {
      CPU_SET(c, &two);
      ++picked;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(two), &two), 0);
  unsigned width = 0;
  {
    ka::ThreadPool pool(0);
    width = pool.size();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(width, 2u);
}
#endif

TEST(ThreadPool, EmptyAndSingleRange) {
  ka::ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(0, [&](index_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, [&](index_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ka::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](index_t i) {
                                   if (i == 37) throw Error("boom");
                                 }),
               Error);
  // Pool stays usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](index_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SkipsRemainingIterationsAfterFailure) {
  // Once an iteration throws, the job's result is discarded, so the pool
  // must not burn through the rest of the index space (a 1000-problem
  // batch with a bad first problem should fail fast, not after 999 SVDs).
  ka::ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(200,
                        [&](index_t) {
                          if (executed.fetch_add(1) == 0) {
                            throw Error("first iteration fails");
                          }
                          // Make each survivor slower than the failure path,
                          // so the executed count stays near the number of
                          // in-flight iterations on any machine.
                          const auto t0 = std::chrono::steady_clock::now();
                          while (std::chrono::steady_clock::now() - t0 <
                                 std::chrono::microseconds(50)) {
                          }
                        }),
      Error);
  // Only iterations already in flight when the failure landed (plus a small
  // visibility window) may still run; generous margin regardless.
  EXPECT_LT(executed.load(), 150);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ka::ThreadPool pool(3);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for(50, [&](index_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

TEST(ThreadPool, SingleThreadedPoolWorks) {
  ka::ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel_for(64, [&](index_t) { n++; });
  EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a job of the same pool must run its
  // iterations inline on the current thread (the batch solver's
  // one-problem-per-slot mode depends on this), not deadlock on the single
  // job slot.
  ka::ThreadPool pool(4);
  EXPECT_FALSE(pool.in_job());
  std::atomic<long> total{0};
  std::atomic<int> inline_ok{0};
  pool.parallel_for(8, [&](index_t outer) {
    EXPECT_TRUE(pool.in_job());
    const auto outer_thread = std::this_thread::get_id();
    pool.parallel_for(16, [&](index_t inner) {
      total += outer * 16 + inner;
      if (std::this_thread::get_id() == outer_thread) inline_ok++;
    });
  });
  EXPECT_FALSE(pool.in_job());
  EXPECT_EQ(total.load(), 127 * 128 / 2);
  EXPECT_EQ(inline_ok.load(), 8 * 16);  // every inner iteration stayed inline
}

TEST(ThreadPool, ConcurrentTopLevelSubmissionsSerialize) {
  // Two external threads driving the same pool at once: the submit lock
  // must keep the single job slot coherent and every iteration must run
  // exactly once.
  ka::ThreadPool pool(3);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::atomic<int>> hits_a(64);
    std::vector<std::atomic<int>> hits_b(64);
    std::thread other([&] {
      pool.parallel_for(64, [&](index_t i) { hits_b[static_cast<std::size_t>(i)]++; });
    });
    pool.parallel_for(64, [&](index_t i) { hits_a[static_cast<std::size_t>(i)]++; });
    other.join();
    for (auto& h : hits_a) EXPECT_EQ(h.load(), 1);
    for (auto& h : hits_b) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, WorkStealingRunsNestedIterationsOnIdleSlots) {
  // A work-stealing job with fewer top-level items than pool slots: the
  // workers that find the range empty must steal iterations of the nested
  // parallel_for published by the busy slot. The nested iterations
  // rendezvous, so the test deadlock-times-out (and fails the >= 2 distinct
  // threads assertion) if stealing never happens.
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  std::mutex m;
  std::condition_variable cv;
  int entered = 0;
  std::set<std::thread::id> nested_ids;
  bool timed_out = false;
  pool.parallel_for(
      2,  // two slots busy, two pool threads left to steal
      [&](index_t o) {
        if (o != 0) return;
        pool.parallel_for(2, [&](index_t) {
          std::unique_lock lock(m);
          nested_ids.insert(std::this_thread::get_id());
          ++entered;
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(20), [&] { return entered >= 2; })) {
            timed_out = true;
          }
        });
      },
      opts);
  EXPECT_FALSE(timed_out);
  EXPECT_GE(nested_ids.size(), 2u);
}

TEST(ThreadPool, WorkStealingEveryIterationExactlyOnce) {
  // Property: under the work-stealing schedule, every top-level and every
  // nested index executes exactly once, whatever mix of long (nested) and
  // short iterations the job carries.
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  for (int rep = 0; rep < 25; ++rep) {
    constexpr index_t kOuter = 12;
    constexpr index_t kInner = 64;
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
    pool.parallel_for(
        kOuter,
        [&](index_t o) {
          outer_hits[static_cast<std::size_t>(o)]++;
          if (o < 3) {  // a few "large problems" publish nested ranges
            pool.parallel_for(kInner, [&](index_t i) {
              inner_hits[static_cast<std::size_t>(o * kInner + i)]++;
            });
          }
        },
        opts);
    for (auto& h : outer_hits) ASSERT_EQ(h.load(), 1);
    for (index_t o = 0; o < 3; ++o) {
      for (index_t i = 0; i < kInner; ++i) {
        ASSERT_EQ(inner_hits[static_cast<std::size_t>(o * kInner + i)].load(), 1)
            << "outer " << o << " inner " << i;
      }
    }
    for (index_t o = 3; o < kOuter; ++o) {
      for (index_t i = 0; i < kInner; ++i) {
        ASSERT_EQ(inner_hits[static_cast<std::size_t>(o * kInner + i)].load(), 0);
      }
    }
  }
}

TEST(ThreadPool, WorkStealingSoakManyProducers) {
  // Soak: external producer threads hammer the pool with work-stealing jobs
  // whose iterations publish nested ranges (producers serialize on the
  // submit lock, stealers roam within each job). Every item must execute
  // exactly once, with no deadlock.
  ka::ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kRounds = 15;
  constexpr index_t kOuter = 8;
  constexpr index_t kInner = 32;
  std::atomic<long> total{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      ka::ParallelForOptions opts;
      opts.work_stealing = true;
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(
            kOuter,
            [&](index_t o) {
              if (o % 2 == 0) {
                pool.parallel_for(kInner, [&](index_t) { total++; });
              } else {
                total++;
              }
            },
            opts);
      }
    });
  }
  for (auto& p : producers) p.join();
  // Per job: 4 even outers x 32 nested + 4 odd outers.
  EXPECT_EQ(total.load(), long(kProducers) * kRounds * (4 * kInner + 4));
}

TEST(ThreadPool, WorkStealingPropagatesNestedExceptions) {
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  EXPECT_THROW(pool.parallel_for(
                   2,
                   [&](index_t o) {
                     pool.parallel_for(50, [&](index_t i) {
                       if (o == 0 && i == 17) throw Error("nested boom");
                     });
                   },
                   opts),
               Error);
  // Pool (and its nested-job registry) stays usable after the failure.
  std::atomic<int> n{0};
  pool.parallel_for(
      3, [&](index_t) { pool.parallel_for(10, [&](index_t) { n++; }); }, opts);
  EXPECT_EQ(n.load(), 30);
}

TEST(ThreadPool, ScopedInlineNestedSuppressesPublication) {
  // Inside a work-stealing job, a slot holding the suppression scope must
  // keep its nested iterations on its own thread (the Mixed schedule's
  // small-problem contract), while unsuppressed slots still publish.
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  std::atomic<int> suppressed_off_thread{0};
  std::atomic<long> suppressed_runs{0};
  for (int rep = 0; rep < 10; ++rep) {
    pool.parallel_for(
        4,
        [&](index_t o) {
          if (o == 0) {
            ka::ScopedInlineNested inline_nested;
            const auto own = std::this_thread::get_id();
            pool.parallel_for(64, [&](index_t) {
              suppressed_runs++;
              if (std::this_thread::get_id() != own) suppressed_off_thread++;
            });
          }
        },
        opts);
  }
  EXPECT_EQ(suppressed_off_thread.load(), 0);
  EXPECT_EQ(suppressed_runs.load(), 10 * 64);
}

TEST(ThreadPool, NestedStaysInlineWithoutWorkStealing) {
  // Plain jobs keep the historic contract: nested ranges never leave the
  // owning thread (batch inter-problem scheduling depends on this).
  ka::ThreadPool pool(4);
  std::atomic<int> off_thread{0};
  pool.parallel_for(4, [&](index_t) {
    const auto own = std::this_thread::get_id();
    pool.parallel_for(32, [&](index_t) {
      if (std::this_thread::get_id() != own) off_thread++;
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ChunkedStealingRunsEveryIterationExactlyOnce) {
  // Property: with helpers claiming half-remainder ranges, every top-level
  // and nested index executes exactly once. The nested range is large so
  // chunked claims really hand out multi-index blocks (first steal takes up
  // to half of 256).
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  for (int rep = 0; rep < 30; ++rep) {
    constexpr index_t kOuter = 8;
    constexpr index_t kInner = 256;
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
    pool.parallel_for(
        kOuter,
        [&](index_t o) {
          outer_hits[static_cast<std::size_t>(o)]++;
          if (o < 2) {  // two "large problems" publish nested ranges
            pool.parallel_for(kInner, [&](index_t i) {
              inner_hits[static_cast<std::size_t>(o * kInner + i)]++;
            });
          }
        },
        opts);
    for (auto& h : outer_hits) ASSERT_EQ(h.load(), 1);
    for (index_t o = 0; o < 2; ++o) {
      for (index_t i = 0; i < kInner; ++i) {
        ASSERT_EQ(inner_hits[static_cast<std::size_t>(o * kInner + i)].load(), 1)
            << "outer " << o << " inner " << i;
      }
    }
  }
}

TEST(ThreadPool, ChunkedStealingSpreadsNestedRangeAcrossThreads) {
  // With a blocking rendezvous inside a published nested range, chunked
  // stealing must still hand iterations to at least two distinct threads
  // (the first helper claims a block, the owner keeps draining singles).
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  std::mutex m;
  std::condition_variable cv;
  int entered = 0;
  std::set<std::thread::id> nested_ids;
  bool timed_out = false;
  pool.parallel_for(
      2,
      [&](index_t o) {
        if (o != 0) return;
        pool.parallel_for(2, [&](index_t) {
          std::unique_lock lock(m);
          nested_ids.insert(std::this_thread::get_id());
          ++entered;
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(20), [&] { return entered >= 2; })) {
            timed_out = true;
          }
        });
      },
      opts);
  EXPECT_FALSE(timed_out);
  EXPECT_GE(nested_ids.size(), 2u);
}

TEST(ThreadPool, ChunkedStealingPropagatesNestedExceptions) {
  // A throw inside a chunk-claimed block must surface at the nested caller
  // and the pool must stay usable.
  ka::ThreadPool pool(4);
  ka::ParallelForOptions opts;
  opts.work_stealing = true;
  EXPECT_THROW(pool.parallel_for(
                   2,
                   [&](index_t o) {
                     pool.parallel_for(200, [&](index_t i) {
                       if (o == 0 && i == 150) throw Error("chunked boom");
                     });
                   },
                   opts),
               Error);
  std::atomic<int> n{0};
  pool.parallel_for(
      3, [&](index_t) { pool.parallel_for(10, [&](index_t) { n++; }); }, opts);
  EXPECT_EQ(n.load(), 30);
}

TEST(ThreadPool, DistributesAcrossThreads) {
  // Rendezvous: the first iteration blocks until a second thread has
  // entered the job, proving at least two distinct threads execute it (the
  // timeout only bounds the failure mode).
  ka::ThreadPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  int entered = 0;
  std::set<std::thread::id> ids;
  pool.parallel_for(8, [&](index_t) {
    std::unique_lock lock(m);
    ids.insert(std::this_thread::get_id());
    ++entered;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return entered >= 2; });
  });
  EXPECT_GE(ids.size(), 2u);
}

namespace {

/// A kernel exercising private persistence across phases, local-memory
/// sharing and barrier ordering: each item accumulates a per-item value,
/// items exchange through local memory, result written per group.
void run_exchange_kernel(ka::Backend& be, std::vector<double>& out, int group_size) {
  ka::LaunchDesc desc;
  desc.name = "exchange";
  desc.num_groups = static_cast<index_t>(out.size());
  desc.group_size = group_size;
  double* outp = out.data();
  be.launch(desc, [outp, group_size](ka::WorkGroupCtx& wg) {
    auto mine = wg.priv<double>(1);
    auto shared = wg.local<double>(static_cast<std::size_t>(group_size));
    wg.items([&](int t) { mine(t)[0] = t + 1.0; });            // phase 1
    wg.items([&](int t) { shared[t] = mine(t)[0] * 2.0; });    // phase 2
    wg.items([&](int t) {                                      // phase 3
      // Every item reads every slot: requires the barrier between phases.
      double s = 0.0;
      for (int q = 0; q < group_size; ++q) s += shared[q];
      mine(t)[0] = s;
    });
    wg.items([&](int t) {
      if (t == 0) outp[wg.group_id()] = mine(t)[0];
    });
  });
}

}  // namespace

TEST(Workgroup, PhasesActAsBarriers) {
  const int gs = 16;
  const double expect = 2.0 * gs * (gs + 1) / 2.0;
  for (auto* be : {static_cast<ka::Backend*>(nullptr)}) {
    (void)be;
  }
  ka::SerialBackend serial;
  ka::CpuBackend cpu(4);
  std::vector<double> out_serial(33, 0.0);
  std::vector<double> out_cpu(33, 0.0);
  run_exchange_kernel(serial, out_serial, gs);
  run_exchange_kernel(cpu, out_cpu, gs);
  for (std::size_t g = 0; g < out_serial.size(); ++g) {
    EXPECT_DOUBLE_EQ(out_serial[g], expect);
    EXPECT_DOUBLE_EQ(out_cpu[g], out_serial[g]);  // backend equivalence
  }
}

TEST(Workgroup, GroupIdsCoverGrid) {
  ka::CpuBackend cpu(4);
  std::vector<std::atomic<int>> seen(57);
  ka::LaunchDesc desc;
  desc.name = "ids";
  desc.num_groups = 57;
  desc.group_size = 3;
  cpu.launch(desc, [&](ka::WorkGroupCtx& wg) {
    wg.items([&](int t) {
      if (t == 0) seen[static_cast<std::size_t>(wg.group_id())]++;
    });
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Workgroup, LocalMemoryIsPerGroup) {
  // Groups must not observe each other's local memory: each group writes a
  // group-dependent pattern and validates it after a phase boundary.
  ka::CpuBackend cpu(8);
  std::atomic<int> failures{0};
  ka::LaunchDesc desc;
  desc.name = "isolation";
  desc.num_groups = 64;
  desc.group_size = 8;
  cpu.launch(desc, [&](ka::WorkGroupCtx& wg) {
    auto buf = wg.local<long>(8);
    wg.items([&](int t) { buf[t] = static_cast<long>(wg.group_id()) * 100 + t; });
    wg.items([&](int t) {
      if (buf[t] != static_cast<long>(wg.group_id()) * 100 + t) failures++;
    });
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Backend, TraceRecorderCapturesLaunches) {
  ka::SerialBackend be;
  ka::TraceRecorder trace;
  be.set_trace(&trace);
  ka::LaunchDesc d1;
  d1.name = "a";
  d1.num_groups = 3;
  d1.group_size = 2;
  d1.cost.flops = 100.0;
  ka::LaunchDesc d2;
  d2.name = "b";
  d2.num_groups = 5;
  d2.group_size = 4;
  be.launch(d1, [](ka::WorkGroupCtx&) {});
  be.launch(d2, [](ka::WorkGroupCtx&) {});
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[0].cost.flops, 100.0);
  EXPECT_EQ(records[1].num_groups, 5);
}

// Regression (TSan-visible): records() used to return a reference to the
// live vector, so reading it while another thread's launch called record()
// raced the push_back's reallocation. It now returns a locked snapshot;
// this test drives concurrent record/records traffic and checks every
// snapshot is a consistent prefix of the launch stream.
TEST(Backend, TraceRecorderSnapshotRacesRecording) {
  ka::SerialBackend be;
  ka::TraceRecorder trace;
  be.set_trace(&trace);
  constexpr int kLaunches = 400;
  std::atomic<bool> start{false};
  std::atomic<bool> bad_snapshot{false};
  std::thread reader([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    std::size_t last = 0;
    do {
      const auto snap = trace.records();
      if (snap.size() < last) bad_snapshot.store(true);
      last = snap.size();
      for (std::size_t i = 0; i < snap.size(); ++i) {
        if (snap[i].num_groups != static_cast<index_t>(i) + 1) {
          bad_snapshot.store(true);
        }
      }
    } while (last < kLaunches);
  });
  ka::LaunchDesc d;
  d.name = "snap";
  d.group_size = 1;
  start.store(true, std::memory_order_release);
  for (int i = 0; i < kLaunches; ++i) {
    d.num_groups = i + 1;
    be.launch(d, [](ka::WorkGroupCtx&) {});
  }
  reader.join();
  EXPECT_FALSE(bad_snapshot.load());
  EXPECT_EQ(trace.records().size(), static_cast<std::size_t>(kLaunches));
}

TEST(Backend, TraceBackendDoesNotExecute) {
  ka::TraceBackend be;
  EXPECT_FALSE(be.executes());
  int executed = 0;
  ka::LaunchDesc d;
  d.name = "noop";
  d.num_groups = 10;
  d.group_size = 1;
  be.launch(d, [&](ka::WorkGroupCtx&) { executed++; });
  EXPECT_EQ(executed, 0);
}

TEST(StageTimes, AccumulatesPerStage) {
  ka::StageTimes t;
  t.add(ka::Stage::PanelFactorization, 1.0);
  t.add(ka::Stage::PanelFactorization, 0.5);
  t.add(ka::Stage::TrailingUpdate, 2.0);
  EXPECT_DOUBLE_EQ(t.get(ka::Stage::PanelFactorization), 1.5);
  EXPECT_DOUBLE_EQ(t.get(ka::Stage::TrailingUpdate), 2.0);
  EXPECT_DOUBLE_EQ(t.total(), 3.5);
  t.reset();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Backend, DefaultBackendExecutesAndMatchesDispatch) {
  // Every build serves the process from one pooled CPU backend: the ISA is
  // a compile flag, not a runtime choice between backends.
  auto& be = ka::default_backend();
  EXPECT_TRUE(be.executes());
  EXPECT_EQ(be.name(), "cpu");
  ASSERT_NE(be.batch_pool(), nullptr);
}

TEST(Backend, BatchPoolExposedOnlyByPooledBackends) {
  ka::CpuBackend cpu(4);
  ASSERT_NE(cpu.batch_pool(), nullptr);
  EXPECT_EQ(cpu.batch_pool(), &cpu.pool());
  EXPECT_EQ(cpu.batch_pool()->size(), 4u);
  ka::SerialBackend serial;
  EXPECT_EQ(serial.batch_pool(), nullptr);
  ka::TraceBackend trace;
  EXPECT_EQ(trace.batch_pool(), nullptr);
}

// ---------------------------------------------------------------------------
// Contended-pool inline fallback (ParallelForOptions::busy_fallback_inline):
// the serving layer's worker threads degrade to inline execution instead of
// queueing on the submit lock when another thread owns the pool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, BusyFallbackUncontendedRunsEveryIndexOnce) {
  ka::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(128);
  ka::ParallelForOptions opts;
  opts.busy_fallback_inline = true;
  pool.parallel_for(
      128, [&](index_t i) { counts[static_cast<std::size_t>(i)] += 1; }, opts);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, BusyFallbackRunsInlineWhenPoolIsContended) {
  ka::ThreadPool pool(2);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};

  // The holder's 2-iteration job occupies the pool's submit lock until we
  // release it (n == 1 would take the inline shortcut and never contend).
  std::thread holder([&] {
    pool.parallel_for(2, [&](index_t) {
      holding = true;
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();

  // Contended submit with the fallback: the whole range — and every nested
  // parallel_for its iterations make — must run inline on THIS thread,
  // completing while the holder still owns the pool.
  const auto me = std::this_thread::get_id();
  std::atomic<int> foreign{0};
  std::atomic<int> ran{0};
  ka::ParallelForOptions opts;
  opts.busy_fallback_inline = true;
  pool.parallel_for(
      4,
      [&](index_t) {
        if (std::this_thread::get_id() != me) foreign += 1;
        pool.parallel_for(3, [&](index_t) {
          ran += 1;
          if (std::this_thread::get_id() != me) foreign += 1;
        });
      },
      opts);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(ran.load(), 12);

  release = true;
  holder.join();
}

TEST(ThreadPool, BusyFallbackPropagatesExceptionsFromInlineRun) {
  ka::ThreadPool pool(2);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.parallel_for(2, [&](index_t) {
      holding = true;
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();

  ka::ParallelForOptions opts;
  opts.busy_fallback_inline = true;
  EXPECT_THROW(
      pool.parallel_for(
          3, [&](index_t i) { if (i == 1) throw Error("inline boom"); }, opts),
      Error);

  release = true;
  holder.join();
}
