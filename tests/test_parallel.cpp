// The parallel substrate's contract: every shard runs exactly once,
// exceptions propagate, READDUO_THREADS=1 is the in-order serial path, and
// sharded consumers (mc_ler, run_schemes metrics) are bit-identical for
// every thread count. run_schemes simulates each distinct spec once.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "harness.h"
#include "mc_ler.h"
#include "scoped_env.h"

namespace rd {
namespace {

/// Scoped READDUO_THREADS override; restores the previous value on exit.
class ScopedThreads : public ScopedEnv {
 public:
  explicit ScopedThreads(const char* value)
      : ScopedEnv("READDUO_THREADS", value) {}
};

TEST(ThreadCount, ParsesEnvAndClamps) {
  {
    ScopedThreads t("7");
    EXPECT_EQ(parallel_thread_count(), 7u);
  }
  {
    ScopedThreads t("1");
    EXPECT_EQ(parallel_thread_count(), 1u);
  }
  {
    ScopedThreads t("100000");
    EXPECT_EQ(parallel_thread_count(), 512u);
  }
}

TEST(ThreadCount, RejectsMalformedEnvLoudly) {
  // A typo must not silently run at hardware concurrency: the whole point
  // of the knob is labelling measurements with the real thread count.
  {
    ScopedThreads t("banana");
    EXPECT_THROW(parallel_thread_count(), CheckFailure);
  }
  {
    ScopedThreads t("0");
    EXPECT_THROW(parallel_thread_count(), CheckFailure);
  }
  {
    ScopedThreads t("4x");
    EXPECT_THROW(parallel_thread_count(), CheckFailure);
  }
  {
    ScopedThreads t("");
    EXPECT_THROW(parallel_thread_count(), CheckFailure);
  }
}

TEST(InstructionBudget, RejectsMalformedEnvLoudly) {
  {
    ScopedEnv e("READDUO_INSTR", "6e6");
    EXPECT_THROW(bench::instruction_budget(), CheckFailure);
  }
  {
    ScopedEnv e("READDUO_INSTR", "abc");
    EXPECT_THROW(bench::instruction_budget(), CheckFailure);
  }
  {
    ScopedEnv e("READDUO_INSTR", "0");
    EXPECT_THROW(bench::instruction_budget(), CheckFailure);
  }
  {
    ScopedEnv e("READDUO_INSTR", "120000");
    EXPECT_EQ(bench::instruction_budget(), 120000u);
  }
  {
    ScopedEnv e("READDUO_INSTR", nullptr);
    EXPECT_EQ(bench::instruction_budget(), 6'000'000u);
  }
}

TEST(ThreadPool, ExecutesEveryShardExactlyOnce) {
  constexpr std::size_t kShards = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kShards);
  pool.parallel_for(kShards, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "shard " << i;
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::vector<int> out(64, 0);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i));
    }
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("shard 37");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, LowestFailingShardIsRethrown) {
  // Shard 7 fails at once while shard 3 is still running, so the first
  // failure in time is usually shard 7's; the serial path's error, shard
  // 3's, must win every time.
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 50; ++repeat) {
    try {
      pool.parallel_for(16, [&](std::size_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          throw std::runtime_error("shard 3");
        }
        if (i == 7) throw std::runtime_error("shard 7");
      });
      ADD_FAILURE() << "repeat " << repeat << ": nothing was rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 3") << "repeat " << repeat;
    }
  }
}

TEST(ThreadPool, SerialPoolRunsInIndexOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(50, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 8);
  pool.parallel_for(16, [&](std::size_t outer) {
    // Nested loops must not deadlock on the busy pool; they run inline.
    parallel_for_shards(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForShards, SerialEnvForcesLegacyInOrderPath) {
  ScopedThreads t("1");
  std::vector<std::size_t> order;
  // Not thread-safe push_back — correct only if the serial path is taken.
  parallel_for_shards(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForShards, SameSumForAnyThreadCount) {
  auto sum_under = [](const char* threads) {
    ScopedThreads t(threads);
    std::vector<std::uint64_t> parts(257, 0);
    parallel_for_shards(parts.size(),
                        [&](std::size_t i) { parts[i] = i * i; });
    return std::accumulate(parts.begin(), parts.end(), std::uint64_t{0});
  };
  const std::uint64_t serial = sum_under("1");
  EXPECT_EQ(sum_under("2"), serial);
  EXPECT_EQ(sum_under("8"), serial);
}

// The tentpole acceptance criterion: the sharded Monte-Carlo LER is a pure
// function of its arguments — bit-identical failures for thread counts
// 1, 2, and 8 at the same seed.
TEST(McLerParallel, BitIdenticalAcrossThreadCounts) {
  const drift::MetricConfig cfg = drift::r_metric();
  // > 2 shards at the 8192-line shard size, so the decomposition is real.
  constexpr std::uint64_t kLines = 20000;
  constexpr std::uint64_t kSeed = 20160628;

  auto run_with = [&](const char* threads) {
    ScopedThreads t(threads);
    return pcm::mc_ler(cfg, /*e=*/0, /*t_seconds=*/64.0, kLines, kSeed);
  };
  const pcm::McLerResult one = run_with("1");
  const pcm::McLerResult two = run_with("2");
  const pcm::McLerResult eight = run_with("8");

  EXPECT_GT(one.failures, 0u);  // the point is non-trivial
  EXPECT_EQ(one.lines, kLines);
  EXPECT_EQ(two.failures, one.failures);
  EXPECT_EQ(eight.failures, one.failures);
}

// The PR 2 acceptance criterion: the latency histograms and bank gauges a
// batch produces are bit-identical across thread counts. Each simulation
// is sequential and owns its metrics, so the only way this fails is
// cross-run state leaking through the harness.
TEST(MetricsParallel, HistogramsBitIdenticalAcrossThreadCounts) {
  ScopedEnv instr("READDUO_INSTR", "60000");

  auto batch_under = [&](const char* threads) {
    ScopedThreads t(threads);
    std::vector<bench::RunSpec> specs;
    for (const char* wname : {"mcf", "lbm", "astar"}) {
      const trace::Workload& w = trace::workload_by_name(wname);
      specs.push_back({readduo::SchemeKind::kHybrid, w});
      specs.push_back({readduo::SchemeKind::kScrubbing, w});
    }
    return bench::run_schemes(specs);
  };

  const std::vector<bench::RunResult> serial = batch_under("1");
  const std::vector<bench::RunResult> pooled = batch_under("4");
  ASSERT_EQ(serial.size(), pooled.size());

  stats::SimMetrics merged_serial, merged_pooled;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].sim.metrics.demand_reads().count(), 0u)
        << "run " << i;
    // Per-run metrics identical, bucket for bucket.
    EXPECT_TRUE(serial[i].sim.metrics == pooled[i].sim.metrics)
        << "run " << i;
    merged_serial.merge(serial[i].sim.metrics);
    merged_pooled.merge(pooled[i].sim.metrics);
  }
  // And so is the batch-level aggregate.
  EXPECT_TRUE(merged_serial == merged_pooled);
  EXPECT_DOUBLE_EQ(merged_serial.demand_reads().p99(),
                   merged_pooled.demand_reads().p99());
}

// run_schemes keys its dedup on the whole spec: equal specs share one
// simulation whose result equals a separate run of that spec, and a spec
// that differs in any one field (options, controller, seed, workload,
// system policy, budget) runs on its own.
TEST(RunSchemesDedup, EqualSpecsShareOneRunAndNearDuplicatesDoNot) {
  ScopedEnv instr("READDUO_INSTR", "20000");
  const trace::Workload& mcf = trace::workload_by_name("mcf");
  const bench::RunSpec base{readduo::SchemeKind::kLwt, mcf};

  std::vector<bench::RunSpec> near;
  near.push_back(base);
  near.back().opts.controller.floor_t = 20;
  near.push_back(base);
  near.back().opts.changed_cell_fraction = 0.5;
  near.push_back(base);
  near.back().seed = 43;
  near.push_back(base);
  near.back().workload.archive_lines += 1;
  const std::size_t first_policy = near.size();
  near.push_back(base);
  near.back().open_page = true;
  near.push_back(base);
  near.back().write_preemption = memsim::WritePreemption::kPause;
  near.push_back(base);
  near.back().write_preemption = memsim::WritePreemption::kNone;
  near.push_back(base);
  near.back().instructions = 10000;

  // base, then each near-duplicate followed by base again.
  std::vector<bench::RunSpec> specs = {base};
  for (const bench::RunSpec& n : near) specs.insert(specs.end(), {n, base});
  const std::size_t kDistinct = 1 + near.size();

  for (const char* threads : {"1", "4"}) {
    ScopedThreads t(threads);
    const std::uint64_t before = bench::detail::run_count();
    const std::vector<bench::RunResult> results = bench::run_schemes(specs);
    // One simulation per distinct spec: no near-duplicate merged.
    EXPECT_EQ(bench::detail::run_count() - before, kDistinct) << threads;
    ASSERT_EQ(results.size(), specs.size());

    // The system-policy fields reach the simulator.
    for (std::size_t n = first_policy; n < near.size(); ++n) {
      EXPECT_FALSE(results[1 + 2 * n].sim == results[0].sim) << "near " << n;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bench::RunResult alone = bench::run_schemes({specs[i]})[0];
      const bench::RunResult& r = results[i];
      EXPECT_TRUE(r.summary == alone.summary) << "spec " << i;
      EXPECT_TRUE(r.counters == alone.counters) << "spec " << i;
      EXPECT_TRUE(r.sim == alone.sim) << "spec " << i;
      EXPECT_TRUE(r.sim.metrics == alone.sim.metrics)
          << "spec " << i << " at THREADS=" << threads;
    }
  }
}

}  // namespace
}  // namespace rd
