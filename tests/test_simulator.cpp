// Tests for the event-driven memory-system simulator.
#include "memsim/simulator.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "memsim/env.h"
#include "readduo/schemes.h"
#include "trace/workload.h"

namespace rd::memsim {
namespace {

SimConfig small_config(std::uint64_t budget = 200'000) {
  SimConfig cfg;
  cfg.instructions_per_core = budget;
  cfg.seed = 11;
  return cfg;
}

SimResult run(readduo::SchemeKind kind, const trace::Workload& w,
              SimConfig cfg, readduo::Scheme** out_scheme = nullptr,
              const readduo::ReadDuoOptions& opts = {}) {
  static std::unique_ptr<readduo::Scheme> holder;
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  holder = readduo::make_scheme(kind, env, opts);
  if (out_scheme) *out_scheme = holder.get();
  Simulator sim(cfg, *holder, w);
  return sim.run();
}

TEST(Simulator, CompletesAndRetiresBudget) {
  const auto& w = trace::workload_by_name("bzip2");
  const SimConfig cfg = small_config();
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_EQ(r.instructions, 4 * cfg.instructions_per_core);
  EXPECT_GT(r.exec_time.v, 0);
  EXPECT_GT(r.reads_serviced, 0u);
  EXPECT_GT(r.writes_serviced, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto& w = trace::workload_by_name("mcf");
  const SimConfig cfg = small_config();
  const SimResult a = run(readduo::SchemeKind::kHybrid, w, cfg);
  const SimResult b = run(readduo::SchemeKind::kHybrid, w, cfg);
  EXPECT_EQ(a.exec_time.v, b.exec_time.v);
  EXPECT_EQ(a.reads_serviced, b.reads_serviced);
  EXPECT_EQ(a.read_latency_sum_ns, b.read_latency_sum_ns);
  EXPECT_EQ(a.write_cancellations, b.write_cancellations);
}

TEST(Simulator, DifferentSeedsDiffer) {
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  const SimResult a = run(readduo::SchemeKind::kIdeal, w, cfg);
  cfg.seed = 12;
  const SimResult b = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_NE(a.exec_time.v, b.exec_time.v);
}

TEST(Simulator, ReadLatencyAtLeastDeviceLatency) {
  const auto& w = trace::workload_by_name("astar");
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, small_config());
  // 150 ns sense + 5 ns bus, plus queueing.
  EXPECT_GE(r.avg_read_latency_ns(), 155.0);
  EXPECT_LT(r.avg_read_latency_ns(), 5000.0);
}

TEST(Simulator, MMetricSlowerThanIdeal) {
  const auto& w = trace::workload_by_name("mcf");
  const SimConfig cfg = small_config();
  const SimResult ideal = run(readduo::SchemeKind::kIdeal, w, cfg);
  const SimResult m = run(readduo::SchemeKind::kMMetric, w, cfg);
  EXPECT_GT(m.exec_time.v, ideal.exec_time.v);
  EXPECT_GT(m.avg_read_latency_ns(), ideal.avg_read_latency_ns() + 200.0);
}

TEST(Simulator, WriteCancellationTriggersUnderLoad) {
  const auto& w = trace::workload_by_name("lbm");  // write-heavy
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, small_config());
  EXPECT_GT(r.write_cancellations, 0u);
}

TEST(Simulator, DisablingWriteCancellationHurtsReadLatency) {
  const auto& w = trace::workload_by_name("lbm");
  SimConfig cfg = small_config();
  const SimResult with = run(readduo::SchemeKind::kIdeal, w, cfg);
  cfg.write_preemption = WritePreemption::kNone;
  const SimResult without = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_EQ(without.write_cancellations, 0u);
  EXPECT_GT(without.avg_read_latency_ns(), with.avg_read_latency_ns());
}

TEST(Simulator, ScrubEngineRunsAtConfiguredRate) {
  const auto& w = trace::workload_by_name("bzip2");
  const SimConfig cfg = small_config(500'000);
  readduo::Scheme* scheme = nullptr;
  const SimResult r = run(readduo::SchemeKind::kScrubbing, w, cfg, &scheme);
  // Expected scrub senses: banks * exec_time / period, period = S * rows /
  // lines_per_bank ... = S * lines_per_scrub / lines_per_bank.
  const double rows_per_bank =
      static_cast<double>(cfg.org.lines_per_bank()) / cfg.org.lines_per_scrub;
  const double period_ns = 8.0 * 1e9 / rows_per_bank;
  const double expected = static_cast<double>(cfg.org.num_banks) *
                          static_cast<double>(r.exec_time.v) / period_ns;
  EXPECT_GT(static_cast<double>(r.scrubs_serviced), 0.8 * expected);
  EXPECT_LT(static_cast<double>(r.scrubs_serviced), 1.2 * expected + 10.0);
}

TEST(Simulator, IdealHasNoScrubs) {
  const auto& w = trace::workload_by_name("bzip2");
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, small_config());
  EXPECT_EQ(r.scrubs_serviced, 0u);
}

TEST(Simulator, FewerBanksIncreaseContention) {
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  const SimResult eight = run(readduo::SchemeKind::kIdeal, w, cfg);
  cfg.org.num_banks = 1;
  const SimResult one = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_GT(one.exec_time.v, eight.exec_time.v);
  EXPECT_GT(one.avg_read_latency_ns(), eight.avg_read_latency_ns());
}

TEST(Simulator, HigherStallFractionSlowsExecution) {
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  cfg.cpu.read_stall_fraction = 0.1;
  const SimResult fast = run(readduo::SchemeKind::kIdeal, w, cfg);
  cfg.cpu.read_stall_fraction = 1.0;
  const SimResult slow = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_GT(slow.exec_time.v, fast.exec_time.v);
}

TEST(Simulator, BankUtilizationWithinBounds) {
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, cfg);
  const double util =
      static_cast<double>(r.bank_busy_ns) /
      (static_cast<double>(r.exec_time.v) * cfg.org.num_banks);
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-9);
}

TEST(Simulator, SchemeCountersMatchSimCounts) {
  const auto& w = trace::workload_by_name("bzip2");
  readduo::Scheme* scheme = nullptr;
  const SimResult r =
      run(readduo::SchemeKind::kMMetric, w, small_config(), &scheme);
  const auto& c = scheme->counters();
  // Reads are planned at dispatch; the handful still in flight when the
  // last core retires are planned but never counted as serviced.
  EXPECT_GE(c.total_reads(), r.reads_serviced);
  EXPECT_LE(c.total_reads(), r.reads_serviced + 64);
  // Every serviced write was planned by the scheme (cancelled writes are
  // re-serviced without re-planning).
  EXPECT_GE(c.total_demand_writes() + c.scrub_rewrites +
                c.conversion_writes,
            r.writes_serviced);
}

TEST(Simulator, ConversionWritesFlowThroughBank) {
  const auto& w = trace::workload_by_name("sphinx3");
  SimConfig cfg = small_config(400'000);
  readduo::ReadDuoOptions opts;
  opts.controller.initial_t = 100;
  readduo::Scheme* scheme = nullptr;
  run(readduo::SchemeKind::kLwt, w, cfg, &scheme, opts);
  EXPECT_GT(scheme->counters().conversion_writes, 0u);
}

TEST(Simulator, WritePausingBeatsCancellationOnWriteThroughput) {
  // Pausing resumes writes with their remaining latency; under heavy
  // read-induced preemption that strictly reduces wasted bank time.
  const auto& w = trace::workload_by_name("lbm");
  SimConfig cfg = small_config(300'000);
  cfg.max_write_cancellations = 8;
  const SimResult cancel = run(readduo::SchemeKind::kIdeal, w, cfg);
  cfg.write_preemption = WritePreemption::kPause;
  const SimResult pause = run(readduo::SchemeKind::kIdeal, w, cfg);
  ASSERT_GT(cancel.write_cancellations, 0u);
  // Same preemption opportunities, strictly less redone work.
  EXPECT_LT(pause.bank_busy_ns, cancel.bank_busy_ns);
  EXPECT_LE(pause.exec_time.v, cancel.exec_time.v * 102 / 100);
}

TEST(Simulator, ZeroScrubIntervalDisablesScrubTicks) {
  const auto& w = trace::workload_by_name("astar");
  const SimResult r = run(readduo::SchemeKind::kTlc, w, small_config());
  EXPECT_EQ(r.scrubs_serviced, 0u);
  EXPECT_EQ(r.scrub_backlog_end, 0u);
}

// ----------------------------------------------- bugfix regressions ---

TEST(Simulator, ExactBudgetIssuesEveryRetiredOp) {
  // rpki=1000, wpki=0: one read per instruction (the geometric gap with
  // p=1 is always 0), so every op costs exactly gap+1 = 1 instruction and
  // each core's budget is exhausted by exactly the +1 of its final op.
  // read_stall_fraction=1 makes every read blocking, so a core only
  // finishes after its last read completes.
  trace::Workload w;
  w.name = "exact-budget";
  w.rpki = 1000.0;
  w.wpki = 0.0;
  w.footprint_lines = 4096;
  w.zipf_s = 0.0;
  w.archive_read_fraction = 0.0;
  w.archive_age_scale = 1.0;
  w.archive_lines = 64;
  SimConfig cfg = small_config(2'000);
  cfg.cpu.read_stall_fraction = 1.0;
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_EQ(r.instructions, 4 * cfg.instructions_per_core);
  // Regression: the final op used to be counted as retired but dropped
  // without issuing, losing one read per core.
  EXPECT_EQ(r.reads_serviced + r.writes_serviced,
            4 * cfg.instructions_per_core);
}

TEST(Simulator, ScrubRewriteLinesWalkTheBankRange) {
  const auto& w = trace::workload_by_name("bzip2");
  SimConfig cfg = small_config(500'000);
  cfg.trace_events = 1u << 20;
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  auto scheme =
      readduo::make_scheme(readduo::SchemeKind::kScrubbing, env, {});
  Simulator sim(cfg, *scheme, w);
  sim.run();
  const stats::EventRing* ring = sim.trace_ring();
  ASSERT_NE(ring, nullptr);
  ASSERT_EQ(ring->total_pushed(), ring->size());  // nothing evicted
  std::vector<std::vector<std::uint64_t>> lines(cfg.org.num_banks);
  for (std::size_t i = 0; i < ring->size(); ++i) {
    const stats::TraceEvent& e = ring->event(i);
    if (e.kind != 'W' ||
        e.cls != static_cast<std::uint8_t>(stats::ReqClass::kScrubRewrite)) {
      continue;
    }
    lines[e.bank].push_back(e.line);
  }
  std::size_t rewrites = 0;
  std::size_t beyond_first_stripe = 0;
  for (unsigned b = 0; b < cfg.org.num_banks; ++b) {
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t ln : lines[b]) {
      ++rewrites;
      // The rewrite register stays inside bank b's own line range...
      EXPECT_EQ(ln % cfg.org.num_banks, b);
      // ...moving forward (a cancelled rewrite re-serves the same line;
      // a dropped one skips a cursor position).
      if (!first) {
        EXPECT_GE(ln, prev);
      }
      first = false;
      prev = ln;
      if (ln >= cfg.org.num_banks) ++beyond_first_stripe;
    }
  }
  ASSERT_GT(rewrites, 0u);
  // Regression: rewrites used to alias demand line `b` (the bank index
  // reused as a line address), pinning every rewrite into the first
  // num_banks lines of the address space.
  EXPECT_GT(beyond_first_stripe, 0u);
}

TEST(Simulator, RowHitRequiresLatencyReduction) {
  const auto& w = trace::workload_by_name("bzip2");
  SimConfig cfg = small_config();
  cfg.open_page = true;
  // Positive control: a latched row faster than the sense registers hits.
  const SimResult fast = run(readduo::SchemeKind::kMMetric, w, cfg);
  EXPECT_GT(fast.row_hits, 0u);
  // Regression: with every sensing latency at or below the row-hit
  // latency the clamp never shortens an access, so none may count as a
  // hit (row_hits used to increment on every open-row match).
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  env.timing.r_read = env.timing.m_read = env.timing.rm_read =
      kRowHitLatency;
  auto scheme = readduo::make_scheme(readduo::SchemeKind::kMMetric, env);
  Simulator sim(cfg, *scheme, w);
  EXPECT_EQ(sim.run().row_hits, 0u);
}

// ------------------------------------------------- service-seam tests ---

TEST(Simulator, ExternalModeDrainsAfterStopScrub) {
  // Open-system driving: external requests at virtual times with the
  // background scrub engine ticking between them; after stop_scrub() the
  // event queue must drain to empty (in-flight senses/rewrites included)
  // and every submitted request must have completed exactly once.
  const auto& w = trace::workload_by_name("bzip2");
  SimConfig cfg = small_config();
  cfg.cpu.num_cores = 0;
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  auto scheme =
      readduo::make_scheme(readduo::SchemeKind::kScrubbing, env, {});
  Simulator sim(cfg, *scheme, w);
  ASSERT_TRUE(sim.externally_driven());
  std::uint64_t id = 0;
  Ns t{0};
  for (int i = 0; i < 200; ++i) {
    t += Ns{2'000};
    sim.external_read(++id, static_cast<std::uint64_t>(i) * 37, false, t);
    while (!sim.external_write(++id, static_cast<std::uint64_t>(i) * 11,
                               t)) {
      sim.step_one();
    }
    sim.step(t);
  }
  sim.stop_scrub();
  while (sim.step_one()) {
  }
  // Scrub ran in the background (period ~3.8 us, horizon 400 us)...
  EXPECT_GT(sim.result().scrubs_serviced, 0u);
  // ...and the drain completed every external request.
  const auto done = sim.take_completions();
  EXPECT_EQ(done.size(), static_cast<std::size_t>(id));
  std::vector<bool> seen(id + 1, false);
  for (const auto& c : done) {
    ASSERT_GE(c.id, 1u);
    ASSERT_LE(c.id, id);
    EXPECT_FALSE(seen[c.id]) << "request completed twice: " << c.id;
    seen[c.id] = true;
    EXPECT_GE(c.latency().v, 0);
  }
  EXPECT_EQ(sim.result().reads_serviced, 200u);
  EXPECT_EQ(sim.result().metrics.lat(stats::ReqClass::kDemandWrite).count(),
            200u);
  // The clock never runs backwards and covers the full drain.
  EXPECT_GE(sim.current_time().v, t.v);
}

TEST(Simulator, WriteCancellationKeepsBoundedQueueLive) {
  // Tiny write queue + write-heavy trace: cancellations re-queue writes
  // at the front of an already-full queue, and cores stall on admission.
  // The run must still retire the full budget (no deadlock), plan each
  // demand write exactly once, and stay deterministic.
  const auto& w = trace::workload_by_name("lbm");
  SimConfig cfg = small_config(100'000);
  cfg.write_queue_depth = 2;
  cfg.max_write_cancellations = 8;
  readduo::Scheme* scheme = nullptr;
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, cfg, &scheme);
  EXPECT_GT(r.write_cancellations, 0u);
  EXPECT_EQ(r.instructions, 4 * cfg.instructions_per_core);
  // Cancelled writes are re-serviced without re-planning: the demand
  // writes serviced can never exceed the admissions the scheme planned.
  EXPECT_LE(r.metrics.lat(stats::ReqClass::kDemandWrite).count(),
            scheme->counters().total_demand_writes());
  const SimResult again = run(readduo::SchemeKind::kIdeal, w, cfg);
  EXPECT_TRUE(r.metrics == again.metrics);
  EXPECT_EQ(r.write_cancellations, again.write_cancellations);
}

// ----------------------------------------------------------- metrics ---

TEST(SimulatorMetrics, ReadHistogramMatchesServicedPopulation) {
  const auto& w = trace::workload_by_name("mcf");
  const SimResult r = run(readduo::SchemeKind::kHybrid, w, small_config());
  const stats::LatencyHistogram reads = r.metrics.demand_reads();
  // Every serviced read was recorded into exactly one read-class bucket.
  EXPECT_EQ(reads.count(), r.reads_serviced);
  // The histogram's sum is the exact latency sum the mean is derived from.
  EXPECT_EQ(reads.sum(), r.read_latency_sum_ns);
}

TEST(SimulatorMetrics, TailOrderingOnMixedReadWriteTrace) {
  // The PR 2 acceptance shape: p99 >= avg >= p50 on a mixed trace whose
  // read population spans R- and M-sensing plus queueing delays.
  const auto& w = trace::workload_by_name("mcf");
  const SimResult r = run(readduo::SchemeKind::kHybrid, w, small_config());
  const stats::LatencyHistogram reads = r.metrics.demand_reads();
  ASSERT_GT(reads.count(), 1000u);
  const double avg = r.avg_read_latency_ns();
  EXPECT_GE(reads.p99(), avg);
  EXPECT_GE(avg, reads.p50());
  EXPECT_GE(reads.p99(), reads.p95());
  EXPECT_GE(reads.p95(), reads.p50());
  EXPECT_LE(reads.p99(), static_cast<double>(reads.max()));
  // Device floor: no demand read completes faster than R-sense + bus.
  EXPECT_GE(reads.percentile(0.0), 100.0);
}

TEST(SimulatorMetrics, PerClassHistogramsSplitByMode) {
  // sphinx3 reads mostly archive data, which LWT's flag window does not
  // track — those reads abort R-sensing and get serviced as R-M-reads,
  // so both read classes (and conversion writes) are populated.
  const auto& w = trace::workload_by_name("sphinx3");
  readduo::Scheme* scheme = nullptr;
  const SimResult r =
      run(readduo::SchemeKind::kLwt, w, small_config(), &scheme);
  const auto& m = r.metrics;
  const auto& c = scheme->counters();
  // Per-class counts can't exceed what the scheme planned (the final
  // read can still be in flight when the last core retires).
  EXPECT_GT(m.lat(stats::ReqClass::kRRead).count(), 0u);
  EXPECT_GT(m.lat(stats::ReqClass::kRMRead).count(), 0u);
  EXPECT_LE(m.lat(stats::ReqClass::kRRead).count(), c.r_reads);
  EXPECT_LE(m.lat(stats::ReqClass::kRMRead).count(), c.rm_reads);
  // Pure M-reads belong to the M-metric scheme only.
  EXPECT_EQ(m.lat(stats::ReqClass::kMRead).count(), 0u);
  // Flag-miss conversions surface as their own write class.
  EXPECT_GT(m.lat(stats::ReqClass::kConversionWrite).count(), 0u);
  // Demand writes flow into their own class.
  EXPECT_GT(m.lat(stats::ReqClass::kDemandWrite).count(), 0u);
  EXPECT_EQ(m.lat(stats::ReqClass::kDemandWrite).count() +
                m.lat(stats::ReqClass::kConversionWrite).count() +
                m.lat(stats::ReqClass::kScrubRewrite).count(),
            r.writes_serviced);
}

TEST(SimulatorMetrics, ScrubRewritesGetTheirOwnClass) {
  const auto& w = trace::workload_by_name("bzip2");
  const SimResult r =
      run(readduo::SchemeKind::kScrubbing, w, small_config(500'000));
  EXPECT_GT(r.metrics.lat(stats::ReqClass::kScrubRewrite).count(), 0u);
}

TEST(SimulatorMetrics, BankGaugesConsistentWithAggregates) {
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  const SimResult r = run(readduo::SchemeKind::kIdeal, w, cfg);
  ASSERT_EQ(r.metrics.banks.size(), cfg.org.num_banks);
  std::int64_t busy = 0;
  std::uint64_t samples = 0;
  for (const stats::BankGauge& g : r.metrics.banks) {
    busy += g.busy_ns;
    samples += g.depth_samples;
    // busy_ns can exceed exec_time: banks drain queued writes and scrub
    // rewrites after the last core retires its budget.
    EXPECT_GE(g.busy_ns, 0);
    EXPECT_GE(g.depth_max, 0u);
  }
  // Per-bank busy time decomposes the aggregate exactly.
  EXPECT_EQ(busy, r.bank_busy_ns);
  // One depth sample per service start: reads + writes + scrubs, minus
  // nothing (cancelled writes are re-serviced, hence re-sampled).
  EXPECT_GE(samples, r.reads_serviced + r.writes_serviced);
}

TEST(SimulatorMetrics, DeterministicAcrossIdenticalRuns) {
  const auto& w = trace::workload_by_name("lbm");
  const SimConfig cfg = small_config();
  const SimResult a = run(readduo::SchemeKind::kScrubbing, w, cfg);
  const SimResult b = run(readduo::SchemeKind::kScrubbing, w, cfg);
  EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(Simulator, InfeasibleScrubFailsFastNamingTheKeys) {
  // NAND-like: a 3 us R-sense against an 8 s scrub over 32 GB / 64 B /
  // 8 banks / 16 lines = 4.19 M rows per bank, i.e. ~1.9 us per row. The
  // backlog could only grow, so the first scrub sense must throw instead
  // of the run starving its writes forever.
  const auto& w = trace::workload_by_name("mcf");
  SimConfig cfg = small_config();
  cfg.org.capacity_bytes = 32ull << 30;
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  env.timing.r_read = Ns{3000};
  const auto scheme =
      readduo::make_scheme(readduo::SchemeKind::kScrubbingW0, env);
  Simulator sim(cfg, *scheme, w);
  try {
    sim.run();
    FAIL() << "an infeasible scrub ran to completion";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    for (const char* part :
         {"Scrubbing-W0", "3000 ns", "scrub interval 8 s",
          "memory.capacity = 34359738368 B", "memory.banks = 8",
          "memory.lines_per_scrub = 16", "1907 ns per row"}) {
      EXPECT_NE(msg.find(part), std::string::npos) << part << " in " << msg;
    }
  }
  EXPECT_EQ(scheme->counters().scrub_senses, 1u);
}

}  // namespace
}  // namespace rd::memsim
