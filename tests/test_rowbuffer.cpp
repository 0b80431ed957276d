// Tests for the optional open-page row-buffer model (extension).
#include <gtest/gtest.h>

#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "trace/workload.h"

namespace rd::memsim {
namespace {

SimResult run(const trace::Workload& w, SimConfig cfg,
              readduo::SchemeKind kind = readduo::SchemeKind::kIdeal) {
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  auto scheme = readduo::make_scheme(kind, env);
  Simulator sim(cfg, *scheme, w);
  return sim.run();
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.instructions_per_core = 200'000;
  cfg.seed = 31;
  return cfg;
}

TEST(RowBuffer, DisabledByDefaultNoHits) {
  const auto& w = trace::workload_by_name("gcc");
  const SimResult r = run(w, base_config());
  EXPECT_EQ(r.row_hits, 0u);
}

TEST(RowBuffer, LocalWorkloadsGetHits) {
  // gcc's zipf 0.9 concentrates accesses: the same hot rows re-open.
  const auto& w = trace::workload_by_name("gcc");
  SimConfig cfg = base_config();
  cfg.open_page = true;
  const SimResult r = run(w, cfg);
  EXPECT_GT(r.row_hits, 0u);
}

TEST(RowBuffer, HitsReduceReadLatency) {
  // (Execution time can wobble either way — faster reads reshuffle the
  // event schedule — but the served read latency must drop.) One bank
  // maps every line alike with and without the open page, so only the
  // latched row differs; with eight, row interleave also moves gcc's
  // lines between banks, and its extra bank conflicts outweigh the hits.
  const auto& w = trace::workload_by_name("gcc");
  SimConfig off = base_config();
  off.org.num_banks = 1;
  SimConfig on = off;
  on.open_page = true;
  const SimResult r_off = run(w, off);
  const SimResult r_on = run(w, on);
  EXPECT_LT(r_on.avg_read_latency_ns(), r_off.avg_read_latency_ns());
}

TEST(RowBuffer, StreamingWorkloadHitsSequentialRows) {
  // A nearly pure sequential scan: consecutive lines of a bank share a
  // row.
  trace::Workload w = trace::workload_by_name("sphinx3");
  w.archive_read_fraction = 0.95;
  w.wpki = 0.01;
  SimConfig cfg = base_config();
  // One core, one bank: otherwise the four cores' independent scan
  // streams (and bank interleaving) evict each other's rows.
  cfg.cpu.num_cores = 1;
  cfg.org.num_banks = 1;
  cfg.open_page = true;
  const SimResult r = run(w, cfg);
  EXPECT_GT(r.row_hits, r.reads_serviced / 2);
}

TEST(RowBuffer, OpenPagePairsRowBufferWithRowInterleave) {
  // The open-page system of readduo_sim --row-buffer and the harness: one
  // flag turns on the row buffer and row-interleaved mapping together.
  // Pinned, so neither half can drift from the other.
  const auto& w = trace::workload_by_name("sphinx3");
  SimConfig open = base_config();
  open.open_page = true;
  const SimResult r = run(w, open, readduo::SchemeKind::kLwt);
  EXPECT_EQ(r.row_hits, 484u);
  EXPECT_EQ(r.exec_time.v, 204593);
}

TEST(RowBuffer, HitLatencyBoundsRespected) {
  // With hits, average read latency can approach but not go below
  // the row-hit latency + bus transfer.
  const auto& w = trace::workload_by_name("gcc");
  SimConfig cfg = base_config();
  cfg.open_page = true;
  const SimResult r = run(w, cfg);
  EXPECT_GE(r.avg_read_latency_ns(), static_cast<double>(kRowHitLatency.v));
}

}  // namespace
}  // namespace rd::memsim
