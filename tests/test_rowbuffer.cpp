// Tests for the optional open-page row-buffer model (extension).
#include <gtest/gtest.h>

#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "trace/workload.h"

namespace rd::memsim {
namespace {

SimResult run(const trace::Workload& w, SimConfig cfg) {
  readduo::SchemeEnv env = make_scheme_env(w, cfg.cpu, cfg.seed);
  auto scheme = readduo::make_scheme(readduo::SchemeKind::kIdeal, env);
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
  cfg.row_buffer.enabled = true;
  const SimResult r = run(w, cfg);
  EXPECT_GT(r.row_hits, 0u);
}

TEST(RowBuffer, HitsReduceReadLatency) {
  // (Execution time can wobble either way — faster reads reshuffle the
  // event schedule — but the served read latency must drop.)
  const auto& w = trace::workload_by_name("gcc");
  SimConfig off = base_config();
  SimConfig on = base_config();
  on.row_buffer.enabled = true;
  const SimResult r_off = run(w, off);
  const SimResult r_on = run(w, on);
  EXPECT_LT(r_on.avg_read_latency_ns(), r_off.avg_read_latency_ns());
}

TEST(RowBuffer, StreamingWorkloadHitsSequentialRows) {
  // A nearly pure sequential scan: consecutive lines of a bank share a
  // row. Note line%banks interleaving spreads neighbours across banks, so
  // a single-bank config makes the spatial locality visible.
  trace::Workload w = trace::workload_by_name("sphinx3");
  w.archive_read_fraction = 0.95;
  w.wpki = 0.01;
  SimConfig cfg = base_config();
  // One core, one bank: otherwise the four cores' independent scan
  // streams (and bank interleaving) evict each other's rows.
  cfg.cpu.num_cores = 1;
  cfg.org.num_banks = 1;
  cfg.row_buffer.enabled = true;
  const SimResult r = run(w, cfg);
  EXPECT_GT(r.row_hits, r.reads_serviced / 2);
}

TEST(RowBuffer, OpenPagePairsRowBufferWithRowInterleave) {
  // The open-page system of readduo_sim --row-buffer and the harness:
  // both fields are set by one call.
  SimConfig open = base_config();
  open.enable_open_page();
  EXPECT_TRUE(open.row_buffer.enabled);
  EXPECT_EQ(open.address_map, AddressMap::kRowInterleave);
  // Line interleaving spreads a scan's neighbours across banks, so the
  // row buffer alone sees few of the hits the paired system gets.
  const auto& w = trace::workload_by_name("sphinx3");
  SimConfig buffer_only = base_config();
  buffer_only.row_buffer.enabled = true;
  EXPECT_GT(run(w, open).row_hits, 2 * run(w, buffer_only).row_hits);
}

TEST(RowBuffer, HitLatencyBoundsRespected) {
  // With hits, average read latency can approach but not go below
  // hit_latency + bus transfer.
  const auto& w = trace::workload_by_name("gcc");
  SimConfig cfg = base_config();
  cfg.row_buffer.enabled = true;
  const SimResult r = run(w, cfg);
  EXPECT_GE(r.avg_read_latency_ns(),
            static_cast<double>(cfg.row_buffer.hit_latency.v));
}

TEST(RowBuffer, WiderRowsMoreHits) {
  const auto& w = trace::workload_by_name("sphinx3");
  SimConfig narrow = base_config();
  narrow.row_buffer.enabled = true;
  narrow.row_buffer.lines_per_row = 4;
  SimConfig wide = base_config();
  wide.row_buffer.enabled = true;
  wide.row_buffer.lines_per_row = 64;
  EXPECT_GT(run(w, wide).row_hits, run(w, narrow).row_hits);
}

}  // namespace
}  // namespace rd::memsim
