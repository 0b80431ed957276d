// Figure 11: storage density and EDAP (Energy-Delay-Area Product),
// normalized to the TLC baseline. Paper: with dynamic energy, LWT-4 and
// Select-4:2 beat TLC by 7.5% and 37%; with system energy, by 11% and 23%.
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig11");
  std::printf("== Figure 11: density and EDAP vs the TLC baseline (budget "
              "%llu instructions/core)\n\n",
              static_cast<unsigned long long>(instruction_budget()));

  // Cells needed to store one 64 B line (the area axis of EDAP).
  readduo::ReadDuoOptions opts;
  std::vector<readduo::SchemeKind> kinds = {readduo::SchemeKind::kTlc};
  for (auto k : paper_schemes()) kinds.push_back(k);

  std::printf("Cells per 64 B line (normalized to TLC = 384):\n");
  stats::Table dt({"Scheme", "cells/line", "vs TLC"});
  for (auto kind : kinds) {
    const double cells = readduo::cells_per_line(kind, opts);
    dt.add_row({readduo::scheme_name(kind, opts), stats::fmt("%.0f", cells),
                stats::fmt("%.3f", cells / 384.0)});
  }
  dt.print();

  // EDAP per scheme, geomean over the 14 workloads, TLC = 1. `kinds`
  // already leads with TLC, so one flat concurrent batch covers all runs.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    for (auto kind : kinds) specs.push_back({kind, w});
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<std::vector<double>> ed(kinds.size()), es(kinds.size());
  std::size_t idx = 0;
  for ([[maybe_unused]] const auto& w : trace::spec2006_workloads()) {
    const RunResult& tlc = results[idx];
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const RunResult& r = results[idx++];
      ed[i].push_back(stats::edap_dynamic(r.summary, tlc.summary));
      es[i].push_back(stats::edap_system(r.summary, tlc.summary));
    }
  }

  std::printf("\nEDAP normalized to TLC (lower is better):\n");
  stats::Table t({"Scheme", "Product-D (dynamic)", "Product-S (system)"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    t.add_row({readduo::scheme_name(kinds[i], opts),
               stats::fmt("%.3f", geomean(ed[i])),
               stats::fmt("%.3f", geomean(es[i]))});
  }
  t.print();

  std::printf("\nPaper: LWT-4 beats TLC by 7.5%% (dynamic) / 11%% (system); "
              "Select-4:2 by 37%% / 23%%\n");
  return 0;
}
