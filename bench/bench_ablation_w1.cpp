// Ablation (extension): the three ways to make R-only scrubbing reliable,
// head to head. Table V leaves Scrubbing two honest options — rewrite
// everything every 8 s (W=0) or upgrade to BCH-10 — and ReadDuo-Hybrid's
// thesis is that both lose to hybrid sensing. This bench quantifies that
// claim across performance, energy, endurance, and density.
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("ablation_w1");
  std::printf("== Ablation: reliable drift mitigation alternatives "
              "(geomean over the 14 workloads, normalized to Ideal)\n\n");

  const readduo::SchemeKind kinds[] = {
      readduo::SchemeKind::kScrubbingW0,
      readduo::SchemeKind::kScrubbingBch10,
      readduo::SchemeKind::kHybrid,
      readduo::SchemeKind::kLwt,
      readduo::SchemeKind::kSelect,
  };
  constexpr std::size_t kN = std::size(kinds);

  // One flat concurrent batch: Ideal followed by the five alternatives,
  // per workload.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    for (auto kind : kinds) specs.push_back({kind, w});
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<std::vector<double>> time(kN), energy(kN), life(kN);
  std::size_t idx = 0;
  for ([[maybe_unused]] const auto& w : trace::spec2006_workloads()) {
    const RunResult& ideal = results[idx++];
    for (std::size_t i = 0; i < kN; ++i) {
      const RunResult& r = results[idx++];
      time[i].push_back(static_cast<double>(r.summary.exec_time.v) /
                        static_cast<double>(ideal.summary.exec_time.v));
      energy[i].push_back(r.summary.dynamic_energy_pj /
                          ideal.summary.dynamic_energy_pj);
      life[i].push_back(
          stats::relative_lifetime(r.summary, ideal.summary));
    }
  }

  stats::Table t({"Scheme", "exec time", "dyn energy", "lifetime",
                  "cells/line"});
  t.add_row({"Ideal", "1.000", "1.000", "1.000", "296"});
  for (std::size_t i = 0; i < kN; ++i) {
    t.add_row({readduo::scheme_name(kinds[i]),
               stats::fmt("%.3f", geomean(time[i])),
               stats::fmt("%.3f", geomean(energy[i])),
               stats::fmt("%.3f", geomean(life[i])),
               stats::fmt("%.0f", readduo::cells_per_line(kinds[i]))});
  }
  t.print();

  std::printf("\nReading: W=0 scrubbing pays endurance and energy to make "
              "R-sensing safe; BCH-10 pays density and still scrubs every "
              "8 s; the ReadDuo family gets reliability from the M-metric "
              "safety net at a fraction of every cost.\n");
  return 0;
}
