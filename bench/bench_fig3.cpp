// Figure 3: motivation — the state-of-the-art mitigation schemes each
// sacrifice something: Scrubbing and M-metric lose performance, TLC loses
// storage density. (ReadDuo's point is refusing that trade.)
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig3");
  std::printf("== Figure 3: prior schemes' performance degradation and "
              "density penalty (vs drift-free Ideal)\n\n");

  const readduo::SchemeKind kinds[] = {
      readduo::SchemeKind::kScrubbing,
      readduo::SchemeKind::kScrubbingW0,
      readduo::SchemeKind::kMMetric,
      readduo::SchemeKind::kTlc,
  };
  constexpr std::size_t kN = 4;

  // One flat batch over (workload x {Ideal, kinds}), executed concurrently.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    for (auto kind : kinds) specs.push_back({kind, w});
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<std::vector<double>> slow(kN);
  for (std::size_t idx = 0; idx < results.size(); idx += kN + 1) {
    const RunResult& ideal = results[idx];
    for (std::size_t i = 0; i < kN; ++i) {
      const RunResult& r = results[idx + 1 + i];
      slow[i].push_back(static_cast<double>(r.summary.exec_time.v) /
                        static_cast<double>(ideal.summary.exec_time.v));
    }
  }

  stats::Table t({"Scheme", "Perf degradation", "Density penalty",
                  "Trade-off"});
  const double ideal_cells =
      readduo::cells_per_line(readduo::SchemeKind::kIdeal);
  const char* notes[] = {
      "wastes bandwidth on 8 s scrubs (W=1: not DRAM-reliable)",
      "W=0 rewrite-at-every-scrub: the reliable R-only setting",
      "every read pays 450 ns",
      "needs 384 cells per 64 B line",
  };
  for (std::size_t i = 0; i < kN; ++i) {
    const double cells = readduo::cells_per_line(kinds[i]);
    t.add_row({readduo::scheme_name(kinds[i]),
               stats::fmt("%+.1f%%", 100.0 * (geomean(slow[i]) - 1.0)),
               stats::fmt("%+.1f%%", 100.0 * (cells / ideal_cells - 1.0)),
               notes[i]});
  }
  t.print();
  std::printf("\nPaper's qualitative claim (Table VI): Scrubbing and "
              "M-metric lose performance/energy, TLC loses density; "
              "ReadDuo aims for '+' on all four axes.\n");
  return 0;
}
