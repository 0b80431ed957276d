// Figure 13: sensitivity to the selective-rewrite window s in
// Select-(4:s). Larger s converts more full-line writes to differential
// ones. Paper: s=2 saves 1.2% energy over s=1.
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig13");
  std::printf("== Figure 13: impact of selective-rewrite window s "
              "(Select-4:s dynamic energy normalized to Ideal)\n\n");

  const unsigned ss[] = {1, 2, 4};
  std::vector<std::string> header = {"Workload"};
  for (unsigned s : ss) header.push_back("Select-4:" + std::to_string(s));
  header.push_back("s=2 vs s=1");
  stats::Table t(header);

  // Per workload: Ideal, then Select-4:s for each s.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    for (unsigned s : ss) {
      readduo::ReadDuoOptions opts;
      opts.select_s = s;
      specs.push_back({readduo::SchemeKind::kSelect, w, opts});
    }
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<double> gain;
  std::size_t idx = 0;
  for (const auto& w : trace::spec2006_workloads()) {
    const RunResult& ideal = results[idx++];
    std::vector<std::string> row = {w.name};
    double e1 = 0.0, e2 = 0.0;
    for (unsigned s : ss) {
      const RunResult& r = results[idx++];
      const double ratio =
          r.summary.dynamic_energy_pj / ideal.summary.dynamic_energy_pj;
      if (s == 1) e1 = ratio;
      if (s == 2) e2 = ratio;
      row.push_back(stats::fmt("%.3f", ratio));
    }
    const double g = e1 / e2;
    gain.push_back(g);
    row.push_back(stats::fmt("%+.2f%%", 100.0 * (g - 1.0)));
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\nAverage s=2-over-s=1 energy saving: %+.2f%%  (paper: "
              "+1.2%%)\n",
              100.0 * (geomean(gain) - 1.0));
  return 0;
}
