// Figure 14: the R-M-read -> write conversion ablation in LWT-4. Without
// conversion, read-mostly workloads over old data (sphinx3) pay 600 ns
// R-M-reads forever; with it, converted lines regain 150 ns R-reads.
// Paper: +22% for sphinx, +2.9% overall.
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig14");
  std::printf("== Figure 14: R-M-read conversion in LWT-4 (execution time "
              "normalized to Ideal)\n\n");

  stats::Table t({"Workload", "no conversion", "with conversion",
                  "improvement", "conv writes", "untracked reads"});
  readduo::ReadDuoOptions off;
  off.conversion = false;
  readduo::ReadDuoOptions on;
  on.conversion = true;
  // Per workload: Ideal, LWT-4 without conversion, LWT-4 with it.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    specs.push_back({readduo::SchemeKind::kLwt, w, off});
    specs.push_back({readduo::SchemeKind::kLwt, w, on});
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<double> gain;
  std::size_t idx = 0;
  for (const auto& w : trace::spec2006_workloads()) {
    const RunResult& ideal = results[idx++];
    const RunResult& roff = results[idx++];
    const RunResult& ron = results[idx++];
    const double toff = static_cast<double>(roff.summary.exec_time.v) /
                        static_cast<double>(ideal.summary.exec_time.v);
    const double ton = static_cast<double>(ron.summary.exec_time.v) /
                       static_cast<double>(ideal.summary.exec_time.v);
    gain.push_back(toff / ton);
    t.add_row({w.name, stats::fmt("%.3f", toff), stats::fmt("%.3f", ton),
               stats::fmt("%+.1f%%", 100.0 * (toff / ton - 1.0)),
               std::to_string(ron.counters.conversion_writes),
               std::to_string(ron.counters.untracked_reads)});
  }
  t.print();
  std::printf("\nAverage improvement from conversion: %+.2f%%  (paper: "
              "+2.9%% overall, +22%% for sphinx)\n",
              100.0 * (geomean(gain) - 1.0));
  return 0;
}
