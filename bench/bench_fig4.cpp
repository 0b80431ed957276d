// Figure 4: read modes under the three sensing strategies — R-read
// (150 ns), M-read (450 ns), R-M-read (600 ns) — plus the decoupled
// detect/correct analysis that makes the hybrid safe: the probability a
// read falls in each BCH-8 bucket (correctable <= 8, detectable 9..17,
// silent > 17) as a function of line age.
#include <cstdio>

#include "drift/error_model.h"
#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig4");
  std::printf("== Figure 4: read service modes\n\n");

  // Analytic bucket probabilities under R-sensing vs line age.
  std::printf("R-sensing error-count buckets vs age (BCH-8, 296 cells):\n");
  drift::LerCalculator calc{drift::ErrorModel(drift::r_metric())};
  stats::Table b({"Age (s)", "P(<=8: R-read ok)", "P(9..17: R-M-read)",
                  "P(>17: silent)"});
  for (double age : {1.0, 8.0, 64.0, 320.0, 640.0, 1280.0, 4096.0}) {
    const double p_gt8 = calc.ler(8, age);
    const double p_gt17 = calc.ler(17, age);
    b.add_row({stats::fmt("%.0f", age), stats::fmt("%.3E", 1.0 - p_gt8),
               stats::fmt("%.3E", p_gt8 - p_gt17),
               stats::fmt("%.3E", p_gt17)});
  }
  b.print();
  std::printf("(decoupling detect from correct keeps P(silent) below the "
              "DRAM target out to 640 s — Section III-B)\n\n");

  // Measured mode mix and latency per scheme.
  std::printf("Measured read-mode mix (geomean-relevant workloads):\n");
  stats::Table t({"Workload", "Scheme", "R-read", "M-read", "R-M-read",
                  "avg latency (ns)"});
  std::vector<RunSpec> specs;
  for (const char* name : {"bzip2", "mcf", "sphinx3"}) {
    for (auto kind : {readduo::SchemeKind::kScrubbing,
                      readduo::SchemeKind::kMMetric,
                      readduo::SchemeKind::kHybrid,
                      readduo::SchemeKind::kLwt}) {
      specs.push_back({kind, trace::workload_by_name(name)});
    }
  }
  const std::vector<RunResult> results = run_schemes(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({specs[i].workload.name, r.summary.scheme,
               std::to_string(r.counters.r_reads),
               std::to_string(r.counters.m_reads),
               std::to_string(r.counters.rm_reads),
               stats::fmt("%.0f", r.sim.avg_read_latency_ns())});
  }
  t.print();
  return 0;
}
