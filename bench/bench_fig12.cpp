// Figure 12: sensitivity to the sub-interval count k in LWT-k. More
// sub-intervals track writes over a longer window (the vector flag retires
// less aggressively), enabling more fast R-reads — at the cost of more
// flag bits. Paper: k=4 is 0.7% faster than k=2 on average, 2.3% on mcf.
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

int main() {
  bench::set_bench_name("fig12");
  std::printf("== Figure 12: impact of sub-interval count k (LWT-k "
              "execution time normalized to Ideal)\n\n");

  const unsigned ks[] = {2, 4, 8};
  std::vector<std::string> header = {"Workload"};
  for (unsigned k : ks) header.push_back("LWT-" + std::to_string(k));
  header.push_back("k=4 vs k=2");
  stats::Table t(header);

  // Per workload: Ideal, then LWT-k for each k.
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    for (unsigned k : ks) {
      readduo::ReadDuoOptions opts;
      opts.k = k;
      specs.push_back({readduo::SchemeKind::kLwt, w, opts});
    }
  }
  const std::vector<RunResult> results = run_schemes(specs);

  std::vector<double> gain;
  std::size_t idx = 0;
  for (const auto& w : trace::spec2006_workloads()) {
    const RunResult& ideal = results[idx++];
    std::vector<std::string> row = {w.name};
    double t2 = 0.0, t4 = 0.0;
    for (unsigned k : ks) {
      const RunResult& r = results[idx++];
      const double ratio = static_cast<double>(r.summary.exec_time.v) /
                           static_cast<double>(ideal.summary.exec_time.v);
      if (k == 2) t2 = ratio;
      if (k == 4) t4 = ratio;
      row.push_back(stats::fmt("%.3f", ratio));
    }
    const double g = t2 / t4;
    gain.push_back(g);
    row.push_back(stats::fmt("%+.2f%%", 100.0 * (g - 1.0)));
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\nAverage k=4-over-k=2 speedup: %+.2f%%  (paper: +0.7%% "
              "average, +2.3%% for mcf)\n",
              100.0 * (geomean(gain) - 1.0));
  std::printf("Flag-bit cost: k + log2(k) SLC bits per line (k=2: 3, k=4: "
              "6, k=8: 11)\n");
  return 0;
}
