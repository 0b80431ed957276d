// Figures 9, 10, 11 and 15: four views of one grid, the TLC baseline and
// the six evaluated schemes over the 14 SPEC2006-like workloads. One batch
// computes the grid; each figure reads it.
//
// Figure 9: normalized execution time, normalized to Ideal (drift-free
// MLC). Paper averages: Scrubbing +21%, M-metric +25%, Hybrid +5.8%,
// LWT-4 +2.9%, Select-4:2 +3.4%.
//
// Figure 10: normalized dynamic energy, normalized to Ideal. Paper
// averages: Scrubbing +17%, M-metric +5%, Hybrid +8.7%, LWT-4 +1.33%,
// Select-4:2 = 77.8% of Ideal. The paper also notes sphinx's LWT energy
// rises sharply from R-M-read conversions — check that row.
//
// Figure 11: storage density and EDAP (Energy-Delay-Area Product),
// normalized to the TLC baseline. Paper: with dynamic energy, LWT-4 and
// Select-4:2 beat TLC by 7.5% and 37%; with system energy, by 11% and 23%.
//
// Figure 15: PCM lifetime impact. Lifetime is inversely proportional to
// the cell-write rate. Paper: Scrubbing -12.4%, M-metric ~0, Hybrid -6%,
// LWT-4 -10%, Select-4:2 +42% relative to Ideal.
#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

namespace {

/// Every (workload, scheme) run of the four figures: for each workload in
/// spec2006_workloads() order, TLC and then paper_schemes().
struct Grid {
  std::vector<readduo::SchemeKind> kinds;
  std::vector<RunResult> results;

  Grid() {
    kinds.push_back(readduo::SchemeKind::kTlc);
    for (auto k : paper_schemes()) kinds.push_back(k);
    std::vector<RunSpec> specs;
    for (const auto& w : trace::spec2006_workloads()) {
      for (auto kind : kinds) specs.push_back({kind, w});
    }
    results = run_schemes(specs);
  }

  const RunResult& at(std::size_t workload, readduo::SchemeKind kind) const {
    const auto col = std::find(kinds.begin(), kinds.end(), kind);
    return results[workload * kinds.size() +
                   static_cast<std::size_t>(col - kinds.begin())];
  }

  const RunResult& at(const char* workload, readduo::SchemeKind kind) const {
    // workload_by_name returns an element of spec2006_workloads().
    const trace::Workload& w = trace::workload_by_name(workload);
    const auto index = &w - trace::spec2006_workloads().data();
    return at(static_cast<std::size_t>(index), kind);
  }
};

/// One row per workload plus a geomean row: `metric(run, Ideal run)` for
/// each paper scheme.
template <typename Metric>
void print_vs_ideal(const Grid& g, Metric metric) {
  std::vector<std::string> header = {"Workload"};
  readduo::ReadDuoOptions opts;
  for (auto kind : paper_schemes()) {
    header.push_back(readduo::scheme_name(kind, opts));
  }
  std::vector<std::vector<double>> ratios(paper_schemes().size());
  stats::Table t(header);
  const auto& workloads = trace::spec2006_workloads();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::vector<std::string> row = {workloads[w].name};
    const RunResult& ideal = g.at(w, readduo::SchemeKind::kIdeal);
    std::size_t i = 0;
    for (auto kind : paper_schemes()) {
      const double ratio = metric(g.at(w, kind), ideal);
      ratios[i++].push_back(ratio);
      row.push_back(stats::fmt("%.3f", ratio));
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> avg = {"geomean"};
  for (const auto& rs : ratios) avg.push_back(stats::fmt("%.3f", geomean(rs)));
  t.add_row(std::move(avg));
  t.print();
}

void print_fig9(const Grid& g) {
  std::printf("== Figure 9: normalized execution time (budget %llu "
              "instructions/core)\n",
              static_cast<unsigned long long>(instruction_budget()));
  std::printf("== Table X: workload characterization (RPKI / WPKI per "
              "kilo-instruction, post-LLC)\n\n");

  stats::Table tx({"Workload", "RPKI", "WPKI", "Footprint(MB)",
                   "Zipf", "Archive reads", "Archive age(s)"});
  for (const auto& w : trace::spec2006_workloads()) {
    tx.add_row({w.name, stats::fmt("%.2f", w.rpki), stats::fmt("%.2f", w.wpki),
                stats::fmt("%.0f", static_cast<double>(w.footprint_lines) *
                                       64.0 / 1048576.0),
                stats::fmt("%.2f", w.zipf_s),
                stats::fmt("%.0f%%", 100.0 * w.archive_read_fraction),
                stats::fmt("%.0f", w.archive_age_scale)});
  }
  tx.print();
  std::printf("\n");

  print_vs_ideal(g, [](const RunResult& r, const RunResult& ideal) {
    return static_cast<double>(r.summary.exec_time.v) /
           static_cast<double>(ideal.summary.exec_time.v);
  });

  std::printf("\nPaper averages: Scrubbing 1.21, M-metric 1.25, Hybrid "
              "1.058, LWT-4 1.029, Select-4:2 1.034\n");
}

void print_fig10(const Grid& g) {
  std::printf("== Figure 10: normalized dynamic energy (budget %llu "
              "instructions/core)\n\n",
              static_cast<unsigned long long>(instruction_budget()));
  print_vs_ideal(g, [](const RunResult& r, const RunResult& ideal) {
    return r.summary.dynamic_energy_pj / ideal.summary.dynamic_energy_pj;
  });

  // Energy decomposition for the average-defining categories.
  std::printf("\nEnergy decomposition (read / write / scrub shares):\n");
  stats::Table d({"Workload", "Scheme", "read%", "write%", "scrub%"});
  for (const char* name : {"sphinx3", "mcf"}) {
    for (auto kind : paper_schemes()) {
      const RunResult& r = g.at(name, kind);
      const double tot = r.counters.dynamic_energy_pj();
      d.add_row({name, r.summary.scheme,
                 stats::fmt("%.1f", 100.0 * r.counters.read_energy_pj / tot),
                 stats::fmt("%.1f", 100.0 * r.counters.write_energy_pj / tot),
                 stats::fmt("%.1f", 100.0 * r.counters.scrub_energy_pj / tot)});
    }
  }
  d.print();

  std::printf("\nPaper averages: Scrubbing 1.17, M-metric 1.05, Hybrid "
              "1.087, LWT-4 1.013, Select-4:2 0.778\n");
}

void print_fig11(const Grid& g) {
  std::printf("== Figure 11: density and EDAP vs the TLC baseline (budget "
              "%llu instructions/core)\n\n",
              static_cast<unsigned long long>(instruction_budget()));

  // Cells needed to store one 64 B line (the area axis of EDAP).
  readduo::ReadDuoOptions opts;
  std::printf("Cells per 64 B line (normalized to TLC = 384):\n");
  stats::Table dt({"Scheme", "cells/line", "vs TLC"});
  for (auto kind : g.kinds) {
    const double cells = readduo::cells_per_line(kind, opts);
    dt.add_row({readduo::scheme_name(kind, opts), stats::fmt("%.0f", cells),
                stats::fmt("%.3f", cells / 384.0)});
  }
  dt.print();

  // EDAP per scheme, geomean over the 14 workloads, TLC = 1.
  std::vector<std::vector<double>> ed(g.kinds.size()), es(g.kinds.size());
  for (std::size_t w = 0; w < trace::spec2006_workloads().size(); ++w) {
    const RunResult& tlc = g.at(w, readduo::SchemeKind::kTlc);
    for (std::size_t i = 0; i < g.kinds.size(); ++i) {
      const RunResult& r = g.at(w, g.kinds[i]);
      ed[i].push_back(stats::edap_dynamic(r.summary, tlc.summary));
      es[i].push_back(stats::edap_system(r.summary, tlc.summary));
    }
  }

  std::printf("\nEDAP normalized to TLC (lower is better):\n");
  stats::Table t({"Scheme", "Product-D (dynamic)", "Product-S (system)"});
  for (std::size_t i = 0; i < g.kinds.size(); ++i) {
    t.add_row({readduo::scheme_name(g.kinds[i], opts),
               stats::fmt("%.3f", geomean(ed[i])),
               stats::fmt("%.3f", geomean(es[i]))});
  }
  t.print();

  std::printf("\nPaper: LWT-4 beats TLC by 7.5%% (dynamic) / 11%% (system); "
              "Select-4:2 by 37%% / 23%%\n");
}

void print_fig15(const Grid& g) {
  std::printf("== Figure 15: relative PCM lifetime (1/cell-write rate), "
              "Ideal = 1.0 (budget %llu instructions/core)\n\n",
              static_cast<unsigned long long>(instruction_budget()));
  print_vs_ideal(g, [](const RunResult& r, const RunResult& ideal) {
    return stats::relative_lifetime(r.summary, ideal.summary);
  });

  std::printf("\nWrite-mix detail (full vs differential demand writes):\n");
  stats::Table d({"Workload", "full", "diff", "scrub-rw", "conv", "diff%"});
  for (const char* name : {"bzip2", "mcf", "lbm"}) {
    const auto& c = g.at(name, readduo::SchemeKind::kSelect).counters;
    const double tot = static_cast<double>(c.total_demand_writes());
    d.add_row({name, std::to_string(c.demand_full_writes),
               std::to_string(c.demand_diff_writes),
               std::to_string(c.scrub_rewrites),
               std::to_string(c.conversion_writes),
               stats::fmt("%.1f%%",
                          100.0 * static_cast<double>(c.demand_diff_writes) /
                              (tot > 0 ? tot : 1.0))});
  }
  d.print();

  std::printf("\nPaper: Scrubbing 0.876, M-metric ~1.0, Hybrid 0.94, LWT-4 "
              "0.90, Select-4:2 1.42\n");
}

}  // namespace

int main() {
  bench::set_bench_name("fig9");
  const Grid g;
  print_fig9(g);
  std::printf("\n");
  print_fig10(g);
  std::printf("\n");
  print_fig11(g);
  std::printf("\n");
  print_fig15(g);
  return 0;
}
