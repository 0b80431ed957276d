// Every figure of the paper built from full-system runs: Figures 3, 4, 9,
// 10, 11, 12, 13, 14 and 15, and the two ablations. Each figure names its
// runs (a `*_specs` function) and prints itself from their results (a
// `print_*` function). The driver concatenates every figure's specs and
// runs them as one batch, in which run_schemes() simulates each distinct
// spec once: Ideal, LWT-4 and Select-4:2 appear in almost every figure.
#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include "drift/error_model.h"
#include "harness.h"
#include "stats/report.h"

using namespace rd;
using namespace rd::bench;

namespace {

using Results = std::span<const RunResult>;
using Variant = std::pair<readduo::SchemeKind, readduo::ReadDuoOptions>;

/// Per workload: Ideal, then each variant. Most figures normalize to it.
std::vector<RunSpec> ideal_then(const std::vector<trace::Workload>& ws,
                                const std::vector<Variant>& variants) {
  std::vector<RunSpec> specs;
  for (const auto& w : ws) {
    specs.push_back({readduo::SchemeKind::kIdeal, w});
    for (const auto& [kind, opts] : variants) specs.push_back({kind, w, opts});
  }
  return specs;
}

// Figure 3, motivation: each prior mitigation scheme sacrifices something:
// Scrubbing and M-metric lose performance, TLC loses storage density.
// (ReadDuo's point is refusing that trade.)
constexpr readduo::SchemeKind kFig3Kinds[] = {
    readduo::SchemeKind::kScrubbing,
    readduo::SchemeKind::kScrubbingW0,
    readduo::SchemeKind::kMMetric,
    readduo::SchemeKind::kTlc,
};

std::vector<RunSpec> fig3_specs() {
  std::vector<Variant> v;
  for (auto kind : kFig3Kinds) v.push_back({kind, {}});
  return ideal_then(trace::spec2006_workloads(), v);
}

void print_fig3(Results results) {
  std::printf("== Figure 3: prior schemes' performance degradation and "
              "density penalty (vs drift-free Ideal)\n\n");
  const auto& kinds = kFig3Kinds;
  constexpr std::size_t kN = std::size(kFig3Kinds);

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
}

// Figure 4: read modes under the three sensing strategies (R-read 150 ns,
// M-read 450 ns, R-M-read 600 ns), plus the decoupled detect/correct
// analysis that makes the hybrid safe: the probability that a read falls
// in each BCH-8 bucket (correctable <= 8, detectable 9..17, silent > 17)
// as a function of line age.
std::vector<RunSpec> fig4_specs() {
  std::vector<RunSpec> specs;
  for (const char* name : {"bzip2", "mcf", "sphinx3"}) {
    for (auto kind : {readduo::SchemeKind::kScrubbing,
                      readduo::SchemeKind::kMMetric,
                      readduo::SchemeKind::kHybrid,
                      readduo::SchemeKind::kLwt}) {
      specs.push_back({kind, trace::workload_by_name(name)});
    }
  }
  return specs;
}

void print_fig4(Results results) {
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
  const std::vector<RunSpec> specs = fig4_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row({specs[i].workload.name, r.summary.scheme,
               std::to_string(r.counters.r_reads),
               std::to_string(r.counters.m_reads),
               std::to_string(r.counters.rm_reads),
               stats::fmt("%.0f", r.sim.avg_read_latency_ns())});
  }
  t.print();
}

// Figures 9, 10, 11 and 15: four views of one grid, the TLC baseline and
// the six evaluated schemes over the 14 SPEC2006-like workloads. Execution
// time (9) and dynamic energy (10) are normalized to Ideal, density and
// EDAP (11) to TLC, and lifetime (15, inverse cell-write rate) to Ideal;
// each table is followed by the paper's averages. The paper also notes
// that sphinx's LWT energy rises sharply from R-M-read conversions.

/// The grid's columns: TLC and then paper_schemes().
std::vector<readduo::SchemeKind> grid_kinds() {
  std::vector<readduo::SchemeKind> kinds = {readduo::SchemeKind::kTlc};
  for (auto k : paper_schemes()) kinds.push_back(k);
  return kinds;
}

/// Every (workload, scheme) run of the four figures: for each workload in
/// spec2006_workloads() order, the grid_kinds() columns.
struct Grid {
  std::vector<readduo::SchemeKind> kinds;
  Results results;

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

std::vector<RunSpec> grid_specs() {
  std::vector<RunSpec> specs;
  for (const auto& w : trace::spec2006_workloads()) {
    for (auto kind : grid_kinds()) specs.push_back({kind, w});
  }
  return specs;
}

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

void print_grid(Results results) {
  const Grid g{grid_kinds(), results};
  print_fig9(g);
  for (auto print : {print_fig10, print_fig11, print_fig15}) {
    std::printf("\n");
    print(g);
  }
}

// Figure 12: sensitivity to the sub-interval count k in LWT-k. More
// sub-intervals track writes over a longer window (the vector flag retires
// less aggressively), enabling more fast R-reads, for more flag bits.
constexpr unsigned kFig12Ks[] = {2, 4, 8};

std::vector<RunSpec> fig12_specs() {
  std::vector<Variant> v;
  for (unsigned k : kFig12Ks) {
    v.push_back({readduo::SchemeKind::kLwt, {.k = k}});
  }
  return ideal_then(trace::spec2006_workloads(), v);
}

void print_fig12(Results results) {
  std::printf("== Figure 12: impact of sub-interval count k (LWT-k "
              "execution time normalized to Ideal)\n\n");

  const auto& ks = kFig12Ks;
  std::vector<std::string> header = {"Workload"};
  for (unsigned k : ks) header.push_back("LWT-" + std::to_string(k));
  header.push_back("k=4 vs k=2");
  stats::Table t(header);

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
}

// Figure 13: sensitivity to the selective-rewrite window s in
// Select-(4:s). Larger s converts more full-line writes to differential.
constexpr unsigned kFig13Ss[] = {1, 2, 4};

std::vector<RunSpec> fig13_specs() {
  std::vector<Variant> v;
  for (unsigned s : kFig13Ss) {
    v.push_back({readduo::SchemeKind::kSelect, {.select_s = s}});
  }
  return ideal_then(trace::spec2006_workloads(), v);
}

void print_fig13(Results results) {
  std::printf("== Figure 13: impact of selective-rewrite window s "
              "(Select-4:s dynamic energy normalized to Ideal)\n\n");

  const auto& ss = kFig13Ss;
  std::vector<std::string> header = {"Workload"};
  for (unsigned s : ss) header.push_back("Select-4:" + std::to_string(s));
  header.push_back("s=2 vs s=1");
  stats::Table t(header);

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
}

// Figure 14: the R-M-read -> write conversion ablation in LWT-4. Without
// conversion, read-mostly workloads over old data (sphinx3) pay 600 ns
// R-M-reads forever; with it, converted lines regain 150 ns R-reads.
std::vector<RunSpec> fig14_specs() {
  // LWT-4 without conversion, then with it.
  return ideal_then(trace::spec2006_workloads(),
                    {{readduo::SchemeKind::kLwt, {.conversion = false}},
                     {readduo::SchemeKind::kLwt, {.conversion = true}}});
}

void print_fig14(Results results) {
  std::printf("== Figure 14: R-M-read conversion in LWT-4 (execution time "
              "normalized to Ideal)\n\n");

  stats::Table t({"Workload", "no conversion", "with conversion",
                  "improvement", "conv writes", "untracked reads"});
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
}

// Ablation (extension): the three ways to make R-only scrubbing reliable,
// head to head. Table V leaves Scrubbing two honest options — rewrite
// everything every 8 s (W=0) or upgrade to BCH-10 — and ReadDuo-Hybrid's
// thesis is that both lose to hybrid sensing. This quantifies that claim
// across performance, energy, endurance, and density.
constexpr readduo::SchemeKind kAblationW1Kinds[] = {
    readduo::SchemeKind::kScrubbingW0,
    readduo::SchemeKind::kScrubbingBch10,
    readduo::SchemeKind::kHybrid,
    readduo::SchemeKind::kLwt,
    readduo::SchemeKind::kSelect,
};

std::vector<RunSpec> ablation_w1_specs() {
  std::vector<Variant> v;
  for (auto kind : kAblationW1Kinds) v.push_back({kind, {}});
  return ideal_then(trace::spec2006_workloads(), v);
}

void print_ablation_w1(Results results) {
  std::printf("== Ablation: reliable drift mitigation alternatives "
              "(geomean over the 14 workloads, normalized to Ideal)\n\n");
  const auto& kinds = kAblationW1Kinds;
  constexpr std::size_t kN = std::size(kAblationW1Kinds);

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
}

// Ablation (extension): adaptive vs static conversion percentage T. The
// Section III-C controller adjusts T in [0,100]; this pins T to fixed
// values on the two extreme workloads — sphinx3 (cyclic re-reads of old
// data: conversion pays) and mcf (near-uniform archive reads: conversion
// wastes writes) — and shows the adaptive controller tracking the better
// static point on both.
constexpr const char* kAblationTNames[] = {"sphinx3", "mcf", "soplex",
                                           "omnetpp"};
constexpr unsigned kStaticTs[] = {0u, 30u, 60u, 100u};

readduo::ReadDuoOptions static_t(unsigned t) {
  readduo::ReadDuoOptions opts;
  opts.conversion = t > 0;
  opts.controller.initial_t = t;
  opts.controller.floor_t = t;
  // An epoch larger than any run freezes the controller.
  opts.controller.epoch_reads = 1ull << 62;
  return opts;
}

std::vector<RunSpec> ablation_t_specs() {
  // The four static-T pins, then adaptive.
  std::vector<Variant> v;
  for (unsigned tv : kStaticTs) {
    v.push_back({readduo::SchemeKind::kLwt, static_t(tv)});
  }
  v.push_back({readduo::SchemeKind::kLwt, {}});
  std::vector<trace::Workload> ws;
  for (const char* name : kAblationTNames) {
    ws.push_back(trace::workload_by_name(name));
  }
  return ideal_then(ws, v);
}

void print_ablation_t(Results results) {
  std::printf("== Ablation: conversion percentage T — static vs adaptive "
              "(LWT-4 normalized to Ideal)\n\n");

  stats::Table t({"Workload", "T=0", "T=30", "T=60", "T=100", "adaptive",
                  "adaptive conv-writes"});
  std::size_t idx = 0;
  for (const char* name : kAblationTNames) {
    const auto& w = trace::workload_by_name(name);
    const RunResult& ideal = results[idx++];
    const double base = static_cast<double>(ideal.summary.exec_time.v);
    std::vector<std::string> row = {w.name};
    for ([[maybe_unused]] unsigned tv : kStaticTs) {
      const RunResult& r = results[idx++];
      row.push_back(
          stats::fmt("%.3f", static_cast<double>(r.summary.exec_time.v) /
                                 base));
    }
    const RunResult& adaptive = results[idx++];
    row.push_back(stats::fmt(
        "%.3f", static_cast<double>(adaptive.summary.exec_time.v) / base));
    row.push_back(std::to_string(adaptive.counters.conversion_writes));
    t.add_row(std::move(row));
  }
  t.print();

  std::printf("\nReading: sphinx3 wants high T (each converted line is "
              "re-read every scan cycle); mcf wants low T (archive reads "
              "barely repeat, conversions only burn endurance). The "
              "adaptive controller should sit near each workload's best "
              "static column.\n");
}

/// One figure: the runs it needs and how it prints them.
struct Figure {
  std::vector<RunSpec> (*specs)();
  void (*print)(Results);
};

/// In print order.
constexpr Figure kFigures[] = {
    {fig3_specs, print_fig3},
    {fig4_specs, print_fig4},
    {grid_specs, print_grid},
    {fig12_specs, print_fig12},
    {fig13_specs, print_fig13},
    {fig14_specs, print_fig14},
    {ablation_w1_specs, print_ablation_w1},
    {ablation_t_specs, print_ablation_t},
};

}  // namespace

int main() {
  bench::set_bench_name("paper");
  std::vector<RunSpec> specs;
  for (const Figure& f : kFigures) {
    const std::vector<RunSpec> own = f.specs();
    specs.insert(specs.end(), own.begin(), own.end());
  }
  const std::vector<RunResult> results = run_schemes(specs);
  Results rest = results;
  for (const Figure& f : kFigures) {
    const std::size_t n = f.specs().size();
    f.print(rest.first(n));
    rest = rest.subspan(n);
  }
  return 0;
}
