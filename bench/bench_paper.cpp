// Every table and figure of the paper, in order: Tables I/II, VIII and
// IX, III, IV, V and VII, Figure 6, the full-system Figures 3, 4, 9, 10,
// 11, 12, 13, 14 and 15 and the two ablations, then four extensions (wear
// leveling, row buffer, temperature, write preemption). Each artefact
// names its runs (a `*_specs` function; the analytic ones need none) and
// prints itself from their results (a `print_*` function). The driver
// concatenates every artefact's specs and runs them as one batch, in which
// run_schemes() simulates each distinct spec once: Ideal, LWT-4 and
// Select-4:2 appear in almost every figure. Everything device-dependent
// reads the active device.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "config/loader.h"
#include "drift/error_model.h"
#include "harness.h"
#include "pcm/area.h"
#include "pcm/line.h"
#include "pcm/wear_level.h"
#include "pcm/write.h"
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

/// The analytic artefacts run no simulations.
std::vector<RunSpec> no_specs() { return {}; }

// Tables I, II, VIII, IX: the model configurations the rest of the
// reproduction is built on, printed from the active device (CPU
// parameters are system constants).
void print_metric(const drift::MetricConfig& c) {
  std::printf("\n%s configuration (t0 = %.0fs, programmed range +/-%.3f "
              "sigma, read boundary +/-%.2f sigma):\n",
              c.name.c_str(), c.t0_seconds, c.program_halfwidth,
              c.boundary_halfwidth);
  stats::Table t({"Level", "Data", "log10(X)", "sigma", "mu_alpha",
                  "sigma_alpha"});
  for (std::size_t i = 0; i < drift::kNumStates; ++i) {
    const auto& s = c.states[i];
    t.add_row({std::to_string(i),
               std::string(1, '0' + ((drift::kLevelData[i] >> 1) & 1)) +
                   std::string(1, '0' + (drift::kLevelData[i] & 1)),
               stats::fmt("%.0f", s.mu), stats::fmt("%.4f", s.sigma),
               stats::fmt("%.5f", s.mu_alpha),
               stats::fmt("%.5f", s.sigma_alpha)});
  }
  t.print();
}

void print_tables_1_2(Results) {
  const config::DeviceConfig& dev = config::active_device();
  std::printf("== Table I / Table II: readout-metric drift configurations\n");
  print_metric(dev.r_metric);
  print_metric(dev.m_metric);

  std::printf("\n== Table VIII: system configuration\n");
  pcm::CpuParams cpu;
  const pcm::MemoryOrg& org = dev.org;
  const pcm::TimingParams& tm = dev.timing;
  std::printf("  CPU: %u in-order cores @ %.1f GHz (read stall fraction "
              "%.2f)\n",
              cpu.num_cores, cpu.clock_ghz, cpu.read_stall_fraction);
  std::printf("  Memory: %llu GB MLC PCM, %u banks, %u B lines, %u cells "
              "per line, %u lines per scrub row\n",
              static_cast<unsigned long long>(org.capacity_bytes >> 30),
              org.num_banks, org.line_bytes, org.cells_per_line,
              org.lines_per_scrub);
  std::printf("  Timing: R-read %lld ns, M-read %lld ns, R-M-read %lld ns, "
              "write %lld ns, bus %lld ns\n",
              static_cast<long long>(tm.r_read.v),
              static_cast<long long>(tm.m_read.v),
              static_cast<long long>(tm.rm_read.v),
              static_cast<long long>(tm.write.v),
              static_cast<long long>(tm.bus_transfer.v));

  std::printf("\n== Table IX: energy parameters (literature-typical; see "
              "DESIGN.md substitutions)\n");
  const pcm::EnergyParams& e = dev.energy;
  std::printf("  R-read: %.0f pJ/line, M-read: %.0f pJ/line, cell write: "
              "%.0f pJ/cell, static: %.2f W\n",
              e.r_read.v, e.m_read.v, e.cell_write.v, e.static_watts);
  pcm::PnvParams pnv;
  std::printf("  P&V pulses per cell write (avg over levels): %.2f\n",
              pcm::average_write_pulses(pnv));
}

/// One grid entry of Tables III-V: the probability, starred when it meets
/// the DRAM target.
std::string ler_cell(double p, double target) {
  if (p < 1e-18) return "too small";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2E%s", p, p <= target ? " *" : "");
  return buf;
}

/// A feasibility point printed under an LER grid, with its label.
struct Pivot {
  const char* label;
  unsigned e;
  double s;
};

/// Tables III and IV: line error rate within the first scrub interval
/// under `metric` sensing, for BCH strength E and interval S, against the
/// DRAM-equivalent target; then the paper's pivotal points.
void print_ler_grid(const char* title, const drift::MetricConfig& metric,
                    std::span<const unsigned> es,
                    std::span<const double> times,
                    std::span<const Pivot> pivots) {
  drift::LerCalculator calc{drift::ErrorModel(metric),
                            config::active_device().geometry};
  std::printf("%s", title);
  std::vector<std::string> header = {"S(s)"};
  for (unsigned e : es) header.push_back("E=" + std::to_string(e));
  header.push_back("LER_DRAM");

  // The (E, S) grid is a pure function per cell; evaluate it over the
  // READDUO_THREADS pool, then format serially.
  const std::size_t kE = es.size();
  std::vector<double> lers(times.size() * kE);
  parallel_for_shards(lers.size(), [&](std::size_t i) {
    lers[i] = calc.ler(es[i % kE], times[i / kE]);
  });

  stats::Table t(header);
  for (std::size_t si = 0; si < times.size(); ++si) {
    const double s = times[si];
    const double target = drift::LerCalculator::ler_dram_target(s);
    std::vector<std::string> row = {stats::fmt("%.0f", s)};
    for (std::size_t ei = 0; ei < kE; ++ei) {
      row.push_back(ler_cell(lers[si * kE + ei], target));
    }
    row.push_back(stats::fmt("%.2E", target));
    t.add_row(std::move(row));
  }
  t.print();

  std::printf("\nPivotal checks:\n");
  for (const Pivot& p : pivots) {
    const double ler = calc.ler(p.e, p.s);
    const double target = drift::LerCalculator::ler_dram_target(p.s);
    std::printf("  %s = %.2E  (target %.2E)  %s\n", p.label, ler, target,
                ler <= target ? "MEETS" : "fails");
  }
}

// Table III: R-metric sensing. The paper's pivotal feasibility points:
// (BCH=8, S=8) meets the target, and 17-error detection stays below the
// target out to S = 640 s (what makes ReadDuo-Hybrid safe).
void print_table3(Results) {
  constexpr unsigned kEs[] = {0, 1, 7, 8, 9, 16, 17, 18};
  constexpr double kTimes[] = {4, 8, 16, 32, 64, 128, 256, 512, 640, 1024};
  constexpr Pivot kPivots[] = {{"LER(E=8,  S=8)  ", 8, 8.0},
                               {"LER(E=17, S=640)", 17, 640.0}};
  print_ler_grid("== Table III: LER vs (E, S), R-metric sensing\n"
                 "   ('*' marks entries meeting the DRAM target; paper "
                 "anchor: (E=8, S=8) feasible, (E=17, S=640) feasible)\n\n",
                 config::active_device().r_metric, kEs, kTimes, kPivots);
}

// Table IV: M-metric sensing. The M-metric's 7x smaller drift coefficient
// lets (BCH=8) meet the DRAM target with a 640 s scrub interval (indeed
// out to 2^14 s), versus 8 s for R-sensing.
void print_table4(Results) {
  constexpr unsigned kEs[] = {0, 1, 7, 8};
  constexpr double kTimes[] = {128,  256,  512,  640,  1024,
                               2048, 4096, 8192, 16384};
  constexpr Pivot kPivots[] = {{"LER(E=8, S=640   )", 8, 640.0},
                               {"LER(E=8, S=16384 )", 8, 16384.0}};
  print_ler_grid("== Table IV: LER vs (E, S), M-metric sensing\n"
                 "   ('*' marks entries meeting the DRAM target)\n\n",
                 config::active_device().m_metric, kEs, kTimes, kPivots);
}

// Table V: can a scheme skip rewriting clean lines (W=1)? Conditions (ii)
// and (iii) of the efficient-scrubbing definition: the probability that a
// line looks clean at one scrub yet accumulates more than E-W errors in
// the next interval must stay under the DRAM target. The paper's
// conclusion: R(BCH=8, S=8) fails with W=1 (hence W=0 or BCH-10);
// M(BCH=8, S=640) is safe with W=1 — which is exactly what ReadDuo-LWT
// exploits.
void print_table5(Results) {
  const config::DeviceConfig& dev = config::active_device();
  drift::LerCalculator r{drift::ErrorModel(dev.r_metric), dev.geometry};
  drift::LerCalculator m{drift::ErrorModel(dev.m_metric), dev.geometry};

  struct Config {
    const char* name;
    drift::LerCalculator* calc;
    unsigned e;
    double s;
  };
  Config configs[] = {
      {"R(BCH=8,  S=8)", &r, 8, 8.0},
      {"R(BCH=10, S=8)", &r, 10, 8.0},
      {"M(BCH=8,  S=640)", &m, 8, 640.0},
  };

  std::printf("== Table V: W=1 feasibility — conditions (ii) and (iii)\n");
  std::printf("   ('*' marks probabilities meeting the DRAM target)\n\n");

  // Every (config, method) cell pair is independent; evaluate the whole
  // 2x3x2 grid over the READDUO_THREADS pool, then format serially.
  constexpr std::size_t kConfigs = std::size(configs);
  std::vector<double> probs(2 * kConfigs * 2);
  parallel_for_shards(probs.size(), [&](std::size_t i) {
    const bool exact = i >= kConfigs * 2;
    const Config& c = configs[(i / 2) % kConfigs];
    const bool third = (i % 2) != 0;
    if (exact) {
      probs[i] = third ? c.calc->log_prob_third_interval(c.e, 1, c.s)
                       : c.calc->log_prob_second_interval(c.e, 1, c.s);
    } else {
      probs[i] = third ? c.calc->log_prob_third_interval_indep(c.e, 1, c.s)
                       : c.calc->log_prob_second_interval_indep(c.e, 1, c.s);
    }
  });

  // One table per method: the log-probabilities from `first` on.
  auto verdicts = [&](std::size_t first) {
    stats::Table t({"Config", "P(ii)", "P(iii)", "LER_DRAM", "W=1 verdict"});
    for (std::size_t ci = 0; ci < kConfigs; ++ci) {
      const Config& c = configs[ci];
      const double target = drift::LerCalculator::ler_dram_target(c.s);
      const double p2 = std::exp(probs[first + ci * 2]);
      const double p3 = std::exp(probs[first + ci * 2 + 1]);
      const bool ok = p2 <= target && p3 <= target;
      t.add_row({c.name, ler_cell(p2, target), ler_cell(p3, target),
                 stats::fmt("%.2E", target), ok ? "SAFE" : "UNSAFE"});
    }
    t.print();
  };
  std::printf("Paper's method (independence approximation, Section "
              "III-A):\n");
  verdicts(0);
  std::printf("\nExact interval-increment computation (drift is monotone, "
              "so a line clean at S can only\naccumulate p(2S)-p(S) error "
              "mass in the second interval):\n");
  verdicts(kConfigs * 2);

  std::printf("\nConclusion (paper's method): R(BCH=8, S=8) cannot use "
              "W=1 — it must rewrite every line at scrub time (W=0) or "
              "upgrade to BCH-10;\nM(BCH=8, S=640) safely uses W=1 — "
              "ReadDuo-LWT's scrub setting. The exact computation is less "
              "pessimistic (see EXPERIMENTS.md).\n");
}

// Table VII: subarray area occupancy with and without the ReadDuo hybrid
// sense amplifier. The paper (via a revised NVSim) reports a 0.27% total
// area increment for adding the voltage-mode sense path.
void print_breakdown(const char* title, const pcm::SubarrayArea& a) {
  std::printf("\n%s (total %.3e F^2):\n", title, a.total());
  stats::Table t({"Component", "Area (F^2)", "Share"});
  auto row = [&](const char* name, double v) {
    t.add_row({name, stats::fmt("%.3e", v),
               stats::fmt("%.3f%%", 100.0 * v / a.total())});
  };
  row("data array", a.data_array);
  row("row decoder", a.row_decoder);
  row("column mux + precharge", a.column_periphery);
  row("current-mode sense (I-V conv)", a.current_sense);
  row("voltage-mode sense (ReadDuo)", a.voltage_sense);
  t.print();
}

void print_table7(Results) {
  pcm::AreaParams p;
  std::printf("== Table VII: subarray area model (%zux%zu cells, %zu:1 "
              "column mux, %zu sense amps)\n",
              p.rows, p.cols, p.column_mux_ratio, p.num_sense_amps());
  const pcm::SubarrayArea base = pcm::subarray_area(p, false);
  const pcm::SubarrayArea enhanced = pcm::subarray_area(p, true);
  print_breakdown("Conventional subarray (current-mode only)", base);
  print_breakdown("ReadDuo subarray (hybrid S/A)", enhanced);
  std::printf("\nOverall area increment: %.3f%%  (paper: 0.27%%)\n",
              100.0 * pcm::readduo_area_increase(p));
}

// Figure 6: what differential rewriting does to the drifting cell
// population. A Monte-Carlo device experiment compares three scrub
// policies over repeated 640 s intervals:
//   full     — rewrite every cell (what the paper requires of MLC writes);
//   refresh  — reprogram only the currently-misreading cells (naive
//              differential scrub);
//   none     — never rewrite (what a differentially-written cell
//              population experiences between full writes).
//
// Model note (documented in EXPERIMENTS.md): under the literal power-law
// drift of Eq. (1) — the clock runs from each cell's own write — old
// unwritten cells drift ever more slowly in wall-clock terms, so the
// `none` column accumulates errors monotonically while `refresh` declines.
// The accumulation in `none` is exactly why ReadDuo-Select measures
// R-sensing reliability from the last FULL write (Section III-D): cells
// skipped by differential writes keep their old drift budget.
void print_fig6(Results) {
  const drift::MetricConfig& cfg = config::active_device().r_metric;
  const std::size_t kLines = 2000;
  const std::size_t kBits = 592;
  const double kInterval = 640.0;
  const int kEpochs = 6;
  Rng rng(2024);

  auto random_bits = [&](BitVec& v) {
    for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.bernoulli(0.5));
  };

  std::printf("== Figure 6: scrub rewrite policy vs drift-error "
              "accumulation (%zu lines x %zu bits, scrub every %.0f s)\n\n",
              kLines, kBits, kInterval);

  stats::Table t({"Epoch", "full: errors/line", "refresh: errors/line",
                  "none: errors/line", "none: P(>8)",
                  "refreshed cells/line"});

  std::vector<pcm::MlcLine> full(kLines, pcm::MlcLine(kBits));
  std::vector<pcm::MlcLine> refresh(kLines, pcm::MlcLine(kBits));
  std::vector<pcm::MlcLine> none(kLines, pcm::MlcLine(kBits));
  std::vector<BitVec> payload(kLines, BitVec(kBits));
  for (std::size_t i = 0; i < kLines; ++i) {
    random_bits(payload[i]);
    full[i].write_full(payload[i], 0.0, rng, cfg);
    refresh[i].write_full(payload[i], 0.0, rng, cfg);
    none[i].write_full(payload[i], 0.0, rng, cfg);
  }

  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const double now = kInterval * epoch;
    double full_err = 0.0, refresh_err = 0.0, none_err = 0.0;
    double refreshed = 0.0;
    std::size_t none_gt8 = 0;
    for (std::size_t i = 0; i < kLines; ++i) {
      full_err += static_cast<double>(full[i].count_drift_errors(now, cfg));
      refresh_err +=
          static_cast<double>(refresh[i].count_drift_errors(now, cfg));
      const std::size_t ne = none[i].count_drift_errors(now, cfg);
      none_err += static_cast<double>(ne);
      if (ne > 8) ++none_gt8;
      full[i].write_full(payload[i], now, rng, cfg);
      refreshed +=
          static_cast<double>(refresh[i].refresh_drifted(now, rng, cfg));
    }
    t.add_row({std::to_string(epoch), stats::fmt("%.3f", full_err / kLines),
               stats::fmt("%.3f", refresh_err / kLines),
               stats::fmt("%.3f", none_err / kLines),
               stats::fmt("%.4f", static_cast<double>(none_gt8) / kLines),
               stats::fmt("%.2f", refreshed / kLines)});
  }
  t.print();

  std::printf("\nShapes: 'full' is flat (every scrub resets all drift "
              "clocks); 'none' accumulates monotonically toward the BCH-8 "
              "limit — the population a differential write leaves behind, "
              "and the reason Select tracks the last full write.\n");
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
  const config::DeviceConfig& dev = config::active_device();
  std::printf("R-sensing error-count buckets vs age (BCH-8, %u cells):\n",
              dev.geometry.total_cells());
  drift::LerCalculator calc{drift::ErrorModel(dev.r_metric), dev.geometry};
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

// Extension: Start-Gap wear leveling under skewed write streams. The
// paper reports scheme-level endurance as total cell writes (Figure 15)
// and defers wear leveling to related work [19]. This supplies that
// substrate's numbers: how much a rotating gap flattens per-line wear for
// Zipf write skews, and what it costs in extra line writes.
void print_ext_wear(Results) {
  const std::uint64_t kLines = 1u << 14;
  const std::uint64_t kWrites = 4'000'000;
  const std::uint64_t kInterval = 100;  // psi: 1% write overhead

  std::printf("== Extension: Start-Gap wear leveling (%llu lines, %llu "
              "writes, gap interval %llu)\n\n",
              static_cast<unsigned long long>(kLines),
              static_cast<unsigned long long>(kWrites),
              static_cast<unsigned long long>(kInterval));

  stats::Table t({"Write skew (zipf s)", "no WL: max/mean wear",
                  "Start-Gap: max/mean wear", "lifetime gain",
                  "gap-move overhead"});
  for (double s : {0.0, 0.5, 0.8, 0.95}) {
    Rng rng(101);
    std::vector<std::uint64_t> raw(kLines, 0);
    std::vector<std::uint64_t> leveled(kLines + 1, 0);
    pcm::StartGap sg(kLines, kInterval);
    std::uint64_t gap_moves = 0;
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      const std::uint64_t logical = rng.zipf(kLines, s);
      ++raw[logical];
      ++leveled[sg.to_physical(logical)];
      gap_moves += sg.on_write() ? 1 : 0;
    }
    const double mean_raw =
        static_cast<double>(kWrites) / static_cast<double>(kLines);
    const double mean_lvl =
        static_cast<double>(kWrites) / static_cast<double>(kLines + 1);
    const double max_raw = static_cast<double>(
        *std::max_element(raw.begin(), raw.end()));
    const double max_lvl = static_cast<double>(
        *std::max_element(leveled.begin(), leveled.end()));
    // PCM lifetime is set by the most-worn line.
    t.add_row({stats::fmt("%.2f", s), stats::fmt("%.1fx", max_raw / mean_raw),
               stats::fmt("%.1fx", max_lvl / mean_lvl),
               stats::fmt("%.1fx", max_raw / max_lvl),
               stats::fmt("%.2f%%", 100.0 * static_cast<double>(gap_moves) /
                                        static_cast<double>(kWrites))});
  }
  t.print();

  std::printf("\nReading: without leveling, lifetime is set by the hottest "
              "line (tens of times the mean under heavy skew); Start-Gap "
              "bounds the hottest physical slot to a small multiple of the "
              "mean for ~1%% extra writes.\n");
}

/// The row-buffer and write-preemption extensions run a third of the
/// full-system budget (2M instructions at the 6M default).
std::uint64_t extension_budget() {
  return std::max<std::uint64_t>(1, instruction_budget() / 3);
}

// Extension: the open-page row-buffer model. The paper's baseline is
// closed-page; this quantifies what an open-page policy would add on top
// of each readout scheme (row hits skip sensing entirely, so they also
// bypass the R/M latency gap).
constexpr const char* kRowBufferNames[] = {"gcc", "omnetpp", "mcf",
                                           "sphinx3"};
constexpr readduo::SchemeKind kRowBufferKinds[] = {
    readduo::SchemeKind::kIdeal, readduo::SchemeKind::kMMetric,
    readduo::SchemeKind::kLwt};

std::vector<RunSpec> rowbuffer_specs() {
  // Per (workload, scheme): closed page, then open page.
  std::vector<RunSpec> specs;
  for (const char* name : kRowBufferNames) {
    for (auto kind : kRowBufferKinds) {
      for (bool open_page : {false, true}) {
        specs.push_back({.kind = kind,
                         .workload = trace::workload_by_name(name),
                         .seed = 77,
                         .open_page = open_page,
                         .instructions = extension_budget()});
      }
    }
  }
  return specs;
}

void print_ext_rowbuffer(Results results) {
  std::printf("== Extension: open-page row buffer vs the closed-page "
              "baseline\n\n");
  stats::Table t({"Workload", "Scheme", "closed (ms / ns)",
                  "open (ms / ns)", "hit rate", "speedup"});
  auto exec_ms = [](const memsim::SimResult& r) {
    return static_cast<double>(r.exec_time.v) * 1e-6;
  };
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const RunResult& closed = results[i];
    const memsim::SimResult& open = results[i + 1].sim;
    const double hit_rate =
        open.reads_serviced ? static_cast<double>(open.row_hits) /
                                  static_cast<double>(open.reads_serviced)
                            : 0.0;
    t.add_row({kRowBufferNames[i / 2 / std::size(kRowBufferKinds)],
               closed.summary.scheme,
               stats::fmt("%.2f", exec_ms(closed.sim)) + " / " +
                   stats::fmt("%.0f", closed.sim.avg_read_latency_ns()),
               stats::fmt("%.2f", exec_ms(open)) + " / " +
                   stats::fmt("%.0f", open.avg_read_latency_ns()),
               stats::fmt("%.1f%%", 100.0 * hit_rate),
               stats::fmt("%+.1f%%",
                          100.0 * (exec_ms(closed.sim) / exec_ms(open) -
                                   1.0))});
  }
  t.print();
  std::printf("\nReading: open-page + row-interleave is a locality-vs-"
              "parallelism trade. Sequential streams (sphinx3's scan) hit "
              "the latched row ~1/3 of the time and skip sensing entirely "
              "— which shrinks the M/R-M latency gap, hence LWT-4's gain. "
              "Hot-lined workloads (gcc) lose badly: row-interleaving "
              "concentrates their traffic in few banks and queueing "
              "swamps the hit savings. The paper's closed-page, "
              "line-interleaved baseline is the right default for MLC "
              "PCM.\n");
}

// Extension: drift vs operating temperature. Hotter chips drift faster,
// which tightens every (E, S) feasibility point of Tables III/IV: this
// prints the maximum safe scrub interval for (BCH-8) R-sensing and the
// silent-corruption window (E=17) across the operating range — the
// numbers a deployment would derate by.

/// Largest S (seconds) with LER(e, S) <= target(S); bisection over log S.
double max_safe_interval(const drift::LerCalculator& calc, unsigned e) {
  double lo = 1.5, hi = 1e7;
  if (calc.ler(e, lo) > drift::LerCalculator::ler_dram_target(lo)) return 0.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (calc.ler(e, mid) <= drift::LerCalculator::ler_dram_target(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void print_ext_temperature(Results) {
  const config::DeviceConfig& dev = config::active_device();
  std::printf("== Extension: temperature derating of the drift-reliability "
              "envelope\n\n");
  stats::Table t({"Temp (C)", "p_cell(640s), R", "max S for R(BCH-8)",
                  "E=17 safe to (Hybrid window)", "max S for M(BCH-8)"});
  for (double celsius : {0.0, 27.0, 45.0, 60.0, 85.0}) {
    const drift::ErrorModel r(drift::at_temperature(dev.r_metric, celsius));
    const drift::ErrorModel m(drift::at_temperature(dev.m_metric, celsius));
    drift::LerCalculator cr{r, dev.geometry};
    drift::LerCalculator cm{m, dev.geometry};
    t.add_row({stats::fmt("%.0f", celsius),
               stats::fmt("%.2E", r.avg_cell_error_prob(640.0)),
               stats::fmt("%.0f s", max_safe_interval(cr, 8)),
               stats::fmt("%.0f s", max_safe_interval(cr, 17)),
               stats::fmt("%.0f s", max_safe_interval(cm, 8))});
  }
  t.print();
  std::printf("\nReading: at the reference 27 C this reproduces the "
              "paper's working points (S=8 s for R-sensing, 640 s for the "
              "hybrid's 17-error detection window, >> 640 s for "
              "M-sensing); hotter parts must scrub harder, colder parts "
              "earn slack.\n");
}

// Extension: write cancellation [18] vs write pausing. The paper's
// baseline cancels in-flight writes when a read arrives (restart from
// scratch); pausing resumes with the remaining P&V iterations, recovering
// the wasted work. Matters most for write-heavy workloads under the slow
// 1000 ns MLC write.
constexpr const char* kPausingNames[] = {"lbm", "mcf", "milc", "omnetpp"};

std::vector<RunSpec> pausing_specs() {
  // Per workload, on Ideal: no preemption, cancel (the paper's), pause.
  std::vector<RunSpec> specs;
  for (const char* name : kPausingNames) {
    const trace::Workload& w = trace::workload_by_name(name);
    const RunSpec base{.kind = readduo::SchemeKind::kIdeal,
                       .workload = w,
                       .seed = 55,
                       .instructions = extension_budget()};
    RunSpec none = base;
    none.write_cancellation = false;
    RunSpec pause = base;
    pause.write_preemption = memsim::WritePreemption::kPause;
    specs.insert(specs.end(), {none, base, pause});
  }
  return specs;
}

void print_ext_pausing(Results results) {
  std::printf("== Extension: read-over-write preemption policies "
              "(Ideal scheme; exec ms / avg read ns)\n\n");
  stats::Table t({"Workload", "no preemption", "cancel (paper)", "pause",
                  "preemptions", "bank-busy saved by pausing"});
  auto cell = [](const memsim::SimResult& r) {
    return stats::fmt("%.2f", static_cast<double>(r.exec_time.v) * 1e-6) +
           " / " + stats::fmt("%.0f", r.avg_read_latency_ns());
  };
  for (std::size_t i = 0; i < results.size(); i += 3) {
    const memsim::SimResult& none = results[i].sim;
    const memsim::SimResult& cancel = results[i + 1].sim;
    const memsim::SimResult& pause = results[i + 2].sim;
    const double busy_saved =
        1.0 - static_cast<double>(pause.bank_busy_ns) /
                  static_cast<double>(cancel.bank_busy_ns);
    t.add_row({kPausingNames[i / 3], cell(none), cell(cancel), cell(pause),
               std::to_string(cancel.write_cancellations),
               stats::fmt("%.1f%%", 100.0 * busy_saved)});
  }
  t.print();
  std::printf("\nReading: preemption (either flavour) buys read latency by "
              "keeping reads ahead of 1000 ns writes; pausing additionally "
              "recovers the cancelled writes' completed iterations, "
              "trimming bank occupancy at identical read latency.\n");
}

/// One artefact: the runs it needs and how it prints them.
struct Figure {
  std::vector<RunSpec> (*specs)();
  void (*print)(Results);
};

/// In print order.
constexpr Figure kFigures[] = {
    {no_specs, print_tables_1_2},
    {no_specs, print_table3},
    {no_specs, print_table4},
    {no_specs, print_table5},
    {no_specs, print_table7},
    {no_specs, print_fig6},
    {fig3_specs, print_fig3},
    {fig4_specs, print_fig4},
    {grid_specs, print_grid},
    {fig12_specs, print_fig12},
    {fig13_specs, print_fig13},
    {fig14_specs, print_fig14},
    {ablation_w1_specs, print_ablation_w1},
    {ablation_t_specs, print_ablation_t},
    {no_specs, print_ext_wear},
    {rowbuffer_specs, print_ext_rowbuffer},
    {no_specs, print_ext_temperature},
    {pausing_specs, print_ext_pausing},
};

}  // namespace

int main() {
  bench::set_bench_name("paper");
  // A run the active device cannot serve (an infeasible scrub, say) throws
  // out of the pool; report it and exit 1 instead of aborting.
  try {
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper: %s\n", e.what());
    return 1;
  }
  return 0;
}
