// Shared harness for the bench binaries.
//
// bench_paper regenerates every table and figure of the paper and the
// extensions; its full-system runs, the row-buffer and write-preemption
// extensions' included, go through one run_schemes() batch. Every run is
// computed fresh under the active device, so an edited .cfg always
// reaches the output. READDUO_INSTR=<n> changes the per-core instruction
// budget (default 6,000,000).
//
// Independent (scheme x workload) simulations are embarrassingly parallel
// — every Simulator owns its whole state — so run_schemes() simulates each
// distinct spec once and fans the batch out over the READDUO_THREADS pool
// (see common/parallel.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "stats/counters.h"
#include "stats/edap.h"
#include "trace/workload.h"

namespace rd::bench {

/// Everything a figure needs from one (workload, scheme) run.
struct RunResult {
  stats::RunSummary summary;
  stats::Counters counters;
  memsim::SimResult sim;
};

/// Per-core instruction budget: READDUO_INSTR or the 6M default. A set but
/// malformed READDUO_INSTR (e.g. "6e6") throws instead of silently running
/// the default budget.
std::uint64_t instruction_budget();

/// Name the running bench binary ("paper", "table3", ...). Used to label
/// the READDUO_METRICS export; optional (default "bench").
void set_bench_name(const std::string& name);

namespace detail {

/// Render one run record exactly as it appears in the READDUO_METRICS
/// "runs" array. Exposed for the golden tests, which render in-process
/// and compare field-by-field against a committed file.
std::string render_run_json(const std::string& workload, std::uint64_t seed,
                            double wall_ms, const RunResult& r);

/// Render the full READDUO_METRICS document from the harness state
/// accumulated so far (runs recorded only while READDUO_METRICS is set).
/// Exposed for the golden tests.
std::string render_metrics_json();

/// Simulations run so far in this process (the `runs=` of the harness
/// line). Exposed for the tests.
std::uint64_t run_count();

}  // namespace detail

/// One (scheme, workload) run request for the batch API. The defaults
/// are the paper's closed-page, cancel-on-read system; the row-buffer and
/// write-preemption extensions set the policy fields.
struct RunSpec {
  readduo::SchemeKind kind;
  trace::Workload workload;
  readduo::ReadDuoOptions opts = {};
  std::uint64_t seed = 42;
  /// The open-page system (memsim::SimConfig::open_page).
  bool open_page = false;
  memsim::WritePreemption write_preemption = memsim::WritePreemption::kCancel;
  /// Per-core instruction budget; 0 = instruction_budget().
  std::uint64_t instructions = 0;

  bool operator==(const RunSpec&) const = default;
};

/// Execute every distinct spec once — concurrently over the
/// READDUO_THREADS pool, since each simulation is independent — and
/// return one result per spec, in spec order (equal specs share a run).
/// Results are identical to running each spec alone, serially.
std::vector<RunResult> run_schemes(const std::vector<RunSpec>& specs);

/// The paper's six evaluated schemes, in Figure 9 order.
const std::vector<readduo::SchemeKind>& paper_schemes();

/// Geometric mean of a vector of ratios (the "average" of Figures 9-15;
/// robust to the ratio scale).
double geomean(const std::vector<double>& xs);

}  // namespace rd::bench
