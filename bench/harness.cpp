#include "harness.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/env.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "config/apply.h"
#include "config/loader.h"
#include "faults/injector.h"
#include "memsim/env.h"
#include "stats/json.h"

namespace rd::bench {

std::uint64_t instruction_budget() {
  if (const char* e = env_cstr("READDUO_INSTR")) {
    const std::uint64_t v = parse_env_u64("READDUO_INSTR", e);
    RD_CHECK_MSG(v > 0, "READDUO_INSTR must be a positive instruction "
                        "count, got '" << e << "'");
    return v;
  }
  return 6'000'000;
}

namespace {

/// READDUO_METRICS destination: nullptr = disabled, "1" = stdout,
/// anything else = file (or directory) path.
const char* metrics_dest() {
  const char* e = env_cstr("READDUO_METRICS");
  if (e == nullptr || *e == '\0' || std::string_view(e) == "0") {
    return nullptr;
  }
  return e;
}

// ------------------------------------------------- metrics registry ---

/// Version of the READDUO_METRICS document layout. Bump whenever a field
/// is added, removed or renamed.
constexpr std::uint64_t kMetricsSchemaVersion = 4;

/// One executed run, retained for the metrics export.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  double wall_ms = 0.0;
  RunResult result;
};

/// Process-wide harness self-metrics + per-run records. The run registry
/// and export path are mu's to guard; the counters are relaxed atomics
/// (monotonic tallies, no ordering needed).
struct Harness {
  Mutex mu;
  /// Populated only when metrics_dest().
  std::vector<RunRecord> runs RD_GUARDED_BY(mu);
  std::string bench_name RD_GUARDED_BY(mu) = "bench";
  std::atomic<std::uint64_t> run_count{0};
  std::atomic<std::uint64_t> wall_us{0};      ///< summed across runs
  std::atomic<std::uint64_t> max_run_us{0};
};

Harness& harness() {
  static Harness h;
  return h;
}

/// Strip the trailing newline JsonWriter::str() emits, so nested raw
/// values compose without blank lines before commas.
std::string chomp(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::string hist_json(const stats::LatencyHistogram& h) {
  stats::JsonWriter jw;
  jw.add("count", h.count())
      .add("mean_ns", h.mean())
      .add("p50_ns", h.p50())
      .add("p95_ns", h.p95())
      .add("p99_ns", h.p99())
      .add("max_ns", h.max());
  return chomp(jw.str());
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& xs, Fn&& render) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ", ";
    os << render(xs[i]);
  }
  os << "]";
  return os.str();
}

/// atexit hook: print the harness self-metrics line (always) and write the
/// JSON metrics export (when READDUO_METRICS is set).
void emit_metrics() {
  Harness& h = harness();
  std::printf("== harness: runs=%llu threads=%u sim_wall_ms=%llu "
              "max_run_ms=%llu\n",
              static_cast<unsigned long long>(
                  h.run_count.load(std::memory_order_relaxed)),
              parallel_thread_count(),
              static_cast<unsigned long long>(
                  h.wall_us.load(std::memory_order_relaxed) / 1000),
              static_cast<unsigned long long>(
                  h.max_run_us.load(std::memory_order_relaxed) / 1000));

  const char* dest = metrics_dest();
  if (dest == nullptr) return;

  const std::string body = detail::render_metrics_json();

  MutexLock g(h.mu);
  if (std::string_view(dest) == "1") {
    std::fputs(body.c_str(), stdout);
    return;
  }
  std::filesystem::path path(dest);
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    path /= h.bench_name + "_metrics.json";
  }
  std::ofstream out(path);
  out << body;
}

void ensure_exit_hook() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Statics are destroyed in reverse order of construction, interleaved
    // with atexit hooks. Build every static emit_metrics reads before
    // registering it, so none is destroyed before the hook runs.
    harness();
    faults::engine();
    config::active_device();
    std::atexit(emit_metrics);
  });
}

RunResult run_fresh(const RunSpec& s) {
  RunResult result;
  memsim::SimConfig cfg;
  config::apply_device(config::active_device(), cfg);
  cfg.instructions_per_core =
      s.instructions > 0 ? s.instructions : instruction_budget();
  cfg.seed = s.seed;
  cfg.row_buffer.enabled = s.open_page;
  // An open-page policy pairs with row-interleaved address mapping so
  // sequential lines land in the same latched row.
  if (s.open_page) cfg.address_map = memsim::AddressMap::kRowInterleave;
  cfg.write_preemption = s.write_preemption;
  cfg.write_cancellation = s.write_cancellation;
  cfg.trace_events = stats::trace_ring_capacity_from_env();
  readduo::SchemeEnv env =
      memsim::make_scheme_env(s.workload, cfg.cpu, s.seed);
  auto scheme = readduo::make_scheme(s.kind, env, s.opts);
  memsim::Simulator sim(cfg, *scheme, s.workload);
  result.sim = sim.run();
  result.counters = scheme->counters();
  result.summary.scheme = scheme->name();
  result.summary.exec_time = result.sim.exec_time;
  result.summary.dynamic_energy_pj = result.counters.dynamic_energy_pj();
  result.summary.static_watts = env.energy.static_watts;
  result.summary.cells_per_line = readduo::cells_per_line(s.kind, s.opts);
  result.summary.cell_writes =
      static_cast<double>(result.counters.cell_writes);
  return result;
}

/// The single run path behind both public entry points. Fills `rec` (when
/// the metrics export is on) but does NOT register it — the caller owns
/// registration order, so batch exports list runs in spec order no matter
/// how the pool interleaved them.
RunResult run_one(const RunSpec& s, RunRecord* rec) {
  ensure_exit_hook();
  const auto t0 = std::chrono::steady_clock::now();
  RunResult result = run_fresh(s);
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  Harness& h = harness();
  h.run_count.fetch_add(1, std::memory_order_relaxed);
  h.wall_us.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t prev = h.max_run_us.load(std::memory_order_relaxed);
  while (us > prev && !h.max_run_us.compare_exchange_weak(
                          prev, us, std::memory_order_relaxed)) {
  }

  if (rec != nullptr && metrics_dest() != nullptr) {
    rec->workload = s.workload.name;
    rec->seed = s.seed;
    rec->wall_ms = static_cast<double>(us) / 1000.0;
    rec->result = result;
  }
  return result;
}

}  // namespace

namespace detail {

std::string render_run_json(const std::string& workload, std::uint64_t seed,
                            double wall_ms, const RunResult& r) {
  const stats::SimMetrics& m = r.sim.metrics;
  stats::JsonWriter jw;
  jw.add("scheme", r.summary.scheme)
      .add("workload", workload)
      .add("seed", seed)
      .add("wall_ms", wall_ms)
      .add("exec_time_ns", static_cast<std::uint64_t>(r.sim.exec_time.v))
      .add("instructions", r.sim.instructions)
      .add("reads", r.sim.reads_serviced)
      .add("writes", r.sim.writes_serviced)
      .add("avg_read_latency_ns", r.sim.avg_read_latency_ns())
      .add("detected_uncorrectable", r.counters.detected_uncorrectable)
      .add("silent_corruptions", r.counters.silent_corruptions)
      .add("injected_faults", r.counters.injected_faults);
  const stats::LatencyHistogram all_reads = m.demand_reads();
  jw.add("read_p50_ns", all_reads.p50())
      .add("read_p95_ns", all_reads.p95())
      .add("read_p99_ns", all_reads.p99())
      .add("read_max_ns", all_reads.max());
  stats::JsonWriter classes;
  for (std::size_t c = 0; c < stats::kNumReqClasses; ++c) {
    classes.add_raw(stats::req_class_name(static_cast<stats::ReqClass>(c)),
                    hist_json(m.latency[c]));
  }
  jw.add_raw("latency", chomp(classes.str()));
  const double exec =
      r.sim.exec_time.v > 0 ? static_cast<double>(r.sim.exec_time.v) : 1.0;
  jw.add_raw("bank_utilization",
             json_array(m.banks, [&](const stats::BankGauge& g) {
               std::ostringstream os;
               os << static_cast<double>(g.busy_ns) / exec;
               return os.str();
             }));
  jw.add_raw("bank_avg_queue_depth",
             json_array(m.banks, [](const stats::BankGauge& g) {
               std::ostringstream os;
               os << g.avg_depth();
               return os.str();
             }));
  jw.add_raw("bank_max_queue_depth",
             json_array(m.banks, [](const stats::BankGauge& g) {
               return std::to_string(g.depth_max);
             }));
  return chomp(jw.str());
}

std::string render_metrics_json() {
  Harness& h = harness();
  MutexLock g(h.mu);
  stats::JsonWriter doc;
  doc.add("bench", h.bench_name)
      .add("device", config::active_device().name)
      .add("schema_version", kMetricsSchemaVersion)
      .add("threads", std::uint64_t{parallel_thread_count()})
      .add("sim_wall_ms",
           static_cast<std::uint64_t>(
               h.wall_us.load(std::memory_order_relaxed) / 1000))
      .add("max_run_ms",
           static_cast<std::uint64_t>(
               h.max_run_us.load(std::memory_order_relaxed) / 1000));
  // Fault-injection provenance: a metrics document produced under
  // READDUO_FAULTS says so, carrying the canonical plan and the per-class
  // injection counts. Absent entirely when faults are off, so clean
  // documents are byte-compatible with the pre-fault schema.
  if (const faults::FaultEngine* fe = faults::engine()) {
    stats::JsonWriter counts;
    for (unsigned c = 0; c < faults::kNumFaultClasses; ++c) {
      counts.add(faults::fault_class_name(static_cast<faults::FaultClass>(c)),
                 fe->count(static_cast<faults::FaultClass>(c)));
    }
    stats::JsonWriter fj;
    fj.add("plan", fe->plan().canonical());
    fj.add_raw("injected", chomp(counts.str()));
    doc.add_raw("faults", chomp(fj.str()));
  }
  std::string runs = "[\n";
  for (std::size_t i = 0; i < h.runs.size(); ++i) {
    const RunRecord& rec = h.runs[i];
    runs += render_run_json(rec.workload, rec.seed, rec.wall_ms, rec.result);
    if (i + 1 < h.runs.size()) runs += ',';
    runs += '\n';
  }
  runs += "]";
  doc.add_raw("runs", runs);
  return doc.str();
}

std::uint64_t run_count() {
  return harness().run_count.load(std::memory_order_relaxed);
}

}  // namespace detail

void set_bench_name(const std::string& name) {
  Harness& h = harness();
  MutexLock g(h.mu);
  h.bench_name = name;
}

RunResult run_scheme(readduo::SchemeKind kind, const trace::Workload& w,
                     const readduo::ReadDuoOptions& opts,
                     std::uint64_t seed) {
  RunRecord rec;
  RunResult result = run_one({kind, w, opts, seed}, &rec);
  if (metrics_dest() != nullptr) {
    Harness& h = harness();
    MutexLock g(h.mu);
    h.runs.push_back(std::move(rec));
  }
  return result;
}

std::vector<RunResult> run_schemes(const std::vector<RunSpec>& specs) {
  // Each spec maps to the first equal one. The key is the whole spec, so
  // a field added to any of its structs joins it; a linear scan suffices
  // for the few hundred specs of a bench.
  std::vector<std::size_t> distinct;        // spec index of each distinct run
  std::vector<std::size_t> run_of(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::size_t d = 0;
    while (d < distinct.size() && !(specs[distinct[d]] == specs[i])) ++d;
    if (d == distinct.size()) distinct.push_back(i);
    run_of[i] = d;
  }
  std::vector<RunResult> runs(distinct.size());
  std::vector<RunRecord> recs(distinct.size());
  parallel_for_shards(distinct.size(), [&](std::size_t d) {
    runs[d] = run_one(specs[distinct[d]], &recs[d]);
  });
  // Register in order of first occurrence so the export is deterministic
  // regardless of how the pool interleaved the runs.
  if (metrics_dest() != nullptr) {
    Harness& h = harness();
    MutexLock g(h.mu);
    for (RunRecord& rec : recs) h.runs.push_back(std::move(rec));
  }
  std::vector<RunResult> results;
  results.reserve(specs.size());
  for (std::size_t d : run_of) results.push_back(runs[d]);
  return results;
}

const std::vector<readduo::SchemeKind>& paper_schemes() {
  static const std::vector<readduo::SchemeKind> kSchemes = {
      readduo::SchemeKind::kIdeal,   readduo::SchemeKind::kScrubbing,
      readduo::SchemeKind::kMMetric, readduo::SchemeKind::kHybrid,
      readduo::SchemeKind::kLwt,     readduo::SchemeKind::kSelect,
  };
  return kSchemes;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace rd::bench
