#include "harness.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>

#include <unistd.h>

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

bool cache_enabled() {
  const char* e = env_cstr("READDUO_CACHE");
  if (e != nullptr && std::string(e) == "0") return false;
  // A fault plan that perturbs the simulation poisons memoization both
  // ways: perturbed results must not be stored as clean, and stale clean
  // entries must not stand in for perturbed runs. Disable the cache for
  // the whole process. Harness-only classes (cache/trace) keep it on —
  // the cache-corruption injector specifically needs a live cache.
  const faults::FaultEngine* fe = faults::engine();
  return fe == nullptr || !fe->plan().affects_simulation();
}

/// READDUO_METRICS destination: nullptr = disabled, "1" = stdout,
/// anything else = file (or directory) path.
const char* metrics_dest() {
  const char* e = env_cstr("READDUO_METRICS");
  if (e == nullptr || *e == '\0' || std::string_view(e) == "0") {
    return nullptr;
  }
  return e;
}

std::string cache_key(readduo::SchemeKind kind, const trace::Workload& w,
                      const readduo::ReadDuoOptions& opts,
                      std::uint64_t budget, std::uint64_t seed) {
  const config::DeviceConfig& dev = config::active_device();
  std::ostringstream os;
  // Full round-trip precision: the default 6 significant digits would
  // collide configs that differ only in a fine-grained float knob.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << scheme_name(kind, opts) << "_" << w.name << "_b" << budget << "_s"
     << seed << "_k" << opts.k << "_sw" << opts.select_s << "_c"
     << (opts.conversion ? 1 : 0) << "_f" << opts.changed_cell_fraction
     << "_t" << opts.controller.initial_t << "_wr" << w.rpki << "-"
     << w.wpki << "-" << w.footprint_lines << "-"
     << w.archive_read_fraction << "-" << w.archive_lines << "-"
     << (w.archive_scan ? 1 : 0)
     // Device zoo: runs under different device configs, or a .cfg edited
     // to a new scrub point, never share cache entries. The builtin device
     // and its twin (configs/pcm_readduo_t1.cfg) share a name and scrub
     // point on purpose: they are bit-identical by default-equivalence.
     << "_dev" << dev.name << "_S" << dev.scrub.interval_s << "_W"
     << dev.scrub.w;
  std::string key = os.str();
  for (char& c : key) {
    if (c == ':' || c == '/' || c == ' ') c = '-';
  }
  return key;
}

std::filesystem::path cache_path(const std::string& key) {
  return std::filesystem::path("bench_cache") / (key + ".txt");
}

void store_cached(const std::string& key, const RunResult& r) {
  std::filesystem::create_directories("bench_cache");
  // Write-to-tmp + atomic rename: concurrent writers (pool threads of one
  // batch, or separate bench processes sharing bench_cache/) either leave
  // the old entry or publish a complete new one — never a torn file. The
  // tmp name is unique per (process, write) so writers cannot clobber each
  // other mid-write; duplicate writers of one key store identical bytes
  // anyway (runs are deterministic), so last-rename-wins is benign.
  static std::atomic<std::uint64_t> write_id{0};
  const std::filesystem::path final_path = cache_path(key);
  std::filesystem::path tmp_path = final_path;
  tmp_path += ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(write_id.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp_path);
  detail::write_cache_entry(out, r);
  out.close();
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) std::filesystem::remove(tmp_path, ec);
}

// ------------------------------------------------- metrics registry ---

/// One executed (or cache-served) run, retained for the metrics export.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  bool cached = false;
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
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  /// Entries that carried a current schema tag but failed to parse —
  /// damaged on disk (or by the cache-corruption injector). Each one is
  /// recomputed, never trusted or fatal.
  std::atomic<std::uint64_t> cache_corrupt{0};
  std::atomic<std::uint64_t> wall_us{0};      ///< summed across runs
  std::atomic<std::uint64_t> max_run_us{0};
};

Harness& harness() {
  static Harness h;
  return h;
}

bool load_cached(const std::string& key, RunResult& out) {
  std::ifstream in(cache_path(key));
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  if (const faults::FaultEngine* fe = faults::engine()) {
    fe->corrupt_cache_entry(key, bytes);
  }
  std::istringstream entry(bytes);
  if (detail::parse_cache_entry(entry, out)) return true;
  // A stale or foreign schema tag is an ordinary miss (old entries age
  // out silently). Damage *behind* a current tag is a corrupt entry:
  // report it, count it, and fall through to recompute.
  std::istringstream tagged(bytes);
  std::string tag;
  if ((tagged >> tag) &&
      tag == "v" + std::to_string(detail::kCacheSchemaVersion)) {
    harness().cache_corrupt.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "readduo: warning: corrupt bench_cache entry '%s' — "
                 "recomputing\n",
                 key.c_str());
  }
  return false;
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
  const std::uint64_t hits = h.cache_hits.load(std::memory_order_relaxed);
  const std::uint64_t misses = h.cache_misses.load(std::memory_order_relaxed);
  std::printf("== harness: runs=%llu cache_hits=%llu cache_misses=%llu "
              "threads=%u sim_wall_ms=%llu max_run_ms=%llu\n",
              static_cast<unsigned long long>(hits + misses),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
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
  std::call_once(once, [] { std::atexit(emit_metrics); });
}

RunResult run_fresh(readduo::SchemeKind kind, const trace::Workload& w,
                    const readduo::ReadDuoOptions& opts, std::uint64_t seed,
                    std::uint64_t budget) {
  RunResult result;
  memsim::SimConfig cfg;
  config::apply_device(config::active_device(), cfg);
  cfg.instructions_per_core = budget;
  cfg.seed = seed;
  cfg.trace_events = stats::trace_ring_capacity_from_env();
  readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, seed);
  auto scheme = readduo::make_scheme(kind, env, opts);
  memsim::Simulator sim(cfg, *scheme, w);
  result.sim = sim.run();
  result.counters = scheme->counters();
  result.summary.scheme = scheme->name();
  result.summary.exec_time = result.sim.exec_time;
  result.summary.dynamic_energy_pj = result.counters.dynamic_energy_pj();
  result.summary.static_watts = env.energy.static_watts;
  result.summary.cells_per_line = readduo::cells_per_line(kind, opts);
  result.summary.cell_writes =
      static_cast<double>(result.counters.cell_writes);
  return result;
}

/// The single run path behind both public entry points. Fills `rec` (when
/// the metrics export is on) but does NOT register it — the caller owns
/// registration order, so batch exports list runs in spec order no matter
/// how the pool interleaved them.
RunResult run_one(readduo::SchemeKind kind, const trace::Workload& w,
                  const readduo::ReadDuoOptions& opts, std::uint64_t seed,
                  RunRecord* rec) {
  ensure_exit_hook();
  const std::uint64_t budget = instruction_budget();
  const std::string key = cache_key(kind, w, opts, budget, seed);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult result;
  bool cached = true;
  if (!(cache_enabled() && load_cached(key, result))) {
    cached = false;
    result = run_fresh(kind, w, opts, seed, budget);
    if (cache_enabled()) store_cached(key, result);
  }
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  Harness& h = harness();
  (cached ? h.cache_hits : h.cache_misses)
      .fetch_add(1, std::memory_order_relaxed);
  h.wall_us.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t prev = h.max_run_us.load(std::memory_order_relaxed);
  while (us > prev && !h.max_run_us.compare_exchange_weak(
                          prev, us, std::memory_order_relaxed)) {
  }

  if (rec != nullptr && metrics_dest() != nullptr) {
    rec->workload = w.name;
    rec->seed = seed;
    rec->cached = cached;
    rec->wall_ms = static_cast<double>(us) / 1000.0;
    rec->result = result;
  }
  return result;
}

}  // namespace

namespace detail {

void write_cache_entry(std::ostream& out, const RunResult& r) {
  // Round-trip doubles exactly, so a cache hit reproduces the fresh run.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const auto& c = r.counters;
  const auto& s = r.sim;
  out << "v" << kCacheSchemaVersion << "\n";
  out << r.summary.scheme << " " << r.summary.exec_time.v << " "
      << r.summary.dynamic_energy_pj << " " << r.summary.static_watts << " "
      << r.summary.cells_per_line << " " << r.summary.cell_writes << " "
      << c.r_reads << " " << c.m_reads << " " << c.rm_reads << " "
      << c.untracked_reads << " " << c.converted_reads << " "
      << c.demand_full_writes << " " << c.demand_diff_writes << " "
      << c.conversion_writes << " " << c.scrub_senses << " "
      << c.scrub_rewrites << " " << c.detected_uncorrectable << " "
      << c.silent_corruptions << " " << c.cell_writes << " "
      << c.read_energy_pj << " " << c.write_energy_pj << " "
      << c.scrub_energy_pj << " " << s.reads_serviced << " "
      << s.writes_serviced << " " << s.scrubs_serviced << " "
      << s.write_cancellations << " " << s.read_latency_sum_ns << " "
      << s.bank_busy_ns << " " << s.scrub_backlog_end << " "
      << s.instructions << " " << s.scrub_rewrites_dropped << " "
      << s.row_hits << "\n";
  // Metrics: histograms stored sparsely (only occupied buckets).
  const stats::SimMetrics& m = s.metrics;
  out << "M " << stats::kNumReqClasses << " "
      << stats::LatencyHistogram::kNumBuckets << "\n";
  for (const stats::LatencyHistogram& h : m.latency) {
    std::size_t nnz = 0;
    for (std::uint64_t b : h.buckets()) nnz += b != 0;
    out << h.sum() << " " << h.max() << " " << nnz;
    for (std::size_t i = 0; i < stats::LatencyHistogram::kNumBuckets; ++i) {
      if (h.buckets()[i] != 0) out << " " << i << " " << h.buckets()[i];
    }
    out << "\n";
  }
  out << "B " << m.banks.size() << "\n";
  for (const stats::BankGauge& g : m.banks) {
    out << g.busy_ns << " " << g.depth_samples << " " << g.depth_sum << " "
        << g.depth_max << "\n";
  }
}

bool parse_cache_entry(std::istream& in, RunResult& out) {
  std::string tag;
  if (!(in >> tag) || tag != "v" + std::to_string(kCacheSchemaVersion)) {
    return false;  // unknown / stale schema: treat as a miss
  }
  std::string name;
  std::int64_t exec = 0;
  auto& c = out.counters;
  auto& s = out.sim;
  in >> name >> exec >> out.summary.dynamic_energy_pj >>
      out.summary.static_watts >> out.summary.cells_per_line >>
      out.summary.cell_writes >> c.r_reads >> c.m_reads >> c.rm_reads >>
      c.untracked_reads >> c.converted_reads >> c.demand_full_writes >>
      c.demand_diff_writes >> c.conversion_writes >> c.scrub_senses >>
      c.scrub_rewrites >> c.detected_uncorrectable >> c.silent_corruptions >>
      c.cell_writes >> c.read_energy_pj >> c.write_energy_pj >>
      c.scrub_energy_pj >> s.reads_serviced >> s.writes_serviced >>
      s.scrubs_serviced >> s.write_cancellations >> s.read_latency_sum_ns >>
      s.bank_busy_ns >> s.scrub_backlog_end >> s.instructions >>
      s.scrub_rewrites_dropped >> s.row_hits;
  if (!in) return false;
  // Damaged numeric fields can still parse lexically (a garbled exponent
  // reads as inf, a '?' in the mantissa splits into two tokens that land
  // in the wrong fields). Reject non-finite floats so a corrupt entry is
  // recomputed instead of silently trusted.
  for (double v : {out.summary.dynamic_energy_pj, out.summary.static_watts,
                   out.summary.cell_writes, c.read_energy_pj,
                   c.write_energy_pj, c.scrub_energy_pj}) {
    if (!std::isfinite(v)) return false;
  }

  std::string mtag;
  std::size_t nclasses = 0, nbuckets = 0;
  if (!(in >> mtag >> nclasses >> nbuckets) || mtag != "M" ||
      nclasses != stats::kNumReqClasses ||
      nbuckets != stats::LatencyHistogram::kNumBuckets) {
    return false;
  }
  for (stats::LatencyHistogram& h : s.metrics.latency) {
    std::int64_t sum = 0, max = 0;
    std::size_t nnz = 0;
    if (!(in >> sum >> max >> nnz) || nnz > nbuckets) return false;
    std::array<std::uint64_t, stats::LatencyHistogram::kNumBuckets>
        buckets{};
    for (std::size_t k = 0; k < nnz; ++k) {
      std::size_t idx = 0;
      std::uint64_t count = 0;
      if (!(in >> idx >> count) || idx >= nbuckets) return false;
      buckets[idx] = count;
    }
    h.restore(buckets, sum, max);
  }
  std::string btag;
  std::size_t nbanks = 0;
  if (!(in >> btag >> nbanks) || btag != "B" || nbanks > 4096) return false;
  s.metrics.banks.assign(nbanks, {});
  for (stats::BankGauge& g : s.metrics.banks) {
    if (!(in >> g.busy_ns >> g.depth_samples >> g.depth_sum >>
          g.depth_max)) {
      return false;
    }
  }
  // Schema discipline: a well-formed entry ends exactly here. Leftover
  // tokens mean the writer and reader disagree about the layout.
  std::string extra;
  if (in >> extra) return false;

  out.summary.scheme = name;
  out.summary.exec_time = Ns{exec};
  out.sim.exec_time = Ns{exec};
  return true;
}

std::string render_run_json(const std::string& workload, std::uint64_t seed,
                            bool cached, double wall_ms, const RunResult& r) {
  const stats::SimMetrics& m = r.sim.metrics;
  stats::JsonWriter jw;
  jw.add("scheme", r.summary.scheme)
      .add("workload", workload)
      .add("seed", seed)
      .add("cached", std::uint64_t{cached ? 1u : 0u})
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
      .add("schema_version",
           static_cast<std::uint64_t>(detail::kCacheSchemaVersion))
      .add("threads", std::uint64_t{parallel_thread_count()})
      .add("cache_hits", h.cache_hits.load(std::memory_order_relaxed))
      .add("cache_misses", h.cache_misses.load(std::memory_order_relaxed))
      .add("cache_corrupt", h.cache_corrupt.load(std::memory_order_relaxed))
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
    runs += render_run_json(rec.workload, rec.seed, rec.cached, rec.wall_ms,
                            rec.result);
    if (i + 1 < h.runs.size()) runs += ',';
    runs += '\n';
  }
  runs += "]";
  doc.add_raw("runs", runs);
  return doc.str();
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
  RunResult result = run_one(kind, w, opts, seed, &rec);
  if (metrics_dest() != nullptr) {
    Harness& h = harness();
    MutexLock g(h.mu);
    h.runs.push_back(std::move(rec));
  }
  return result;
}

std::vector<RunResult> run_schemes(const std::vector<RunSpec>& specs) {
  std::vector<RunResult> results(specs.size());
  std::vector<RunRecord> recs(specs.size());
  parallel_for_shards(specs.size(), [&](std::size_t i) {
    const RunSpec& s = specs[i];
    results[i] = run_one(s.kind, s.workload, s.opts, s.seed, &recs[i]);
  });
  // Register in spec order so the export is deterministic regardless of
  // how the pool interleaved the runs.
  if (metrics_dest() != nullptr) {
    Harness& h = harness();
    MutexLock g(h.mu);
    for (RunRecord& rec : recs) h.runs.push_back(std::move(rec));
  }
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
