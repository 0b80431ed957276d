// sweep: the paper's Figure 9 batch — paper_schemes() x the 14 SPEC2006
// workloads — over the common pool at nproc threads, no on-disk cache.
// An op is one simulation: scheme construction, Simulator construction
// and run(). Work is simulated instructions.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "config/apply.h"
#include "config/loader.h"
#include "pb/report.h"
#include "harness.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "stats/histogram.h"
#include "trace/workload.h"

namespace pb {
namespace {

namespace bench = rd::bench;
namespace config = rd::config;
namespace memsim = rd::memsim;
namespace readduo = rd::readduo;
namespace stats = rd::stats;
namespace trace = rd::trace;
using readduo::SchemeKind;
using rd::parallel_for_shards;
using rd::parallel_thread_count;

/// The paper's per-core instruction budget (Figure 9).
constexpr std::uint64_t kInstrPerCore = 6'000'000;
/// Batches every run makes; the tail is taken over windows of this many
/// batches (252 ops: p95, 12 beyond).
constexpr std::size_t kMinBatches = 3;
/// Budget of the set-up warm-up run of each scheme: enough to touch the
/// lazily built error tables, small next to the samplers.
constexpr std::uint64_t kWarmupInstrPerCore = 20'000;

struct KindSpan {
  SchemeKind kind;
  const char* span;  ///< set-up span; the metric is readduo.make_scheme_ms.*
};

// Metric names allow no ':' (scheme_name gives "Select-4:2"), so each
// kind carries its own label.
constexpr KindSpan kKinds[] = {
    {SchemeKind::kIdeal, "readduo.make_scheme.Ideal"},
    {SchemeKind::kScrubbing, "readduo.make_scheme.Scrubbing"},
    {SchemeKind::kMMetric, "readduo.make_scheme.M-metric"},
    {SchemeKind::kHybrid, "readduo.make_scheme.Hybrid"},
    {SchemeKind::kLwt, "readduo.make_scheme.LWT"},
    {SchemeKind::kSelect, "readduo.make_scheme.Select"},
};

memsim::SimConfig sim_config(std::uint64_t seed, std::uint64_t budget) {
  memsim::SimConfig cfg;
  config::apply_device(config::active_device(), cfg);
  cfg.instructions_per_core = budget;
  cfg.seed = seed;
  return cfg;
}

struct OpOut {
  memsim::SimResult sim;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t run_ns = 0;
};

OpOut simulate(SchemeKind kind, const trace::Workload& w, std::uint64_t seed,
               Tracer& tr) {
  OpOut out;
  out.begin = now_ns();
  Tracer::Span s_op(tr, "sweep.op");
  const memsim::SimConfig cfg = sim_config(seed, kInstrPerCore);
  const readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, seed);
  std::unique_ptr<readduo::Scheme> scheme;
  {
    Tracer::Span s(tr, "readduo.make_scheme");
    scheme = readduo::make_scheme(kind, env);
  }
  std::unique_ptr<memsim::Simulator> sim;
  {
    Tracer::Span s(tr, "memsim.ctor");
    sim = std::make_unique<memsim::Simulator>(cfg, *scheme, w);
  }
  const std::int64_t r0 = now_ns();
  {
    Tracer::Span s(tr, "memsim.run");
    out.sim = sim->run();
  }
  out.end = now_ns();
  out.run_ns = out.end - r0;
  return out;
}

void fingerprint_sim(Fingerprint& fp, const memsim::SimResult& s) {
  fp.add_i(s.exec_time.v);
  fp.add(s.instructions);
  fp.add(s.reads_serviced);
  fp.add(s.writes_serviced);
  fp.add(s.scrubs_serviced);
  fp.add(s.write_cancellations);
  fp.add_i(s.read_latency_sum_ns);
  fp.add(s.scrub_rewrites_dropped);
  for (const stats::LatencyHistogram& h : s.metrics.latency) {
    for (const std::uint64_t b : h.buckets()) fp.add(b);
  }
}

}  // namespace

void run_sweep(const Options& o, Tracer& tr, std::int64_t start_ns,
               Report& r) {
  // The pool counts the calling (generator) thread, so nproc in all.
  const std::string threads_env = std::to_string(o.nproc);
  ::setenv("READDUO_THREADS", threads_env.c_str(), 1);
  const unsigned threads = parallel_thread_count();
  require_budget(threads, o.nproc, "sweep: pool threads");
  r.threads = threads;

  // Set-up: one scheme of each kind, serially, each run once briefly, so
  // the samplers and error tables the timed batch uses already exist.
  const trace::Workload& w0 = trace::spec2006_workloads().front();
  for (const KindSpan& k : kKinds) {
    const memsim::SimConfig cfg = sim_config(o.seed, kWarmupInstrPerCore);
    const readduo::SchemeEnv env =
        memsim::make_scheme_env(w0, cfg.cpu, o.seed);
    std::unique_ptr<readduo::Scheme> scheme;
    {
      Tracer::Span s(tr, k.span);
      scheme = readduo::make_scheme(k.kind, env);
    }
    memsim::Simulator(cfg, *scheme, w0).run();
  }

  struct Spec {
    SchemeKind kind;
    const trace::Workload* w;
  };
  std::vector<Spec> specs;
  for (const trace::Workload& w : trace::spec2006_workloads()) {
    for (const SchemeKind kind : bench::paper_schemes()) {
      specs.push_back({kind, &w});
    }
  }
  r.setup_s = since_s(start_ns);
  if (o.setup_only) return;

  const std::uint64_t want_instr =
      sim_config(o.seed, kInstrPerCore).cpu.num_cores * kInstrPerCore;
  Samples smp;
  std::vector<double> busy_share, wait_s;
  std::int64_t run_ns_traced = 0;
  std::uint64_t requests_traced = 0;
  std::uint64_t traced_batches = 0;
  std::vector<OpOut> outs(specs.size());
  const std::int64_t t0 = now_ns();
  // Every batch is the same 84 simulations (one epoch).
  for (std::uint64_t b = 0; b < kMinBatches || since_s(t0) < o.seconds; ++b) {
    const bool traced = o.trace && b % 2 == 0;
    tr.set_on(traced);
    const std::int64_t bt0 = now_ns();
    parallel_for_shards(specs.size(), [&](std::size_t i) {
      outs[i] = simulate(specs[i].kind, *specs[i].w, o.seed, tr);
    });
    const double wall = since_s(bt0);
    double busy = 0;
    double work = 0;
    Fingerprint fp;
    for (const OpOut& out : outs) {
      const double us = static_cast<double>(out.end - out.begin) / 1e3;
      smp.op_us.push_back(us);
      busy += us / 1e6;
      ++r.attempted;
      if (out.sim.instructions != want_instr) ++r.failed;
      work += static_cast<double>(out.sim.instructions);
      fingerprint_sim(fp, out.sim);
      if (traced) {
        run_ns_traced += out.run_ns;
        requests_traced += out.sim.reads_serviced + out.sim.writes_serviced +
                           out.sim.scrubs_serviced;
      }
    }
    smp.end_epoch(work, wall, traced);
    busy_share.push_back(busy / (threads * wall));
    wait_s.push_back(threads * wall - busy);
    traced_batches += traced ? 1 : 0;
    if (b > 0) {
      if (fp.hex() != r.fingerprint) {
        r.fail_check("batch " + std::to_string(b) +
                     " virtual results differ from batch 0");
      }
      continue;
    }
    r.fingerprint = fp.hex();
    if (!o.trace) continue;
    // The modelled design, from batch 0.
    stats::LatencyHistogram reads, writes;
    std::uint64_t scrubs = 0, cancels = 0, rm = 0;
    for (const OpOut& out : outs) {
      const stats::SimMetrics& m = out.sim.metrics;
      reads.merge(m.demand_reads());
      writes.merge(m.lat(stats::ReqClass::kDemandWrite));
      rm += m.lat(stats::ReqClass::kRMRead).count();
      scrubs += out.sim.scrubs_serviced;
      cancels += out.sim.write_cancellations;
    }
    r.add("memsim.vread_p99_ns", reads.p99(), "ns");
    r.add("memsim.vwrite_p99_ns", writes.p99(), "ns");
    r.add("memsim.scrubs", static_cast<double>(scrubs), "count");
    r.add("memsim.write_cancellations", static_cast<double>(cancels),
          "count");
    r.add("readduo.rm_read_share",
          reads.count() ? static_cast<double>(rm) /
                              static_cast<double>(reads.count())
                        : 0.0,
          "share");
  }
  tr.set_on(o.trace);
  add_end_to_end(r, smp, kMinBatches * specs.size(), o.trace);
  if (!o.trace) return;

  for (const KindSpan& k : kKinds) {
    const std::string span = k.span;
    r.add("readduo.make_scheme_ms." + span.substr(span.rfind('.') + 1),
          static_cast<double>(tr.total(span).total_ns) / 1e6, "ms");
  }
  r.add("memsim.run_s",
        static_cast<double>(run_ns_traced) / 1e9 /
            static_cast<double>(std::max<std::uint64_t>(1, traced_batches)),
        "s");
  r.add("memsim.host_ns_per_request",
        requests_traced ? static_cast<double>(run_ns_traced) /
                              static_cast<double>(requests_traced)
                        : 0.0,
        "ns");
  r.add("common.pool_busy_share", median(busy_share), "share");
  r.add("common.pool_wait_s", median(wait_s), "s");
}

}  // namespace pb
