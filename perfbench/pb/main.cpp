// perfbench — one benchmark process: set up one workload, time it for a
// number of seconds, check its outputs, and print one JSON line.
//
//   perfbench --workload <sweep|service|wire|chip> --seed <n>
//             --seconds <s> --trace <0|1> [--setup-only]
//             [--socket <path>]
//
// perfbench/run.py builds this binary, repeats the set-up, and turns the
// output into the benchmark's result line; see perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/check.h"
#include "common/kernels.h"
#include "config/loader.h"
#include "pb/report.h"

namespace pb {

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void require_budget(unsigned threads, unsigned nproc, const char* what) {
  if (threads <= nproc) return;
  std::fprintf(stderr,
               "perfbench: %s need %u threads but nproc is %u; refusing to "
               "measure an oversubscribed host\n",
               what, threads, nproc);
  std::exit(3);
}

void add_end_to_end(Report& r, const Samples& s, std::size_t window,
                    bool trace) {
  std::vector<double> tails;
  std::optional<Tail> t;
  for (std::size_t i = 0; i + window <= s.op_us.size(); i += window) {
    t = tail(std::vector<double>(s.op_us.begin() + i,
                                 s.op_us.begin() + i + window));
    RD_CHECK_MSG(t.has_value(), "window too small for a tail: " << window);
    tails.push_back(t->value);
  }
  RD_CHECK_MSG(!tails.empty(), "fewer ops than one window");
  const Quartiles q = quartiles(s.op_us);
  std::printf(
      "[perfbench] epochs=%zu ops=%zu op_us q1=%.1f median=%.1f q3=%.1f | "
      "op_tail_us = median over %zu windows of p%g (%zu samples, %zu "
      "beyond, each)\n",
      s.epoch_rate.size(), s.op_us.size(), q.q1, q.q2, q.q3, tails.size(),
      t->percentile, t->samples, t->beyond);
  r.add("setup_s", r.setup_s, "s");
  r.add("work_per_s", median(s.epoch_rate), "1/s");
  r.add("op_p50_us", median(s.op_us), "us");
  r.add("op_tail_us", median(tails), "us");
  r.add("peak_rss_mb", s.first_epoch_rss_mb, "MB");
  if (!trace) return;
  const double on = s.rate_traced.empty() ? 0.0 : median(s.rate_traced);
  const double off = s.rate_untraced.empty() ? 0.0 : median(s.rate_untraced);
  r.add("trace.work_per_s_traced", on, "1/s");
  r.add("trace.work_per_s_untraced", off, "1/s");
  // Untraced over traced throughput, minus one: 0.02 = traced epochs ran
  // 2 % slower.
  r.add("trace.overhead_share", on > 0 && off > 0 ? off / on - 1.0 : 0.0,
        "share");
}

namespace {

/// Every per-layer metric a traced run prints.
const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> kUnits = {
      {"readduo.make_scheme_ms.Ideal", "ms"},
      {"readduo.make_scheme_ms.Scrubbing", "ms"},
      {"readduo.make_scheme_ms.M-metric", "ms"},
      {"readduo.make_scheme_ms.Hybrid", "ms"},
      {"readduo.make_scheme_ms.LWT", "ms"},
      {"readduo.make_scheme_ms.Select", "ms"},
      {"memsim.run_s", "s"},
      {"memsim.host_ns_per_request", "ns"},
      {"common.pool_busy_share", "share"},
      {"common.pool_wait_s", "s"},
      {"service.ctor_ms", "ms"},
      {"service.submit_ns", "ns"},
      {"service.drain_wait_ms", "ms"},
      {"service.refused", "count"},
      {"net.connect_ms", "ms"},
      {"net.hello_us", "us"},
      {"net.send_ns", "ns"},
      {"net.recv_wait_ms", "ms"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.retries", "count"},
      {"net.frames_bad", "count"},
      {"pcm.write_us", "us"},
      {"pcm.read_r_us", "us"},
      {"pcm.read_rm_us", "us"},
      {"pcm.advance_time_ms", "ms"},
      {"pcm.m_fallback_share", "share"},
      {"ecc.decode_ns.w0", "ns"},
      {"ecc.decode_ns.w8", "ns"},
      {"ecc.decode_ns.w17", "ns"},
      {"memsim.vread_p99_ns", "ns"},
      {"memsim.vwrite_p99_ns", "ns"},
      {"memsim.scrubs", "count"},
      {"memsim.write_cancellations", "count"},
      {"readduo.rm_read_share", "share"},
      {"trace.work_per_s_traced", "1/s"},
      {"trace.work_per_s_untraced", "1/s"},
      {"trace.overhead_share", "share"},
  };
  return kUnits;
}

/// Per-layer metrics (name prefixes) of the layers a workload never calls;
/// a traced run reports them as 0. Every other per-layer metric must come
/// from the workload itself, or run.py refuses the run.
const std::vector<std::string>& not_called(const std::string& workload) {
  static const std::vector<std::string> kNone;
  static const std::map<std::string, std::vector<std::string>> kByWorkload = {
      // The traced sweep also probes service and wire.
      {"sweep", {"pcm.", "ecc."}},
      {"chip", {"readduo.", "memsim.", "common.", "service.", "net."}},
      {"service",
       {"readduo.make_scheme_ms.", "memsim.run_s",
        "memsim.host_ns_per_request", "common.", "net.", "pcm.", "ecc."}},
      {"wire",
       {"readduo.make_scheme_ms.", "memsim.run_s",
        "memsim.host_ns_per_request", "common.", "service.submit_ns",
        "service.drain_wait_ms", "service.refused", "pcm.", "ecc."}},
  };
  const auto it = kByWorkload.find(workload);
  return it == kByWorkload.end() ? kNone : it->second;
}

const char* kernel_tier_name(rd::KernelMode m) {
  switch (m) {
    case rd::KernelMode::kReference: return "reference";
    case rd::KernelMode::kOptimized: return "optimized";
    case rd::KernelMode::kVectorized: return "vector";
    case rd::KernelMode::kAuto: break;
  }
  return "auto";
}

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// The service and wire workloads are not in the benchmark's workload list
/// (too unsteady on a shared VM; README.md), so a traced sweep run also
/// makes a short traced run of each and keeps its service.* (from
/// service) and net.* (from wire) metrics: every layer stays measured.
void probe_stream_layers(const Options& o, Report& r) {
  struct Probe {
    const char* workload;
    void (*run)(const Options&, Tracer&, std::int64_t, Report&);
    const char* prefix;
  };
  for (const Probe& p : {Probe{"service", run_service, "service."},
                         Probe{"wire", run_wire, "net."}}) {
    Options po = o;
    po.workload = p.workload;
    po.seconds = 1e-3;  // the minimum number of epochs
    Tracer tr(true);
    Report pr;
    p.run(po, tr, now_ns(), pr);
    if (!pr.checks_ok || pr.failed > 0) {
      r.fail_check(std::string(p.workload) + " probe failed its checks");
    }
    for (const Metric& m : pr.metrics) {
      if (m.name.rfind(p.prefix, 0) == 0) r.metrics.push_back(m);
    }
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sweep|service|wire|chip> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only] [--socket <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds must be > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--socket") {
      o.socket = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

void print_result(const Report& r) {
  std::printf("{\"setup_s\":%.17g,\"attempted\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"checks_ok\":%s,\"fingerprint\":\"%s\""
              ",\"threads\":%u,\"metrics\":{",
              r.setup_s, r.attempted, r.failed,
              r.checks_ok ? "true" : "false", r.fingerprint.c_str(),
              r.threads);
  const char* sep = "";
  for (const Metric& m : r.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ",";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const std::int64_t start_ns = pb::now_ns();
  pb::Options o = pb::parse(argc, argv);
  o.nproc = pb::host_nproc();
  pb::Tracer tr(o.trace);
  pb::Report r;
  try {
    if (o.workload == "sweep") {
      pb::run_sweep(o, tr, start_ns, r);
      if (o.trace && !o.setup_only) pb::probe_stream_layers(o, r);
    } else if (o.workload == "service") {
      pb::run_service(o, tr, start_ns, r);
    } else if (o.workload == "wire") {
      pb::run_wire(o, tr, start_ns, r);
    } else if (o.workload == "chip") {
      pb::run_chip(o, tr, start_ns, r);
    } else {
      pb::usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf(
      "[perfbench] env workload=%s seed=%" PRIu64 " trace=%d nproc=%u "
      "threads=%u kernels=%s simd=%s device=%s build=%s\n",
      o.workload.c_str(), o.seed, o.trace ? 1 : 0, o.nproc, r.threads,
      pb::kernel_tier_name(rd::kernels_mode()),
      rd::simd_level_name(rd::simd_level()),
      rd::config::active_device().name.c_str(), PB_BUILD_TYPE);
  for (const std::string& f : r.check_failures) {
    std::printf("[perfbench] check failed: %s\n", f.c_str());
  }
  if (o.trace && !o.setup_only) {
    std::map<std::string, bool> have;
    for (const pb::Metric& m : r.metrics) have[m.name] = true;
    for (const auto& [name, unit] : pb::per_layer_units()) {
      if (have.count(name)) continue;
      for (const std::string& prefix : pb::not_called(o.workload)) {
        if (name.rfind(prefix, 0) == 0) {
          r.add(name, 0.0, unit);
          break;
        }
      }
    }
  }
  pb::print_result(r);
  return 0;
}
