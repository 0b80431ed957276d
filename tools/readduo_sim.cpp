// readduo_sim — the command-line front end to the full simulator stack.
//
//   readduo_sim --scheme=LWT --workload=mcf --instructions=6000000
//   readduo_sim --scheme=Select --k=4 --s=2 --config=system.ini
//   readduo_sim configs/rram_iss2012.cfg --scheme=Hybrid --workload=mcf
//   readduo_sim --list
//
// Runs one (scheme, workload) simulation and prints a complete report:
// execution time, read-mode mix, energy decomposition, endurance, and
// reliability events. A positional <device.cfg> (or --device=<file>)
// selects a device from the zoo (configs/; schema in
// docs/DEVICE_CONFIGS.md); a --config run file, in the same strict
// grammar, sets the CPU parameters the device schema does not own.
#include <climits>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "cli_flags.h"
#include "config/apply.h"
#include "config/loader.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "stats/edap.h"
#include "stats/json.h"
#include "trace/trace_io.h"
#include "trace/workload.h"

using namespace rd;
using cli::parse_flag;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [device.cfg] --scheme=<name> --workload=<name> [options]\n"
      "\n"
      "options:\n"
      "  <device.cfg>           positional: device description to simulate\n"
      "                         (same as --device; see configs/ and\n"
      "                         docs/DEVICE_CONFIGS.md)\n"
      "  --device=<file>        select the device config; overrides the\n"
      "                         READDUO_DEVICE environment knob\n"
      "  --scheme=<name>        Ideal | TLC | Scrubbing | Scrubbing-W0 |\n"
      "                         Scrubbing-BCH10 | M-metric | Hybrid | LWT |"
      " Select\n"
      "  --workload=<name>      one of the 14 SPEC2006 workloads (--list)\n"
      "  --instructions=<n>     per-core instruction budget, > 0 (default 2M)\n"
      "  --seed=<n>             RNG seed (default 42)\n"
      "  --k=<n> --s=<n>        LWT sub-intervals / Select window, > 0\n"
      "  --no-conversion        disable R-M-read -> write conversion\n"
      "  --row-buffer           enable the open-page row-buffer model\n"
      "  --json                 emit a machine-readable JSON report\n"
      "  --config=<file>        run file in the device-config grammar with\n"
      "                         only [cpu] cores, clock_ghz and\n"
      "                         read_stall_fraction; memory and energy\n"
      "                         belong in the device config\n"
      "  --list                 list workloads and exit\n"
      "\n"
      "environment:\n"
      "  READDUO_TRACE=<n>      keep the last n simulator events and dump\n"
      "                         them to stderr on a reliability event\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheme_name, workload_name = "mcf", config_path;
  std::string device_path;
  readduo::ReadDuoOptions opts;
  std::uint64_t instructions = 2'000'000, seed = 42, k = opts.k,
                select_s = opts.select_s;
  const cli::CountFlag numeric_flags[] = {
      {"--instructions", 1, ULLONG_MAX, &instructions},
      {"--seed", 0, ULLONG_MAX, &seed},
      {"--k", 1, UINT_MAX, &k},
      {"--s", 1, UINT_MAX, &select_s},
  };
  bool row_buffer = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const cli::Match numeric = cli::parse_counts(a, numeric_flags);
    if (numeric == cli::Match::kBad) return 2;
    if (numeric == cli::Match::kParsed) continue;
    if (std::strcmp(a, "--list") == 0) {
      for (const auto& w : trace::spec2006_workloads()) {
        std::printf("%-12s rpki=%.2f wpki=%.2f\n", w.name.c_str(), w.rpki,
                    w.wpki);
      }
      return 0;
    } else if (std::strcmp(a, "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strcmp(a, "--no-conversion") == 0) {
      opts.conversion = false;
    } else if (std::strcmp(a, "--row-buffer") == 0) {
      row_buffer = true;
    } else if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (parse_flag(a, "--scheme", scheme_name) ||
               parse_flag(a, "--workload", workload_name) ||
               parse_flag(a, "--config", config_path) ||
               parse_flag(a, "--device", device_path)) {
      // handled
    } else if (a[0] != '-' && std::strlen(a) > 4 &&
               std::strcmp(a + std::strlen(a) - 4, ".cfg") == 0) {
      device_path = a;  // positional device config
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a);
      usage(argv[0]);
      return 2;
    }
  }

  opts.k = static_cast<unsigned>(k);
  opts.select_s = static_cast<unsigned>(select_s);

  const std::optional<readduo::SchemeKind> kind =
      readduo::scheme_kind_by_name(scheme_name);
  if (!kind) {
    std::fprintf(stderr, "unknown or missing --scheme\n");
    usage(argv[0]);
    return 2;
  }

  try {
    // Pin the device before any simulation object latches it; the
    // positional/--device path wins over the READDUO_DEVICE env knob.
    if (!device_path.empty()) {
      config::set_active_device(config::load_device(device_path),
                                device_path);
    }
    const config::DeviceConfig& dev = config::active_device();

    const trace::Workload& w = trace::workload_by_name(workload_name);

    memsim::SimConfig cfg;
    config::apply_device(dev, cfg);
    cfg.instructions_per_core = instructions;
    cfg.seed = seed;
    cfg.row_buffer.enabled = row_buffer;
    cfg.trace_events = stats::trace_ring_capacity_from_env();
    if (!config_path.empty()) {
      config::apply_cpu_overrides(config::RawConfig::load(config_path),
                                  cfg.cpu);
    }
    // After the overrides: the scheme's write rate follows the clock.
    const readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, seed);

    auto scheme = readduo::make_scheme(*kind, env, opts);
    memsim::Simulator sim(cfg, *scheme, w);
    const memsim::SimResult r = sim.run();
    const auto& c = scheme->counters();
    const stats::LatencyHistogram reads = r.metrics.demand_reads();

    if (json) {
      stats::JsonWriter jw;
      jw.add("scheme", scheme->name())
          .add("device", dev.name)
          .add("workload", w.name)
          .add("instructions", r.instructions)
          .add("exec_time_ns", static_cast<std::uint64_t>(r.exec_time.v))
          .add("ipc", r.ipc(cfg.cpu))
          .add("reads", r.reads_serviced)
          .add("avg_read_latency_ns", r.avg_read_latency_ns())
          .add("read_p50_ns", reads.p50())
          .add("read_p95_ns", reads.p95())
          .add("read_p99_ns", reads.p99())
          .add("read_max_ns", reads.max())
          .add("demand_write_p99_ns",
               r.metrics.lat(stats::ReqClass::kDemandWrite).p99())
          .add("scrub_rewrite_p99_ns",
               r.metrics.lat(stats::ReqClass::kScrubRewrite).p99())
          .add("r_reads", c.r_reads)
          .add("m_reads", c.m_reads)
          .add("rm_reads", c.rm_reads)
          .add("row_hits", r.row_hits)
          .add("demand_full_writes", c.demand_full_writes)
          .add("demand_diff_writes", c.demand_diff_writes)
          .add("scrub_rewrites", c.scrub_rewrites)
          .add("conversion_writes", c.conversion_writes)
          .add("write_cancellations", r.write_cancellations)
          .add("dynamic_energy_pj", c.dynamic_energy_pj())
          .add("read_energy_pj", c.read_energy_pj)
          .add("write_energy_pj", c.write_energy_pj)
          .add("scrub_energy_pj", c.scrub_energy_pj)
          .add("cell_writes", c.cell_writes)
          .add("cells_per_line", readduo::cells_per_line(*kind, opts))
          .add("detected_uncorrectable", c.detected_uncorrectable)
          .add("silent_corruptions", c.silent_corruptions)
          .add("scrub_senses", c.scrub_senses)
          .add("scrub_backlog_end", r.scrub_backlog_end)
          .add("scrub_rewrites_dropped", r.scrub_rewrites_dropped);
      std::fputs(jw.str().c_str(), stdout);
      return 0;
    }

    std::printf("scheme      : %s\n", scheme->name().c_str());
    std::printf("device      : %s (%s)\n", dev.name.c_str(),
                config::active_device_source().c_str());
    std::printf("workload    : %s (rpki %.2f, wpki %.2f)\n", w.name.c_str(),
                w.rpki, w.wpki);
    std::printf("instructions: %llu (%u cores)\n",
                static_cast<unsigned long long>(r.instructions),
                cfg.cpu.num_cores);
    std::printf("exec time   : %.3f ms  (IPC %.3f)\n",
                static_cast<double>(r.exec_time.v) * 1e-6, r.ipc(cfg.cpu));
    std::printf("reads       : %llu serviced, avg latency %.0f ns "
                "(R/M/R-M = %llu/%llu/%llu, row hits %llu)\n",
                static_cast<unsigned long long>(r.reads_serviced),
                r.avg_read_latency_ns(),
                static_cast<unsigned long long>(c.r_reads),
                static_cast<unsigned long long>(c.m_reads),
                static_cast<unsigned long long>(c.rm_reads),
                static_cast<unsigned long long>(r.row_hits));
    std::printf("read tail   : p50 %.0f / p95 %.0f / p99 %.0f / max %lld "
                "ns\n",
                reads.p50(), reads.p95(), reads.p99(),
                static_cast<long long>(reads.max()));
    std::printf("writes      : %llu full + %llu diff demand, %llu scrub "
                "rewrites, %llu conversions, %llu cancellations\n",
                static_cast<unsigned long long>(c.demand_full_writes),
                static_cast<unsigned long long>(c.demand_diff_writes),
                static_cast<unsigned long long>(c.scrub_rewrites),
                static_cast<unsigned long long>(c.conversion_writes),
                static_cast<unsigned long long>(r.write_cancellations));
    const double tot = c.dynamic_energy_pj();
    std::printf("energy      : %.3f uJ dynamic (read %.1f%% / write %.1f%% "
                "/ scrub %.1f%%)\n",
                tot * 1e-6, 100.0 * c.read_energy_pj / tot,
                100.0 * c.write_energy_pj / tot,
                100.0 * c.scrub_energy_pj / tot);
    std::printf("endurance   : %llu cell writes (%.0f cells/line density)\n",
                static_cast<unsigned long long>(c.cell_writes),
                readduo::cells_per_line(*kind, opts));
    std::printf("reliability : %llu detected-uncorrectable, %llu silent\n",
                static_cast<unsigned long long>(c.detected_uncorrectable),
                static_cast<unsigned long long>(c.silent_corruptions));
    std::printf("scrubbing   : %llu senses, backlog %llu, dropped "
                "rewrites %llu\n",
                static_cast<unsigned long long>(r.scrubs_serviced),
                static_cast<unsigned long long>(r.scrub_backlog_end),
                static_cast<unsigned long long>(r.scrub_rewrites_dropped));
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
