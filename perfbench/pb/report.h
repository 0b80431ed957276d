// What one benchmark process measured, and the options it ran with.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "pb/spans.h"
#include "pb/stats.h"
#include "service/memory_service.h"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Stop after set-up (the first timed op would start here).
  bool setup_only = false;
  unsigned nproc = 1;
  /// Unix socket path for the wire workload (relative to the cwd).
  std::string socket;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;  ///< timed ops
  std::uint64_t failed = 0;     ///< timed ops whose output check failed
  /// Run-level checks (server counters, histogram cross-checks).
  bool checks_ok = true;
  std::vector<std::string> check_failures;
  /// Hash of the virtual-time outputs of the run's fixed prefix.
  std::string fingerprint;
  /// Threads the workload runs, generator included.
  unsigned threads = 0;
  double setup_s = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& why) {
    checks_ok = false;
    check_failures.push_back(why);
  }
};

/// FNV-1a over the integers that make up a virtual-time result.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_f(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The process's peak resident set in MiB.
double peak_rss_mb();

/// Host-time samples of a run's timed part. The timed part is a series
/// of identical epochs (fresh program state, the same inputs), run until
/// the run's seconds are used up; medians over epochs keep a burst of
/// host noise from moving the result.
struct Samples {
  std::vector<double> op_us;        ///< every op, in order
  std::vector<double> epoch_rate;   ///< work per host second, per epoch
  std::vector<double> rate_traced;  ///< the same, traced epochs only
  std::vector<double> rate_untraced;
  /// Peak RSS at the end of the first epoch: set-up plus one epoch, a
  /// fixed amount of work however long the run.
  double first_epoch_rss_mb = 0;

  void end_epoch(double work, double seconds, bool traced) {
    if (epoch_rate.empty()) first_epoch_rss_mb = peak_rss_mb();
    epoch_rate.push_back(work / seconds);
    (traced ? rate_traced : rate_untraced).push_back(work / seconds);
  }
};

/// Add the end-to-end metrics: setup_s (r.setup_s), work_per_s (median
/// epoch rate), op_p50_us (median op), op_tail_us (median over complete
/// windows of `window` consecutive ops of each window's tail, see
/// stats.h), peak_rss_mb (first_epoch_rss_mb). A traced run also gets
/// the trace.* overhead metrics.
void add_end_to_end(Report& r, const Samples& s, std::size_t window,
                    bool trace);

/// Exit with a diagnostic unless `threads` (generator included) fit in
/// `nproc`: oversubscribed runs measure the scheduler, not the program.
void require_budget(unsigned threads, unsigned nproc, const char* what);

/// Seconds since `t0_ns` (a now_ns() reading).
inline double since_s(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

// One entry point per workload. `start_ns` is the process start, so the
// workload can report setup_s at its first timed op.
void run_sweep(const Options& o, Tracer& tr, std::int64_t start_ns,
               Report& r);
void run_service(const Options& o, Tracer& tr, std::int64_t start_ns,
                 Report& r);
void run_wire(const Options& o, Tracer& tr, std::int64_t start_ns,
              Report& r);
void run_chip(const Options& o, Tracer& tr, std::int64_t start_ns,
              Report& r);

// Shared by the service and wire workloads (defined in service.cpp).

using ClassHistograms =
    std::array<rd::stats::LatencyHistogram, rd::stats::kNumReqClasses>;

/// Run a throwaway service briefly so lazily built process-wide tables
/// exist before the first timed op (set-up pays for them, as users do).
void warm_up_service(std::uint64_t seed);

/// Fingerprint a service's virtual-time state. In epoch 0 it becomes
/// r.fingerprint (and, when tracing, gives the modelled-design metrics);
/// a later epoch must reproduce it.
void check_fingerprint(const rd::service::ServiceStats& st,
                       std::uint64_t epoch, bool trace, Report& r);

/// Compare the demand-class histograms a client assembled from its
/// completions with the service's own; a difference fails the run.
void crosscheck(const ClassHistograms& client,
                const rd::service::ServiceStats& st, Report& r);

}  // namespace pb
