// The request stream of the service and wire workloads: the memory
// service's Hybrid chips under the mcf locality/write mix, arriving at a
// fixed virtual rate. The draw order per request is readduo_load's
// (tools/readduo_load.cpp next_request), so a stream here is the stream
// that tool generates for the same seed.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "service/memory_service.h"
#include "trace/workload.h"

namespace pb {

/// Virtual arrival rate (requests per virtual second), readduo_load's
/// default.
inline constexpr double kStreamRps = 2e6;

/// Shards of the service under test: divisible by 1, 2, 3 and 6 workers,
/// so any worker count up to the host's 4 threads owns equal stripes.
inline constexpr unsigned kShards = 6;
/// Service worker threads. On a 4-vCPU VM, 2 or 3 workers (every submit()
/// wakes them) swung throughput by 2x between identical runs, against
/// +-10 % with one (README.md).
inline constexpr unsigned kWorkers = 1;

/// Requests per op (a service batch, a wire session). The queues hold a
/// whole op, so no submission is ever refused and virtual results repeat
/// exactly.
inline constexpr std::size_t kOpRequests = 4096;
/// Ops per epoch (a fresh service fed the stream from its start); the
/// tail is taken per epoch, so 100 ops give p90 with 10 beyond.
inline constexpr std::uint64_t kEpochOps = 100;
/// Epochs every run makes, however short its seconds.
inline constexpr std::uint64_t kMinEpochs = 2;
/// Ops covered by the fingerprint and the modelled-design metrics.
inline constexpr std::uint64_t kFingerprintOps = 8;

/// The service configuration both request-stream workloads drive.
inline rd::service::ServiceConfig stream_service_config(std::uint64_t seed,
                                                        unsigned workers) {
  rd::service::ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.worker_threads = workers;
  cfg.sim.seed = seed;
  cfg.scheme = rd::readduo::SchemeKind::kHybrid;
  cfg.workload = rd::trace::workload_by_name("mcf");
  return cfg;
}

class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed)
      : w_(rd::trace::workload_by_name("mcf")),
        write_fraction_(w_.wpki / (w_.rpki + w_.wpki)),
        gap_{std::max<std::int64_t>(1,
                                    rd::from_seconds(1.0 / kStreamRps).v)},
        rng_(seed, /*stream=*/0x10ad) {}

  /// The next request; ids count up from 1.
  rd::service::Request next() {
    rd::service::Request r;
    r.id = ++id_;
    r.arrival = t_;
    t_ += gap_;
    r.is_write = rng_.bernoulli(write_fraction_);
    if (!r.is_write && rng_.bernoulli(w_.archive_read_fraction)) {
      r.archive = true;
      r.line = w_.footprint_lines +
               rng_.uniform_below(std::max<std::uint64_t>(1, w_.archive_lines));
    } else {
      r.line = rng_.zipf(w_.footprint_lines, w_.zipf_s);
    }
    return r;
  }

 private:
  const rd::trace::Workload& w_;
  double write_fraction_;
  rd::Ns gap_;
  rd::Rng rng_;
  rd::Ns t_{0};
  std::uint64_t id_ = 0;
};

}  // namespace pb
