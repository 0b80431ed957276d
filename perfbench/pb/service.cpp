// service: an in-process MemoryService (Hybrid, mcf mix) fed by one
// generator thread. An op is one closed-loop batch: submit() for a fixed
// number of requests, then drain(). Work is completed requests. Each
// epoch is a fresh service fed the same stream.
#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/check.h"
#include "pb/report.h"
#include "pb/stream.h"
#include "service/memory_service.h"
#include "stats/histogram.h"
#include "stats/metrics.h"

namespace pb {
namespace {

std::string fingerprint_service(const rd::service::ServiceStats& st) {
  Fingerprint fp;
  fp.add_i(st.virtual_time.v);
  fp.add(st.completed);
  fp.add(st.scrubs);
  fp.add(st.write_cancellations);
  fp.add(st.scrub_rewrites_dropped);
  for (const rd::stats::LatencyHistogram& h : st.metrics.latency) {
    for (const std::uint64_t b : h.buckets()) fp.add(b);
  }
  return fp.hex();
}

}  // namespace

void check_fingerprint(const rd::service::ServiceStats& st, std::uint64_t epoch,
                       bool trace, Report& r) {
  const std::string fp = fingerprint_service(st);
  if (epoch > 0) {
    if (fp != r.fingerprint) {
      r.fail_check("epoch " + std::to_string(epoch) +
                   " virtual results differ from epoch 0");
    }
    return;
  }
  r.fingerprint = fp;
  if (!trace) return;
  const rd::stats::LatencyHistogram reads = st.metrics.demand_reads();
  r.add("memsim.vread_p99_ns", reads.p99(), "ns");
  r.add("memsim.vwrite_p99_ns",
        st.metrics.lat(rd::stats::ReqClass::kDemandWrite).p99(), "ns");
  r.add("memsim.scrubs", static_cast<double>(st.scrubs), "count");
  r.add("memsim.write_cancellations",
        static_cast<double>(st.write_cancellations), "count");
  const double rm = static_cast<double>(
      st.metrics.lat(rd::stats::ReqClass::kRMRead).count());
  r.add("readduo.rm_read_share",
        reads.count() ? rm / static_cast<double>(reads.count()) : 0.0,
        "share");
}

void crosscheck(const ClassHistograms& client,
                const rd::service::ServiceStats& st, Report& r) {
  for (std::size_t c = 0;
       c <= static_cast<std::size_t>(rd::stats::ReqClass::kDemandWrite); ++c) {
    const auto cls = static_cast<rd::stats::ReqClass>(c);
    if (!(client[c] == st.metrics.lat(cls))) {
      r.fail_check(std::string("histogram mismatch for class ") +
                   rd::stats::req_class_name(cls));
    }
  }
}

void warm_up_service(std::uint64_t seed) {
  // A throwaway one-shard service over a stream of its own: it builds the
  // process-wide tables the timed service uses (the schemes' error tables
  // are made on first use) without touching the measured service's state.
  rd::service::ServiceConfig cfg = stream_service_config(seed, 1);
  cfg.num_shards = 1;
  rd::service::MemoryService svc(cfg);
  RequestStream stream(seed + 1);
  for (int i = 0; i < 512; ++i) RD_CHECK(svc.submit(stream.next()));
  svc.drain();
  svc.stop();
}

void run_service(const Options& o, Tracer& tr, std::int64_t start_ns,
                 Report& r) {
  require_budget(kWorkers + 1, o.nproc, "service: generator + worker");
  r.threads = kWorkers + 1;

  warm_up_service(o.seed);
  rd::service::ServiceConfig cfg = stream_service_config(o.seed, kWorkers);
  cfg.queue_capacity = kOpRequests;
  cfg.retain_completions = true;
  const auto make = [&cfg, &tr] {
    Tracer::Span s(tr, "service.ctor");
    return std::make_unique<rd::service::MemoryService>(cfg);
  };
  std::unique_ptr<rd::service::MemoryService> svc = make();
  std::vector<rd::service::Request> batch(kOpRequests);
  std::vector<std::uint8_t> seen(kOpRequests);
  r.setup_s = since_s(start_ns);
  if (o.setup_only) return;

  Samples smp;
  std::uint64_t refused = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t e = 0; e < kMinEpochs || since_s(t0) < o.seconds; ++e) {
    const bool traced = o.trace && e % 2 == 0;
    tr.set_on(traced);
    if (e > 0) {
      svc.reset();  // one service alive at a time
      svc = make();
    }
    RequestStream stream(o.seed);
    ClassHistograms client;
    double busy_s = 0;
    for (std::uint64_t op = 0; op < kEpochOps; ++op) {
      for (rd::service::Request& q : batch) q = stream.next();
      const std::uint64_t first_id = batch.front().id;

      const std::int64_t op0 = now_ns();
      bool ok = true;
      {
        Tracer::Span s_op(tr, "service.op");
        for (const rd::service::Request& q : batch) {
          Tracer::Span s(tr, "service.submit");
          if (!svc->submit(q)) {
            ++refused;
            ok = false;
          }
        }
        Tracer::Span s(tr, "service.drain");
        svc->drain();
      }
      const double us = static_cast<double>(now_ns() - op0) / 1e3;

      // Every request completes exactly once.
      std::fill(seen.begin(), seen.end(), 0);
      std::uint64_t done = 0;
      for (const auto& c : svc->take_completions()) {
        const std::uint64_t k = c.id - first_id;
        if (c.id < first_id || k >= kOpRequests || seen[k]++ != 0) {
          ok = false;
          continue;
        }
        ++done;
        client[static_cast<std::size_t>(c.cls)].record(c.latency());
      }
      ok = ok && done == kOpRequests;
      smp.op_us.push_back(us);
      busy_s += us / 1e6;
      ++r.attempted;
      if (!ok) ++r.failed;
      if (op + 1 == kFingerprintOps) {
        check_fingerprint(svc->stats(), e, o.trace, r);
      }
    }
    smp.end_epoch(static_cast<double>(kEpochOps * kOpRequests), busy_s,
                  traced);
    crosscheck(client, svc->stats(), r);
    svc->stop();
  }
  tr.set_on(o.trace);
  add_end_to_end(r, smp, kEpochOps, o.trace);
  if (!o.trace) return;

  const Tracer::Agg ctor = tr.total("service.ctor");
  r.add("service.ctor_ms", ctor.mean_ns() / 1e6, "ms");
  r.add("service.submit_ns", tr.total("service.submit").mean_ns(), "ns");
  r.add("service.drain_wait_ms", tr.total("service.drain").mean_ns() / 1e6,
        "ms");
  r.add("service.refused", static_cast<double>(refused), "count");
}

}  // namespace pb
