// wire: the service workload's request stream sent over a unix socket to
// an in-process net::Server. An op is one back-to-back client session of
// kOpRequests requests. Work is completed requests. Each epoch is a fresh
// server fed the stream from its start.
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "pb/report.h"
#include "pb/stream.h"
#include "pb/wire_session.h"
#include "net/server.h"

namespace pb {
namespace {

/// A started server with its poll thread; stops and joins on destruction.
class LiveServer {
 public:
  LiveServer(const rd::net::ServerConfig& cfg, Tracer& tr) {
    {
      Tracer::Span s(tr, "service.ctor");
      server_ = std::make_unique<rd::net::Server>(cfg);
    }
    server_->start();
    poll_ = std::thread([this] { server_->run(); });
  }
  ~LiveServer() {
    server_->stop();
    poll_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  rd::net::Server& server() { return *server_; }
  const std::string& address() const { return server_->address(); }

 private:
  std::unique_ptr<rd::net::Server> server_;
  std::thread poll_;
};

}  // namespace

void run_wire(const Options& o, Tracer& tr, std::int64_t start_ns,
              Report& r) {
  RD_CHECK_MSG(!o.socket.empty(), "wire: --socket is required");
  // One client (the generator), the poll thread, and the worker.
  require_budget(kWorkers + 2, o.nproc, "wire: client + poll + worker");
  r.threads = kWorkers + 2;

  warm_up_service(o.seed);
  rd::net::ServerConfig cfg;
  cfg.service = stream_service_config(o.seed, kWorkers);
  cfg.service.queue_capacity = kOpRequests;
  cfg.listen = "unix:" + o.socket;
  auto live = std::make_unique<LiveServer>(cfg, tr);
  std::vector<rd::service::Request> batch(kOpRequests);
  r.setup_s = since_s(start_ns);
  if (o.setup_only) return;

  Samples smp;
  std::uint64_t retries = 0, frames_bad = 0;
  std::uint64_t traced_sessions = 0, traced_completions = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t e = 0; e < kMinEpochs || since_s(t0) < o.seconds; ++e) {
    const bool traced = o.trace && e % 2 == 0;
    tr.set_on(traced);
    if (e > 0) {
      live.reset();  // frees the socket path before the next server binds
      live = std::make_unique<LiveServer>(cfg, tr);
    }
    const std::string& addr = live->address();
    RequestStream stream(o.seed);
    ClassHistograms client;
    std::uint64_t next_client = 1;
    double busy_s = 0;
    double done = 0;
    for (std::uint64_t op = 0; op < kEpochOps; ++op) {
      for (rd::service::Request& q : batch) q = stream.next();

      const std::int64_t op0 = now_ns();
      SessionResult s;
      {
        Tracer::Span s_op(tr, "wire.op");
        s = run_session(addr, next_client++, batch, tr);
      }
      const double us = static_cast<double>(now_ns() - op0) / 1e3;

      smp.op_us.push_back(us);
      busy_s += us / 1e6;
      done += static_cast<double>(s.completions);
      ++r.attempted;
      if (!s.ok() || s.completions != kOpRequests) ++r.failed;
      retries += s.retries;
      for (std::size_t c = 0; c < client.size(); ++c) {
        client[c].merge(s.hist[c]);
      }
      if (traced) {
        ++traced_sessions;
        traced_completions += s.completions;
      }
      if (op + 1 == kFingerprintOps) {
        rd::service::ServiceStats st;
        if (!fetch_stats(addr, next_client++, st)) {
          r.fail_check("malformed stats blob");
        }
        check_fingerprint(st, e, o.trace, r);
      }
    }
    smp.end_epoch(done, busy_s, traced);
    rd::service::ServiceStats st;
    if (!fetch_stats(addr, next_client++, st)) {
      r.fail_check("malformed stats blob");
    }
    crosscheck(client, st, r);
    const rd::net::ServerCounters sc = live->server().counters();
    frames_bad += sc.frames_bad;
    if (sc.crc_errors > 0) r.fail_check("server counted CRC errors");
    if (sc.frames_bad > 0) r.fail_check("server rejected frames");
  }
  live.reset();
  tr.set_on(o.trace);
  add_end_to_end(r, smp, kEpochOps, o.trace);
  if (!o.trace) return;

  const double sessions =
      static_cast<double>(std::max<std::uint64_t>(1, traced_sessions));
  r.add("service.ctor_ms", tr.total("service.ctor").mean_ns() / 1e6, "ms");
  r.add("net.connect_ms", tr.total("net.connect").mean_ns() / 1e6, "ms");
  r.add("net.hello_us", tr.total("net.hello").mean_ns() / 1e3, "us");
  const auto per_completion = [&](const char* span) {
    return traced_completions
               ? static_cast<double>(tr.total(span).total_ns) /
                     static_cast<double>(traced_completions)
               : 0.0;
  };
  r.add("net.send_ns", per_completion("net.send"), "ns");
  r.add("net.recv_wait_ms",
        static_cast<double>(tr.total("net.recv_wait").total_ns) / 1e6 /
            sessions,
        "ms");
  r.add("net.encode_ns", tr.total("net.encode").mean_ns(), "ns");
  r.add("net.decode_ns", per_completion("net.decode"), "ns");
  r.add("net.retries", static_cast<double>(retries), "count");
  r.add("net.frames_bad", static_cast<double>(frames_bad), "count");
}

}  // namespace pb
