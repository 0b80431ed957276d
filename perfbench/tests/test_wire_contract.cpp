// The wire determinism contract under the benchmark's session cut: the
// wire workload's back-to-back client sessions (kOpRequests each, behind
// its window, on its kWorkers service workers) give the same virtual-time
// histograms as one in-process sequenced client per session fed the same
// stream.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pb/spans.h"
#include "pb/stream.h"
#include "pb/wire_session.h"
#include "net/server.h"
#include "service/memory_service.h"

namespace pb {
namespace {

using rd::service::Request;
using rd::service::ServiceStats;

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kPerSession = kOpRequests;

std::vector<std::vector<Request>> sessions(std::size_t n) {
  RequestStream stream(kSeed);
  std::vector<std::vector<Request>> out(n);
  for (auto& s : out) {
    for (std::size_t i = 0; i < kPerSession; ++i) s.push_back(stream.next());
  }
  return out;
}

ServiceStats over_wire(const std::vector<std::vector<Request>>& reqs,
                       std::vector<SessionResult>& results) {
  rd::net::ServerConfig cfg;
  cfg.service = stream_service_config(kSeed, kWorkers);
  cfg.service.queue_capacity = kOpRequests;
  cfg.listen = "unix:perfbench_contract.sock";
  rd::net::Server server(cfg);
  server.start();
  std::thread poll([&server] { server.run(); });
  Tracer off(false);
  ServiceStats st;
  bool fetched = false;
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    results.push_back(run_session(server.address(), k + 1, reqs[k], off));
  }
  fetched = fetch_stats(server.address(), reqs.size() + 1, st);
  server.stop();
  poll.join();
  EXPECT_TRUE(fetched);
  EXPECT_EQ(server.counters().frames_bad, 0u);
  return st;
}

ServiceStats in_process(const std::vector<std::vector<Request>>& reqs) {
  rd::service::ServiceConfig cfg = stream_service_config(kSeed, kWorkers);
  cfg.queue_capacity = kOpRequests;
  rd::service::MemoryService svc(cfg);
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    const std::uint64_t client = k + 1;
    EXPECT_TRUE(svc.register_client(client));
    std::uint64_t seq = 0;
    // Stream ids count up from 1 across sessions, as the server numbers
    // the requests it accepts.
    for (const Request& q : reqs[k]) {
      EXPECT_EQ(svc.submit_sequenced(client, ++seq, q),
                rd::service::SubmitStatus::kAccepted);
    }
    svc.client_done(client);
    svc.drain();
  }
  const ServiceStats st = svc.stats();
  svc.stop();
  return st;
}

class WireContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireContract, SessionsMatchInProcessSequencedClients) {
  const auto reqs = sessions(GetParam());
  std::vector<SessionResult> results;
  const ServiceStats wire = over_wire(reqs, results);
  const ServiceStats direct = in_process(reqs);

  EXPECT_EQ(wire.completed, GetParam() * kPerSession);
  EXPECT_EQ(wire.completed, direct.completed);
  EXPECT_EQ(wire.virtual_time.v, direct.virtual_time.v);
  EXPECT_EQ(wire.scrubs, direct.scrubs);
  EXPECT_EQ(wire.write_cancellations, direct.write_cancellations);
  std::array<rd::stats::LatencyHistogram, rd::stats::kNumReqClasses> client;
  for (const SessionResult& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.completions, kPerSession);
    for (std::size_t c = 0; c < client.size(); ++c) client[c].merge(r.hist[c]);
  }
  for (std::size_t c = 0; c < rd::stats::kNumReqClasses; ++c) {
    const auto cls = static_cast<rd::stats::ReqClass>(c);
    EXPECT_TRUE(wire.metrics.lat(cls) == direct.metrics.lat(cls))
        << rd::stats::req_class_name(cls);
    if (cls <= rd::stats::ReqClass::kDemandWrite) {
      EXPECT_TRUE(client[c] == direct.metrics.lat(cls))
          << rd::stats::req_class_name(cls);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, WireContract, ::testing::Values(1, 2));

}  // namespace
}  // namespace pb
