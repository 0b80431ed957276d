// Loopback tests for the wire front end (DESIGN.md §12): determinism of
// the multi-client sequence merge over real sockets, and the robustness
// corpus — disconnects, half frames, slow readers, protocol-state abuse.
// Every abuse case must end in an error reply or a clean close, never a
// crash, hang, or desynchronized server.
#include "net/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/wire_stats.h"
#include "service/memory_service.h"
#include "stats/metrics.h"
#include "trace/workload.h"

namespace rd::net {
namespace {

std::string unique_sock() {
  static std::atomic<unsigned> counter{0};
  return "unix:/tmp/rd_nettest_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

service::ServiceConfig small_service(
    unsigned threads,
    readduo::SchemeKind scheme = readduo::SchemeKind::kHybrid) {
  service::ServiceConfig cfg;
  cfg.num_shards = 4;
  cfg.queue_capacity = 1024;
  cfg.worker_threads = threads;
  cfg.sim.seed = 7;
  cfg.scheme = scheme;
  cfg.workload = trace::workload_by_name("bzip2");
  return cfg;
}

/// A Server plus the thread running its poll loop.
struct TestServer {
  explicit TestServer(ServerConfig cfg) : server(std::move(cfg)) {
    server.start();
    thread = std::thread([this] { server.run(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server.stop();
      thread.join();
    }
  }
  Client connect() { return Client::connect_to(server.address()); }

  Server server;
  std::thread thread;
};

TestServer make_server(
    unsigned threads, const std::string& listen = "",
    readduo::SchemeKind scheme = readduo::SchemeKind::kHybrid) {
  ServerConfig cfg;
  cfg.service = small_service(threads, scheme);
  cfg.listen = listen.empty() ? unique_sock() : listen;
  return TestServer(std::move(cfg));
}

struct Gen {
  std::uint64_t line = 0;
  Ns arrival{0};
  bool is_write = false;
  bool archive = false;
};

/// Deterministic request stream with strictly increasing arrivals — the
/// precondition for the round-robin split to reassemble identically.
std::vector<Gen> make_stream(std::uint64_t n, std::uint64_t seed,
                             const trace::Workload& w) {
  Rng rng(seed, /*stream=*/0xC11E47);
  const double wf = w.wpki / (w.rpki + w.wpki);
  std::vector<Gen> out;
  out.reserve(n);
  Ns t{0};
  for (std::uint64_t i = 0; i < n; ++i) {
    Gen g;
    g.arrival = t;
    t += Ns{500};
    g.is_write = rng.bernoulli(wf);
    if (!g.is_write && rng.bernoulli(0.05)) {
      g.archive = true;
      g.line = w.footprint_lines + rng.uniform_below(1024);
    } else {
      g.line = rng.zipf(w.footprint_lines, w.zipf_s);
    }
    out.push_back(g);
  }
  return out;
}

void hello(Client& cli, std::uint64_t id) {
  std::string body;
  put_u64(body, id);
  cli.send_frame(Op::kHello, 0, body);
  const Frame f = cli.recv_frame();
  ASSERT_EQ(f.type, type_of(Status::kOk));
}

/// The readduo_load client loop in miniature: windowed pipelining,
/// kRetry resends, early drain. Returns the number of completions.
std::uint64_t drive_client(Client& cli, const std::vector<Gen>& stream,
                           std::size_t offset, std::size_t stride,
                           std::size_t window) {
  std::map<std::uint64_t, std::pair<Op, RequestBody>> inflight;
  std::uint64_t completions = 0;
  const auto handle = [&](const Frame& f) {
    if (f.type == type_of(Status::kDone)) {
      ++completions;
      ASSERT_EQ(inflight.erase(f.id), 1u);
      return;
    }
    ASSERT_TRUE(f.type == type_of(Status::kRetry) ||
                f.type == type_of(Status::kBadFrame));
    const auto it = inflight.find(f.id);
    ASSERT_NE(it, inflight.end());
    cli.send_frame(it->second.first, f.id,
                   encode_request_body(it->second.second));
  };

  std::uint64_t seq = 0;
  for (std::size_t i = offset; i < stream.size(); i += stride) {
    const Gen& g = stream[i];
    ++seq;
    const Op op = g.is_write ? Op::kWrite : g.archive ? Op::kScrub : Op::kRead;
    const RequestBody body{seq, g.line, g.arrival};
    cli.send_frame(op, seq, encode_request_body(body));
    inflight.emplace(seq, std::make_pair(op, body));
    while (inflight.size() >= window) handle(cli.recv_frame());
    Frame f;
    while (cli.try_recv(f)) handle(f);
  }
  const std::uint64_t drain_id = seq + 1;
  std::string drain_body;
  put_u64(drain_body, seq);
  cli.send_frame(Op::kDrain, drain_id, drain_body);
  bool drained = false;
  while (!drained || !inflight.empty()) {
    const Frame f = cli.recv_frame();
    if (f.id == drain_id && f.type == type_of(Status::kOk)) {
      drained = true;
      continue;
    }
    handle(f);
  }
  return completions;
}

/// Run `clients` wire clients over `stream` against a fresh server with
/// `threads` service workers running `scheme`; return the quiesced
/// service stats.
service::ServiceStats wire_run(
    unsigned threads, std::size_t clients, const std::vector<Gen>& stream,
    const std::vector<std::size_t>& windows,
    readduo::SchemeKind scheme = readduo::SchemeKind::kHybrid) {
  TestServer ts = make_server(threads, "", scheme);
  std::vector<Client> conns(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    conns[k] = ts.connect();
    hello(conns[k], k + 1);
  }
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> total{0};
  for (std::size_t k = 0; k < clients; ++k) {
    workers.emplace_back([&, k] {
      total += drive_client(conns[k], stream, k, clients,
                            windows[k % windows.size()]);
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(total.load(), stream.size());
  for (auto& c : conns) {
    c.send_frame(Op::kBye, 0, "");
    while (c.recv_opt().has_value()) {
    }
  }
  const service::ServiceStats st = ts.server.service().stats();
  ts.stop();
  return st;
}

// --- determinism ------------------------------------------------------

TEST(NetService, WireMatchesInProcess) {
  const service::ServiceConfig cfg = small_service(1);
  const std::vector<Gen> stream = make_stream(4000, 11, cfg.workload);

  // In-process baseline: same stream through plain submit().
  service::MemoryService svc(cfg);
  std::uint64_t id = 0;
  for (const Gen& g : stream) {
    service::Request r;
    r.id = ++id;
    r.line = g.line;
    r.arrival = g.arrival;
    r.is_write = g.is_write;
    r.archive = g.archive;
    while (!svc.submit(r)) {
    }
  }
  svc.drain();
  svc.stop();
  const service::ServiceStats direct = svc.stats();

  const service::ServiceStats wired =
      wire_run(/*threads=*/1, /*clients=*/1, stream, {64});
  EXPECT_EQ(wired.completed, direct.completed);
  EXPECT_EQ(wired.virtual_time.v, direct.virtual_time.v);
  EXPECT_TRUE(wired.metrics == direct.metrics);
}

TEST(NetService, FixedSeedRepeatIdentity) {
  const std::vector<Gen> stream =
      make_stream(3000, 13, trace::workload_by_name("bzip2"));
  const service::ServiceStats a = wire_run(1, 2, stream, {32});
  const service::ServiceStats b = wire_run(1, 2, stream, {32});
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.virtual_time.v, b.virtual_time.v);
  EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(NetService, ServerThreadCountIdentity) {
  // ReadDuo-Select, as tests/soak.sh drives: Hybrid's metrics at this
  // length do not depend on the shards' simulator seeds, so they would
  // not catch a shard seeded from its worker thread.
  const std::vector<Gen> stream =
      make_stream(3000, 17, trace::workload_by_name("bzip2"));
  const service::ServiceStats one =
      wire_run(1, 2, stream, {32}, readduo::SchemeKind::kSelect);
  const service::ServiceStats four =
      wire_run(4, 2, stream, {32}, readduo::SchemeKind::kSelect);
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.virtual_time.v, four.virtual_time.v);
  EXPECT_TRUE(one.metrics == four.metrics);
}

TEST(NetService, ThreeClientArrivalScheduleIdentity) {
  // Same stream, three clients, two very different socket interleavings
  // (mismatched per-client windows flip which client runs ahead). The
  // sequence merge must reassemble the identical admission order.
  //
  // Windows stay well above the liveness floor: the merge only releases
  // work up to the slowest client's watermark, so a client whose whole
  // window spans less virtual time than the worst completion latency
  // (~24us observed; window x 3 clients x 500ns gap here) would wedge
  // the run waiting on a completion the clock can never reach.
  const std::vector<Gen> stream =
      make_stream(3000, 19, trace::workload_by_name("bzip2"));
  const service::ServiceStats a = wire_run(2, 3, stream, {32, 128, 48});
  const service::ServiceStats b = wire_run(2, 3, stream, {128, 32, 96});
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.virtual_time.v, b.virtual_time.v);
  EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(NetService, StatsBlobMatchesDirectStats) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  hello(cli, 1);
  const std::vector<Gen> stream =
      make_stream(500, 23, trace::workload_by_name("bzip2"));
  EXPECT_EQ(drive_client(cli, stream, 0, 1, 32), stream.size());

  cli.send_frame(Op::kStats, 99, "");
  const Frame f = cli.recv_frame();
  ASSERT_EQ(f.type, type_of(Status::kStats));
  EXPECT_EQ(f.id, 99u);
  service::ServiceStats wire_st;
  WireServiceInfo info;
  ASSERT_TRUE(decode_stats(f.payload, wire_st, info));
  const service::ServiceStats direct = ts.server.service().stats();
  EXPECT_EQ(wire_st.completed, direct.completed);
  EXPECT_EQ(wire_st.virtual_time.v, direct.virtual_time.v);
  EXPECT_TRUE(wire_st.metrics == direct.metrics);
  EXPECT_EQ(info.shards, 4u);
}

TEST(NetService, TcpLoopback) {
  TestServer ts = make_server(1, "tcp:127.0.0.1:0");
  // Port 0 resolves to the kernel-assigned port in address().
  EXPECT_NE(ts.server.address().find("tcp:127.0.0.1:"), std::string::npos);
  Client cli = ts.connect();
  hello(cli, 1);
  const std::vector<Gen> stream =
      make_stream(300, 29, trace::workload_by_name("bzip2"));
  EXPECT_EQ(drive_client(cli, stream, 0, 1, 16), stream.size());
}

// --- protocol-state abuse ---------------------------------------------

TEST(NetService, SubmitBeforeHelloRejected) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  cli.send_frame(Op::kRead, 1, encode_request_body(RequestBody{1, 0, Ns{0}}));
  const Frame f = cli.recv_frame();
  EXPECT_EQ(f.type, type_of(Status::kBadState));
  EXPECT_FALSE(cli.recv_opt().has_value());  // server closed
}

TEST(NetService, DuplicateClientIdRejected) {
  TestServer ts = make_server(1);
  Client a = ts.connect();
  hello(a, 42);
  Client b = ts.connect();
  std::string body;
  put_u64(body, 42);
  b.send_frame(Op::kHello, 0, body);
  const Frame f = b.recv_frame();
  EXPECT_EQ(f.type, type_of(Status::kBadState));
  EXPECT_FALSE(b.recv_opt().has_value());
  // The first connection is unaffected.
  a.send_frame(Op::kStats, 1, "");
  EXPECT_EQ(a.recv_frame().type, type_of(Status::kStats));
}

TEST(NetService, ReplayedSeqIsFatal) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  hello(cli, 1);
  cli.send_frame(Op::kRead, 1, encode_request_body(RequestBody{1, 0, Ns{0}}));
  cli.send_frame(Op::kRead, 2, encode_request_body(RequestBody{1, 0, Ns{0}}));
  // First completes eventually; the replay is a protocol error that
  // closes the connection.
  bool saw_bad_seq = false;
  for (;;) {
    const std::optional<Frame> f = cli.recv_opt();
    if (!f.has_value()) break;
    if (f->type == type_of(Status::kBadSeq)) saw_bad_seq = true;
  }
  EXPECT_TRUE(saw_bad_seq);
}

TEST(NetService, SeqGapGetsRetryThenRecovers) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  hello(cli, 1);
  // seq 2 before seq 1: a gap, answered kRetry (not fatal).
  const RequestBody two{2, 7, Ns{500}};
  cli.send_frame(Op::kRead, 2, encode_request_body(two));
  const Frame r = cli.recv_frame();
  EXPECT_EQ(r.type, type_of(Status::kRetry));
  EXPECT_EQ(r.id, 2u);
  // Close the gap, then resend; both complete and drain acks.
  cli.send_frame(Op::kRead, 1, encode_request_body(RequestBody{1, 3, Ns{0}}));
  cli.send_frame(Op::kRead, 2, encode_request_body(two));
  std::string drain_body;
  put_u64(drain_body, 2);
  cli.send_frame(Op::kDrain, 9, drain_body);
  std::uint64_t dones = 0;
  for (;;) {
    const Frame f = cli.recv_frame();
    if (f.type == type_of(Status::kOk) && f.id == 9) break;
    ASSERT_EQ(f.type, type_of(Status::kDone));
    ++dones;
  }
  EXPECT_EQ(dones, 2u);
}

TEST(NetService, ResponseTypeFromClientRejected) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  std::string ok;
  encode_frame(Status::kOk, 1, "", ok);
  cli.send_raw(ok);
  const Frame f = cli.recv_frame();
  EXPECT_EQ(f.type, type_of(Status::kBadState));
  EXPECT_FALSE(cli.recv_opt().has_value());
}

// --- malformed input & disconnects ------------------------------------

TEST(NetService, GarbageBytesGetErrorAndClose) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  cli.send_raw("this is not a frame at all, not even close");
  const Frame f = cli.recv_frame();
  EXPECT_EQ(f.type, type_of(Status::kBadFrame));
  EXPECT_FALSE(cli.recv_opt().has_value());
}

TEST(NetService, CorruptCrcIsRecoverable) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  // A structurally valid hello frame with a flipped payload byte: the
  // server must answer kBadFrame and keep the connection usable.
  std::string body;
  put_u64(body, 1);
  std::string frame;
  encode_frame(Op::kHello, 0, body, frame);
  frame[kHeaderSize] ^= 0x01;
  cli.send_raw(frame);
  const Frame f = cli.recv_frame();
  EXPECT_EQ(f.type, type_of(Status::kBadFrame));
  hello(cli, 1);  // same connection, clean retry
}

TEST(NetService, HalfFrameThenCloseIsClean) {
  TestServer ts = make_server(1);
  {
    Client cli = ts.connect();
    std::string frame;
    encode_frame(Op::kHello, 0, "12345678", frame);
    cli.send_raw(frame.substr(0, kHeaderSize + 3));
    cli.close();  // mid-frame EOF
  }
  // The server survives; a new connection works end to end.
  Client cli = ts.connect();
  hello(cli, 1);
}

TEST(NetService, MidRequestDisconnectDoesNotStrandOthers) {
  TestServer ts = make_server(2);
  // Client A submits and vanishes without draining — its watermark must
  // not gate client B's admissions forever (close implies client_done).
  Client a = ts.connect();
  hello(a, 1);
  Client b = ts.connect();
  hello(b, 2);
  a.send_frame(Op::kRead, 1, encode_request_body(RequestBody{1, 5, Ns{0}}));
  a.close();
  const std::vector<Gen> stream =
      make_stream(1000, 31, trace::workload_by_name("bzip2"));
  EXPECT_EQ(drive_client(b, stream, 0, 1, 32), stream.size());
}

TEST(NetService, SlowReaderIsShedNotBlocking) {
  ServerConfig cfg;
  cfg.service = small_service(2);
  cfg.listen = unique_sock();
  cfg.write_buf_limit = 4096;  // tiny: a few hundred completions overflow
  cfg.sock_sndbuf = 4096;      // keep the kernel from absorbing the backlog
  TestServer ts(std::move(cfg));

  Client slow = ts.connect();
  hello(slow, 1);
  Client live = ts.connect();
  hello(live, 2);

  // The slow reader submits the first slice of the stream and never
  // reads a byte back. Its completions overflow the 4 KiB write-buffer
  // bound, so the server sheds the connection instead of blocking the
  // loop — and the shed implies client_done, unsticking the merge for
  // the live client.
  const std::vector<Gen> stream =
      make_stream(4000, 37, trace::workload_by_name("bzip2"));
  const std::size_t slice = 600;
  for (std::size_t i = 0; i < slice; ++i) {
    const RequestBody body{i + 1, stream[i].line, stream[i].arrival};
    slow.send_frame(stream[i].is_write ? Op::kWrite : Op::kRead, i + 1,
                    encode_request_body(body));
  }
  // The live client drives the rest of the stream to completion even
  // though the slow reader never drains its side.
  const std::vector<Gen> rest(stream.begin() + slice, stream.end());
  EXPECT_EQ(drive_client(live, rest, 0, 1, 64), rest.size());
  EXPECT_EQ(ts.server.counters().conns_shed, 1u);
  // The shed client's socket eventually reports EOF.
  while (slow.recv_opt().has_value()) {
  }
}

TEST(NetService, StopDuringActiveConnections) {
  Client cli;
  {
    TestServer ts = make_server(2);
    cli = ts.connect();
    hello(cli, 1);
    for (std::uint64_t s = 1; s <= 200; ++s) {
      cli.send_frame(
          Op::kRead, s,
          encode_request_body(
              RequestBody{s, s % 97, Ns{500 * static_cast<std::int64_t>(s)}}));
    }
    // Hard stop with requests in flight: the server (and its service,
    // with a still-gated merge buffer) must tear down without hanging.
  }
  // Whatever the server managed to send is well-framed; then EOF.
  while (cli.recv_opt().has_value()) {
  }
}

TEST(NetService, DrainAckArrivesAfterAllCompletions) {
  TestServer ts = make_server(1);
  Client cli = ts.connect();
  hello(cli, 1);
  const std::uint64_t n = 100;
  for (std::uint64_t s = 1; s <= n; ++s) {
    cli.send_frame(Op::kRead, s,
                   encode_request_body(RequestBody{s, s % 53, Ns{500 * static_cast<std::int64_t>(s)}}));
  }
  std::string drain_body;
  put_u64(drain_body, n);
  cli.send_frame(Op::kDrain, n + 1, drain_body);
  std::uint64_t dones = 0;
  for (;;) {
    const Frame f = cli.recv_frame();
    if (f.type == type_of(Status::kOk) && f.id == n + 1) break;
    if (f.type == type_of(Status::kDone)) ++dones;
  }
  EXPECT_EQ(dones, n);  // every completion precedes the ack
}

}  // namespace
}  // namespace rd::net
