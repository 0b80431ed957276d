// readduo_load — closed-loop load generator for the memory service.
//
//   readduo_load --requests=1000000 --rps=2000000 --scheme=Hybrid
//   READDUO_THREADS=4 readduo_load --shards=8
//
// Replays synthetic clients against a service::MemoryService at a
// configurable *virtual* arrival rate: one submission thread generates
// reads/writes with the chosen workload's locality and write mix, stamps
// them with virtual arrival times 1/rps apart, and pushes them into the
// service's bounded shard queues (spinning on backpressure — the closed
// loop). Live p50/p95/p99 snapshots from the histogram layer print while
// the run progresses; the final READDUO_METRICS JSON summarizes the run
// (optionally duplicated to --summary=<file> for run_all_benches.sh).
//
// The latency distributions are virtual-time quantities and bit-identical
// for a fixed (seed, flags) configuration regardless
// of READDUO_THREADS or wall-clock scheduling; only the throughput lines
// (requests per wall second) vary per host.
//
// Distributed mode (--connect=<addr>, DESIGN.md §12): instead of an
// in-process service, N wire clients (--clients) drive a running
// readduo_serve over the framed protocol. The request stream is
// pregenerated with exactly the in-process draw order and split
// round-robin: client k submits requests k, k+N, ... with per-client
// seqs 1, 2, ... Because global arrivals strictly increase, the server's
// sequence-merge rule reassembles precisely the in-process admission
// order for any client count — so the final report (fetched from the
// server, cross-checked bit-exactly against the merged client-side
// completion histograms) matches an in-process run of the same seed.
#include <array>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_flags.h"
#include "common/check.h"
#include "common/rng.h"
#include "config/loader.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/wire_stats.h"
#include "readduo/schemes.h"
#include "service/memory_service.h"
#include "stats/histogram.h"
#include "stats/json.h"
#include "trace/workload.h"

using namespace rd;
using cli::parse_flag;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --requests=<n>         requests to complete (default 1000000)\n"
      "  --rps=<r>              virtual arrival rate, req/s (default 2e6)\n"
      "  --scheme=<name>        Ideal | TLC | Scrubbing | Scrubbing-W0 |\n"
      "                         Scrubbing-BCH10 | M-metric | Hybrid | LWT |\n"
      "                         Select (default Hybrid)\n"
      "  --workload=<name>      locality/write-mix template (default mcf)\n"
      "  --device=<file>        device config (overrides READDUO_DEVICE;\n"
      "                         see configs/ and docs/DEVICE_CONFIGS.md)\n"
      "  --write-fraction=<f>   override the workload's write mix, in [0, 1]\n"
      "  --seed=<n>             RNG seed (default 42)\n"
      "  --shards=<n>           chips, 1..1024 (default 4)\n"
      "  --queue=<n>            per-shard submission queue bound\n"
      "  --batch=<n>            admission batch size\n"
      "  --report-every=<n>     live report every n completions\n"
      "                         (default 100000; 0 = quiet)\n"
      "  --summary=<file>       also write the final JSON to <file>\n"
      "  --connect=<addr>       distributed mode: drive a readduo_serve\n"
      "                         at unix:<path> / tcp:<host>:<port>\n"
      "  --clients=<n>          wire clients in --connect mode, 1..256\n"
      "                         (default 1)\n"
      "  --window=<n>           per-client in-flight bound (default 256)\n"
      "  --crosscheck=<0|1>     verify server histograms against merged\n"
      "                         client-side ones (default 1)\n"
      "\n"
      "environment:\n"
      "  READDUO_THREADS            service worker threads\n",
      argv0);
}

/// {"count":..,"mean_ns":..,"p50_ns":..,...} for one latency class.
std::string class_json(const stats::LatencyHistogram& h) {
  const stats::LatencyHistogram::Snapshot s = h.snapshot();
  stats::JsonWriter j;
  j.add("count", s.count)
      .add("mean_ns", s.mean_ns)
      .add("p50_ns", s.p50_ns)
      .add("p95_ns", s.p95_ns)
      .add("p99_ns", s.p99_ns)
      .add("max_ns", static_cast<std::int64_t>(s.max_ns));
  return j.str();
}

// lint: allow(sig-seconds) wall_s is host wall-clock, not simulated time
void live_report(const service::ServiceStats& st, double wall_s,
                 std::uint64_t target) {
  const stats::LatencyHistogram::Snapshot rd =
      st.metrics.demand_reads().snapshot();
  const stats::LatencyHistogram::Snapshot wr =
      st.metrics.lat(stats::ReqClass::kDemandWrite).snapshot();
  std::printf(
      "[load] wall=%.1fs completed=%llu/%llu (%.0f%%) rps=%.0f "
      "vt=%.1fms | read p50=%.0f p95=%.0f p99=%.0f ns | "
      "write p50=%.0f p95=%.0f p99=%.0f ns\n",
      wall_s, static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(target),
      100.0 * static_cast<double>(st.completed) /
          static_cast<double>(target),
      wall_s > 0 ? static_cast<double>(st.completed) / wall_s : 0.0,
      static_cast<double>(st.virtual_time.v) / 1e6, rd.p50_ns, rd.p95_ns,
      rd.p99_ns, wr.p50_ns, wr.p95_ns, wr.p99_ns);
  std::fflush(stdout);
}

/// One pregenerated request (distributed mode). The draw order inside
/// next_request is the contract shared with the in-process loop: change
/// one and the wire/in-process bit-identity check fails.
struct GenReq {
  std::uint64_t line = 0;
  Ns arrival{0};
  bool is_write = false;
  bool archive = false;
};

GenReq next_request(Rng& rng, Ns& t, Ns gap, double write_fraction,
                    const trace::Workload& w) {
  GenReq g;
  g.arrival = t;
  t += gap;
  g.is_write = rng.bernoulli(write_fraction);
  if (!g.is_write && rng.bernoulli(w.archive_read_fraction)) {
    g.archive = true;
    g.line = w.footprint_lines +
             rng.uniform_below(std::max<std::uint64_t>(1, w.archive_lines));
  } else {
    g.line = rng.zipf(w.footprint_lines, w.zipf_s);
  }
  return g;
}

/// Client-side tallies of one wire client (its thread's exclusively).
struct WireResult {
  std::array<stats::LatencyHistogram, stats::kNumReqClasses> hist;
  std::uint64_t retries = 0;
  std::uint64_t completions = 0;
};

/// Register with the server. Every client must hello before ANY client
/// submits — the sequence merge gates releases on all registered
/// watermarks, so a late registration could interleave behind requests
/// already admitted (run_connect hellos sequentially up front).
void wire_hello(net::Client& cli, std::uint64_t client_id) {
  std::string hello;
  net::put_u64(hello, client_id);
  // Device echo: the server refuses a hello naming a different device
  // (kBadState), so a distributed run can never silently mix devices.
  const std::string& dev = config::active_device().name;
  net::put_u32(hello, static_cast<std::uint32_t>(dev.size()));
  hello += dev;
  for (;;) {
    cli.send_frame(net::Op::kHello, 0, hello);
    const net::Frame f = cli.recv_frame();
    if (f.type == net::type_of(net::Status::kOk)) break;
    // An injected wire fault can land on the hello body; resend.
    RD_CHECK_MSG(f.type == net::type_of(net::Status::kBadFrame),
                 "hello rejected by server");
  }
}

/// Drive one already-helloed wire client over its round-robin slice of
/// the stream: pipelined submission behind a bounded in-flight window
/// with kRetry/kBadFrame resends, then drain.
void run_wire_client(net::Client& cli, const std::vector<GenReq>& stream,
                     std::size_t offset, std::size_t stride,
                     std::size_t window, WireResult& out) {
  // seq -> (opcode, body) of every unacknowledged submission.
  std::map<std::uint64_t, std::pair<net::Op, net::RequestBody>> inflight;
  const auto handle = [&cli, &inflight, &out](const net::Frame& f) {
    if (f.type == net::type_of(net::Status::kDone)) {
      net::CompletionBody b;
      RD_CHECK_MSG(net::decode_completion_body(f.payload, b),
                   "malformed completion body");
      RD_CHECK(b.cls < stats::kNumReqClasses);
      out.hist[b.cls].record(Ns{b.complete.v - b.enqueue.v});
      ++out.completions;
      RD_CHECK_MSG(inflight.erase(f.id) == 1, "stray completion id");
      return;
    }
    if (f.type == net::type_of(net::Status::kRetry) ||
        f.type == net::type_of(net::Status::kBadFrame)) {
      // Backpressure, a seq gap behind a rejected frame, or an injected
      // wire fault: resend the same seq. Replies arrive in server
      // receive order, so resends re-close gaps in ascending order.
      const auto it = inflight.find(f.id);
      RD_CHECK_MSG(it != inflight.end(), "retry for unknown seq");
      ++out.retries;
      cli.send_frame(it->second.first, f.id,
                     net::encode_request_body(it->second.second));
      return;
    }
    RD_CHECK_MSG(false, "unexpected reply type "
                            << static_cast<unsigned>(f.type));
  };

  std::uint64_t seq = 0;
  for (std::size_t i = offset; i < stream.size(); i += stride) {
    const GenReq& g = stream[i];
    ++seq;
    const net::Op op = g.is_write  ? net::Op::kWrite
                       : g.archive ? net::Op::kScrub
                                   : net::Op::kRead;
    const net::RequestBody body{seq, g.line, g.arrival};
    cli.send_frame(op, seq, net::encode_request_body(body));
    inflight.emplace(seq, std::make_pair(op, body));
    while (inflight.size() >= window) handle(cli.recv_frame());
    net::Frame f;
    while (cli.try_recv(f)) handle(f);
  }
  // Drain immediately — NOT after the window empties: the tail of
  // completions only retires once the server knows every client is done
  // (nothing else advances virtual time past the last arrival). The ack
  // arrives after the outstanding completions, which `handle` keeps
  // absorbing meanwhile.
  const std::uint64_t drain_id = seq + 1;
  std::string drain_body;
  net::put_u64(drain_body, seq);
  cli.send_frame(net::Op::kDrain, drain_id, drain_body);
  bool drained = false;
  while (!drained || !inflight.empty()) {
    const net::Frame f = cli.recv_frame();
    if (f.id == drain_id) {
      if (f.type == net::type_of(net::Status::kOk)) {
        drained = true;
        continue;
      }
      // A wire fault can corrupt the drain frame itself; resend it.
      RD_CHECK_MSG(f.type == net::type_of(net::Status::kBadFrame),
                   "drain rejected by server");
      cli.send_frame(net::Op::kDrain, drain_id, drain_body);
      continue;
    }
    handle(f);
  }
}

/// Everything the distributed-mode driver needs from flag parsing.
struct ConnectRun {
  std::string addr;
  std::uint64_t requests = 0;
  double rps = 0.0;
  std::string scheme;
  std::string workload;
  double write_fraction = 0.0;
  std::uint64_t seed = 0;
  std::size_t clients = 1;
  std::size_t window = 256;
  bool crosscheck = true;
  std::string summary_path;
};

/// Distributed mode: pregenerate the exact in-process request stream,
/// split it round-robin over N wire clients, drive a readduo_serve, then
/// report from the server's stats blob — cross-checked bit-exactly
/// against the merged client-side completion histograms.
int run_connect(const ConnectRun& rc, const trace::Workload& w) {
  RD_CHECK(rc.clients >= 1);
  RD_CHECK(rc.window >= 1);
  std::printf(
      "[load] connect=%s clients=%zu window=%zu rps=%.0f "
      "write_fraction=%.3f requests=%llu seed=%llu\n",
      rc.addr.c_str(), rc.clients, rc.window, rc.rps, rc.write_fraction,
      static_cast<unsigned long long>(rc.requests),
      static_cast<unsigned long long>(rc.seed));
  std::fflush(stdout);

  // Same stream, seed, and draw order as the in-process loop. Global
  // arrivals strictly increase, so the server's (arrival, client, seq)
  // merge reassembles exactly this order for any client count.
  Rng rng(rc.seed, /*stream=*/0x10ad);
  const Ns gap{std::max<std::int64_t>(1, from_seconds(1.0 / rc.rps).v)};
  Ns t{0};
  std::vector<GenReq> stream;
  stream.reserve(rc.requests);
  for (std::uint64_t i = 0; i < rc.requests; ++i) {
    stream.push_back(next_request(rng, t, gap, rc.write_fraction, w));
  }

  const auto t0 = std::chrono::steady_clock::now();

  std::vector<net::Client> conns(rc.clients);
  for (std::size_t k = 0; k < rc.clients; ++k) {
    conns[k] = net::Client::connect_to(rc.addr);
    // Sequential hellos before any submission: every watermark must be
    // registered before the first release (see wire_hello).
    wire_hello(conns[k], /*client_id=*/k + 1);
  }
  std::vector<WireResult> results(rc.clients);
  std::vector<std::thread> threads;
  threads.reserve(rc.clients);
  for (std::size_t k = 0; k < rc.clients; ++k) {
    threads.emplace_back([&, k] {
      run_wire_client(conns[k], stream, /*offset=*/k,
                      /*stride=*/rc.clients, rc.window, results[k]);
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Every client has drained, so the server-side snapshot is final.
  conns[0].send_frame(net::Op::kStats, 0, "");
  const net::Frame sf = conns[0].recv_frame();
  RD_CHECK_MSG(sf.type == net::type_of(net::Status::kStats),
               "stats request rejected");
  service::ServiceStats st;
  net::WireServiceInfo info;
  RD_CHECK_MSG(net::decode_stats(sf.payload, st, info),
               "malformed stats blob");

  for (net::Client& c : conns) {
    c.send_frame(net::Op::kBye, 0, "");
    // Ack, then orderly server-side close.
    while (c.recv_opt().has_value()) {
    }
    c.close();
  }

  std::array<stats::LatencyHistogram, stats::kNumReqClasses> merged;
  std::uint64_t retries = 0;
  std::uint64_t completions = 0;
  for (const WireResult& r : results) {
    for (std::size_t c = 0; c < stats::kNumReqClasses; ++c) {
      merged[c].merge(r.hist[c]);
    }
    retries += r.retries;
    completions += r.completions;
  }
  RD_CHECK_MSG(completions == rc.requests,
               "wire clients lost completions");
  RD_CHECK_MSG(st.completed == rc.requests,
               "server lost requests: completed != submitted");
  if (rc.crosscheck) {
    // Demand classes (kRRead..kDemandWrite) originate only from client
    // requests, so the server's histograms must equal the merge of what
    // the clients observed — bit-exact, bucket by bucket. Internal
    // classes (conversion writes, scrub rewrites) are server-only.
    for (std::size_t c = 0; c <= static_cast<std::size_t>(
                                     stats::ReqClass::kDemandWrite);
         ++c) {
      RD_CHECK_MSG(
          merged[c] == st.metrics.lat(static_cast<stats::ReqClass>(c)),
          "wire/server histogram mismatch for class "
              << stats::req_class_name(static_cast<stats::ReqClass>(c)));
    }
  }

  // Same virtual-time field lines as the in-process report (sourced from
  // the server blob); wire-only extras carry a wire_ prefix so the
  // sweep's determinism diffs can filter them alongside wall/spins.
  stats::JsonWriter j;
  j.add("tool", std::string("readduo_load"))
      .add("scheme", rc.scheme)
      .add("device", config::active_device().name)
      .add("workload", rc.workload)
      .add("shards", info.shards)
      .add("threads", info.threads)
      .add("queue", info.queue)
      .add("batch", info.batch)
      .add("seed", rc.seed)
      .add("rps_virtual", rc.rps)
      .add("write_fraction", rc.write_fraction)
      .add("requests", rc.requests)
      .add("completed", st.completed)
      .add("rejected_submissions", st.rejected)
      .add("wire_clients", static_cast<std::uint64_t>(rc.clients))
      .add("wire_window", static_cast<std::uint64_t>(rc.window))
      .add("wire_retries", retries)
      .add("virtual_time_ns", static_cast<std::int64_t>(st.virtual_time.v))
      .add("wall_ms", wall * 1e3)
      .add("throughput_rps_wall",
           wall > 0 ? static_cast<double>(st.completed) / wall : 0.0)
      .add("scrubs", st.scrubs)
      .add("write_cancellations", st.write_cancellations)
      .add("scrub_rewrites_dropped", st.scrub_rewrites_dropped)
      .add_raw("demand_reads", class_json(st.metrics.demand_reads()));
  for (std::size_t c = 0; c < stats::kNumReqClasses; ++c) {
    const auto cls = static_cast<stats::ReqClass>(c);
    if (st.metrics.lat(cls).count() == 0) continue;
    j.add_raw(stats::req_class_name(cls), class_json(st.metrics.lat(cls)));
  }
  const std::string json = j.str();
  std::printf("READDUO_METRICS %s", json.c_str());
  if (!rc.summary_path.empty()) {
    std::ofstream out(rc.summary_path);
    RD_CHECK_MSG(out.good(), "cannot write --summary file");
    out << json;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t requests = 1'000'000;
  double rps = 2e6;
  std::string scheme = "Hybrid";
  std::string workload = "mcf";
  double write_fraction = -1.0;  // < 0: the workload's own write mix
  std::uint64_t seed = 42;
  std::uint64_t report_every = 100'000;
  std::string summary_path;
  std::string connect_addr;
  std::string device_path;
  service::ServiceConfig cfg;
  std::uint64_t shards = cfg.num_shards;
  std::uint64_t queue = cfg.queue_capacity;
  std::uint64_t batch = cfg.batch_size;
  std::uint64_t clients = 1;
  std::uint64_t window = 256;
  std::uint64_t crosscheck = 1;
  const cli::CountFlag numeric_flags[] = {
      {"--requests", 1, ULLONG_MAX, &requests},
      {"--seed", 0, ULLONG_MAX, &seed},
      {"--shards", 1, cli::kMaxShards, &shards},
      {"--queue", 1, SIZE_MAX, &queue},
      {"--batch", 1, SIZE_MAX, &batch},
      {"--report-every", 0, ULLONG_MAX, &report_every},
      {"--clients", 1, cli::kMaxClients, &clients},
      {"--window", 1, SIZE_MAX, &window},
      {"--crosscheck", 0, 1, &crosscheck},
  };

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const cli::Match numeric = cli::parse_counts(a, numeric_flags);
    if (numeric == cli::Match::kBad) return 2;
    if (numeric == cli::Match::kParsed) continue;
    std::string v;
    if (parse_flag(a, "--rps", v)) {
      // One arrival per clock tick: a faster rate would still space
      // arrivals 1 ns apart.
      if (!cli::parse_real("--rps", v, 0.0, 1.0 / Ns{1}.seconds(),
                           /*lo_open=*/true, rps)) {
        return 2;
      }
    } else if (parse_flag(a, "--write-fraction", v)) {
      if (!cli::parse_real("--write-fraction", v, 0.0, 1.0,
                           /*lo_open=*/false, write_fraction)) {
        return 2;
      }
    } else if (parse_flag(a, "--device", v)) {
      device_path = v;
    } else if (parse_flag(a, "--scheme", v)) {
      scheme = v;
    } else if (parse_flag(a, "--workload", v)) {
      workload = v;
    } else if (parse_flag(a, "--summary", v)) {
      summary_path = v;
    } else if (parse_flag(a, "--connect", v)) {
      connect_addr = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a);
      usage(argv[0]);
      return 2;
    }
  }
  // Arrivals are 1/rps apart (rounded to whole ns) on the int64 ns clock;
  // the last one must still fit on it.
  const double span_s =
      static_cast<double>(requests) * (1.0 / rps + Ns{1}.seconds());
  if (!(span_s < Ns{std::numeric_limits<std::int64_t>::max()}.seconds())) {
    std::fprintf(stderr,
                 "--rps: %g req/s places %llu arrivals beyond the int64 ns "
                 "clock\n",
                 rps, static_cast<unsigned long long>(requests));
    return 2;
  }

  // Pin the device before any simulation object latches it; the --device
  // flag wins over the READDUO_DEVICE env knob.
  if (!device_path.empty()) {
    config::set_active_device(config::load_device(device_path),
                              device_path);
  }

  const trace::Workload& w = trace::workload_by_name(workload);
  if (write_fraction < 0.0) {
    write_fraction = w.wpki / (w.rpki + w.wpki);
  }

  if (!connect_addr.empty()) {
    ConnectRun rc;
    rc.addr = connect_addr;
    rc.requests = requests;
    rc.rps = rps;
    rc.scheme = scheme;
    rc.workload = workload;
    rc.write_fraction = write_fraction;
    rc.seed = seed;
    rc.clients = static_cast<std::size_t>(clients);
    rc.window = static_cast<std::size_t>(window);
    rc.crosscheck = crosscheck != 0;
    rc.summary_path = summary_path;
    return run_connect(rc, w);
  }

  cfg.sim.seed = seed;
  const std::optional<readduo::SchemeKind> kind =
      readduo::scheme_kind_by_name(scheme);
  RD_CHECK_MSG(kind.has_value(), "unknown scheme: " + scheme);
  cfg.scheme = *kind;
  cfg.workload = w;
  cfg.num_shards = static_cast<unsigned>(shards);
  cfg.queue_capacity = static_cast<std::size_t>(queue);
  cfg.batch_size = static_cast<std::size_t>(batch);

  service::MemoryService svc(cfg);
  std::printf(
      "[load] scheme=%s workload=%s shards=%u threads=%u queue=%zu "
      "batch=%zu rps=%.0f write_fraction=%.3f requests=%llu seed=%llu\n",
      scheme.c_str(), workload.c_str(), svc.num_shards(),
      svc.worker_threads(), cfg.queue_capacity, cfg.batch_size, rps,
      write_fraction, static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(seed));

  // Client-side draws use their own decorrelated stream so the request
  // sequence is a pure function of the seed.
  Rng rng(seed, /*stream=*/0x10ad);
  const Ns gap{std::max<std::int64_t>(1, from_seconds(1.0 / rps).v)};
  const auto t0 = std::chrono::steady_clock::now();
  auto wall_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  Ns t{0};
  std::uint64_t backpressure_spins = 0;
  std::uint64_t next_report = report_every;
  for (std::uint64_t i = 1; i <= requests; ++i) {
    const GenReq g = next_request(rng, t, gap, write_fraction, w);
    service::Request r;
    r.id = i;
    r.arrival = g.arrival;
    r.is_write = g.is_write;
    r.archive = g.archive;
    r.line = g.line;
    while (!svc.submit(r)) {
      // Closed loop: a full shard queue pushes back on the client.
      ++backpressure_spins;
      std::this_thread::yield();
    }
    if (report_every > 0 && i >= next_report) {
      const service::ServiceStats st = svc.stats();
      live_report(st, wall_s(), requests);
      next_report = i + report_every;
    }
  }
  svc.drain();
  const service::ServiceStats st = svc.stats();
  live_report(st, wall_s(), requests);
  svc.stop();
  const double wall = wall_s();

  RD_CHECK_MSG(st.completed == requests,
               "service lost requests: completed != submitted");

  stats::JsonWriter j;
  j.add("tool", std::string("readduo_load"))
      .add("scheme", scheme)
      .add("device", config::active_device().name)
      .add("workload", workload)
      .add("shards", static_cast<std::uint64_t>(svc.num_shards()))
      .add("threads", static_cast<std::uint64_t>(svc.worker_threads()))
      .add("queue", static_cast<std::uint64_t>(cfg.queue_capacity))
      .add("batch", static_cast<std::uint64_t>(cfg.batch_size))
      .add("seed", seed)
      .add("rps_virtual", rps)
      .add("write_fraction", write_fraction)
      .add("requests", requests)
      .add("completed", st.completed)
      .add("rejected_submissions", st.rejected)
      .add("backpressure_spins", backpressure_spins)
      .add("virtual_time_ns",
           static_cast<std::int64_t>(st.virtual_time.v))
      .add("wall_ms", wall * 1e3)
      .add("throughput_rps_wall",
           wall > 0 ? static_cast<double>(st.completed) / wall : 0.0)
      .add("scrubs", st.scrubs)
      .add("write_cancellations", st.write_cancellations)
      .add("scrub_rewrites_dropped", st.scrub_rewrites_dropped)
      .add_raw("demand_reads", class_json(st.metrics.demand_reads()));
  for (std::size_t c = 0; c < stats::kNumReqClasses; ++c) {
    const auto cls = static_cast<stats::ReqClass>(c);
    if (st.metrics.lat(cls).count() == 0) continue;
    j.add_raw(stats::req_class_name(cls), class_json(st.metrics.lat(cls)));
  }
  const std::string json = j.str();
  std::printf("READDUO_METRICS %s", json.c_str());
  if (!summary_path.empty()) {
    std::ofstream out(summary_path);
    RD_CHECK_MSG(out.good(), "cannot write --summary file");
    out << json;
  }
  return 0;
}
