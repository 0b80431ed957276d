// readduo_serve — the memory service behind a socket (DESIGN.md §12).
//
//   readduo_serve --listen=unix:/tmp/rd.sock --seed=7
//   READDUO_THREADS=4 readduo_serve --listen=tcp:127.0.0.1:0 --oneshot
//
// Binds the framed wire protocol (src/net/) in front of one
// service::MemoryService and runs the poll loop until SIGINT/SIGTERM —
// or, with --oneshot, until at least one client has connected and all
// connections are gone (the harness mode: tests/soak.sh starts a server,
// points readduo_load --connect at it, and the server exits by itself
// when the load generator hangs up).
//
// The first stdout line is `READDUO_SERVE listening <addr>` with the
// resolved address (tcp port 0 is filled in), so scripts can wait for
// readiness and discover the port. Virtual-time results served over the
// wire are bit-identical to an in-process readduo_load run of the same
// (seed, scheme, workload, shards) — the sequence-merge rule in
// MemoryService makes socket arrival interleaving irrelevant.
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "cli_flags.h"
#include "common/check.h"
#include "config/loader.h"
#include "net/server.h"
#include "readduo/schemes.h"
#include "trace/workload.h"

using namespace rd;
using cli::parse_flag;

namespace {

net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "\n"
      "options:\n"
      "  --listen=<addr>   unix:<path> or tcp:<host>:<port> (port 0 =\n"
      "                    kernel-assigned; default unix:/tmp/rd.sock)\n"
      "  --scheme=<name>   Ideal | TLC | Scrubbing | Scrubbing-W0 |\n"
      "                    Scrubbing-BCH10 | M-metric | Hybrid | LWT |\n"
      "                    Select (default Hybrid)\n"
      "  --workload=<name> locality/write-mix template (default mcf)\n"
      "  --device=<file>   device config (overrides READDUO_DEVICE; a\n"
      "                    client hello naming another device is refused)\n"
      "  --seed=<n>        RNG seed (default 42)\n"
      "  --shards=<n>      chips, 1..1024 (default 4)\n"
      "  --queue=<n>       per-client admission bound\n"
      "  --max-frame=<n>   largest frame payload (>= 64; default 1 MiB)\n"
      "  --wbuf=<n>        per-connection write bound (>= 24; default 4 MiB)\n"
      "  --conns=<n>       accepted-connection cap (>= 1; default 64)\n"
      "  --oneshot         exit when the last client disconnects\n"
      "\n"
      "environment:\n"
      "  READDUO_THREADS   service worker threads\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen = "unix:/tmp/rd.sock";
  std::string scheme = "Hybrid";
  std::string workload = "mcf";
  std::string device_path;
  bool oneshot = false;
  net::ServerConfig cfg;
  std::uint64_t seed = 42;
  std::uint64_t shards = cfg.service.num_shards;
  std::uint64_t queue = cfg.service.queue_capacity;
  std::uint64_t max_frame = cfg.max_payload;
  std::uint64_t wbuf = cfg.write_buf_limit;
  std::uint64_t conns = cfg.max_conns;
  // The lower bounds are the ones net::Server checks.
  const cli::CountFlag numeric_flags[] = {
      {"--seed", 0, ULLONG_MAX, &seed},
      {"--shards", 1, cli::kMaxShards, &shards},
      {"--queue", 1, SIZE_MAX, &queue},
      {"--max-frame", net::kMinMaxPayload, SIZE_MAX, &max_frame},
      {"--wbuf", net::kHeaderSize, SIZE_MAX, &wbuf},
      {"--conns", 1, SIZE_MAX, &conns},
  };

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const cli::Match numeric = cli::parse_counts(a, numeric_flags);
    if (numeric == cli::Match::kBad) return 2;
    if (numeric == cli::Match::kParsed) continue;
    std::string v;
    if (parse_flag(a, "--listen", v)) {
      listen = v;
    } else if (parse_flag(a, "--device", v)) {
      device_path = v;
    } else if (parse_flag(a, "--scheme", v)) {
      scheme = v;
    } else if (parse_flag(a, "--workload", v)) {
      workload = v;
    } else if (std::strcmp(a, "--oneshot") == 0) {
      oneshot = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a);
      usage(argv[0]);
      return 2;
    }
  }

  // Pin the device before the service builds its chips; the --device
  // flag wins over the READDUO_DEVICE env knob.
  if (!device_path.empty()) {
    config::set_active_device(config::load_device(device_path),
                              device_path);
  }

  cfg.listen = listen;
  cfg.max_payload = static_cast<std::size_t>(max_frame);
  cfg.write_buf_limit = static_cast<std::size_t>(wbuf);
  cfg.max_conns = static_cast<std::size_t>(conns);
  cfg.service.sim.seed = seed;
  const std::optional<readduo::SchemeKind> kind =
      readduo::scheme_kind_by_name(scheme);
  RD_CHECK_MSG(kind.has_value(), "unknown scheme: " + scheme);
  cfg.service.scheme = *kind;
  cfg.service.workload = trace::workload_by_name(workload);
  cfg.service.num_shards = static_cast<unsigned>(shards);
  cfg.service.queue_capacity = static_cast<std::size_t>(queue);

  net::Server server(cfg);
  server.start();
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // lint: allow(env-registry) readiness banner, not an environment knob
  std::printf("READDUO_SERVE listening %s\n", server.address().c_str());
  std::printf(
      "[serve] scheme=%s device=%s workload=%s shards=%u threads=%u "
      "queue=%zu seed=%llu%s\n",
      scheme.c_str(), config::active_device().name.c_str(),
      workload.c_str(), server.service().num_shards(),
      server.service().worker_threads(), cfg.service.queue_capacity,
      static_cast<unsigned long long>(seed),
      oneshot ? " oneshot" : "");
  std::fflush(stdout);

  server.run(oneshot);
  g_server = nullptr;

  server.service().stop();
  const service::ServiceStats st = server.service().stats();
  const net::ServerCounters ct = server.counters();
  std::printf(
      "[serve] done: conns=%llu shed=%llu frames=%llu bad=%llu crc=%llu "
      "wire_faults=%llu retries=%llu | submitted=%llu completed=%llu "
      "vt=%.1fms\n",
      static_cast<unsigned long long>(ct.conns_accepted),
      static_cast<unsigned long long>(ct.conns_shed),
      static_cast<unsigned long long>(ct.frames_rx),
      static_cast<unsigned long long>(ct.frames_bad),
      static_cast<unsigned long long>(ct.crc_errors),
      static_cast<unsigned long long>(ct.wire_faults),
      static_cast<unsigned long long>(ct.retries_sent),
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.completed),
      static_cast<double>(st.virtual_time.v) / 1e6);
  return 0;
}
