// The readduo_serve event loop: a poll-driven socket front end over one
// MemoryService (DESIGN.md §12).
//
// Single-threaded by construction: one thread owns run(), every
// connection's buffers, and the frame dispatch; the MemoryService's own
// worker pool does the simulation work. The loop never blocks on a
// client — reads and writes are nonblocking against per-connection
// bounded buffers, a slow reader that exceeds the write-buffer bound is
// shed (its connection closed) rather than allowed to stall the loop,
// and admission-queue backpressure surfaces as an explicit kRetry reply.
// Completions harvested by service workers wake the loop through a
// self-pipe (ServiceConfig::completion_hook), so poll() sleeps with no
// timeout and no busy-wait — and, per the no-wallclock rule, the server
// never reads a host clock: all timing in the system stays virtual.
//
// stop() is async-signal-safe (an atomic store plus a pipe write), so
// tools can call it from SIGINT/SIGTERM handlers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "net/frame.h"
#include "service/memory_service.h"

namespace rd::net {

/// Smallest accepted ServerConfig::max_payload: every fixed body fits.
inline constexpr std::size_t kMinMaxPayload = 64;

/// Server knobs. readduo_serve sets the three wire bounds from
/// --max-frame, --wbuf and --conns.
struct ServerConfig {
  service::ServiceConfig service;
  /// "unix:<path>" or "tcp:<host>:<port>" (socket.h).
  std::string listen = "unix:/tmp/readduo_serve.sock";
  /// Largest accepted frame payload; larger length fields are a fatal
  /// framing error. At least kMinMaxPayload.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Per-connection write-buffer bound; a reader slower than this sheds
  /// (at least kHeaderSize).
  std::size_t write_buf_limit = 4u << 20;
  /// Accepted-connection cap; excess connects wait in the listen backlog
  /// (at least 1).
  std::size_t max_conns = 64;
  /// SO_SNDBUF for accepted connections; 0 keeps the OS default. Tests
  /// shrink it so a slow reader backs up into write_buf_limit quickly.
  std::size_t sock_sndbuf = 0;
};

/// Monotonic wire counters (relaxed atomics: written by the run()
/// thread, readable from anywhere).
struct ServerCounters {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_shed = 0;     ///< closed for write-buffer overflow
  std::uint64_t frames_rx = 0;      ///< well-formed frames dispatched
  std::uint64_t frames_bad = 0;     ///< rejected (framing, CRC, body)
  std::uint64_t crc_errors = 0;     ///< subset of frames_bad
  std::uint64_t wire_faults = 0;    ///< injected by the wire fault clause
  std::uint64_t retries_sent = 0;   ///< kRetry backpressure replies
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. Throws rd::CheckFailure on failure.
  void start();

  /// Resolved listen address (tcp port filled in). Valid after start().
  const std::string& address() const { return bound_; }

  /// The poll loop; returns after stop(), or — with `oneshot` — once at
  /// least one connection was accepted and all of them have gone.
  void run(bool oneshot = false);

  /// Ask run() to return. Callable from any thread or a signal handler.
  void stop();

  service::MemoryService& service() { return *svc_; }
  ServerCounters counters() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;  ///< key in conns_
    std::string rbuf;
    std::string wbuf;
    bool helloed = false;
    std::uint64_t client_id = 0;
    bool finished = false;       ///< client_done sent; data ops rejected
    bool drain_pending = false;  ///< kDrain seen, ack not yet sent
    std::uint64_t drain_reply_id = 0;
    std::uint64_t drain_final_seq = 0;  ///< from the kDrain payload
    std::uint64_t seq_accepted = 0;     ///< highest kAccepted seq (dense)
    bool close_after_flush = false;
    bool input_dead = false;  ///< fatal framing error; stop parsing
    std::uint64_t outstanding = 0;  ///< accepted, completion not yet sent
    std::uint64_t frames_rx = 0;    ///< wire fault-injection serial
  };

  /// A request admitted into the service, waiting for its completion.
  struct InFlight {
    std::uint64_t conn_serial = 0;
    std::uint64_t wire_id = 0;
  };

  void wake();
  void accept_new();
  /// Drain readable bytes into rbuf; false on EOF / hard error.
  bool fill(Conn& c);
  void process_rbuf(Conn& c);
  void handle_frame(Conn& c, const Frame& f);
  void reply(Conn& c, Status st, std::uint64_t id, std::string_view payload);
  /// Reply and mark the connection for a clean close.
  void protocol_error(Conn& c, Status st, std::uint64_t id,
                      std::string_view reason);
  /// Once every seq through drain_final_seq is accepted, declare the
  /// client done to the service; ack the drain when the last completion
  /// has also been queued for sending.
  void maybe_finish_drain(Conn& c);
  /// Route retained completions to their connections' write buffers.
  void pump_completions();
  /// False on hard send error (peer gone).
  bool flush(Conn& c);
  void close_conn(std::uint64_t serial);

  ServerConfig cfg_;
  std::unique_ptr<service::MemoryService> svc_;
  std::string bound_;
  std::string unlink_path_;  ///< unix socket file to remove on teardown
  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  bool saw_conn_ = false;  ///< oneshot latch (run() thread only)

  std::uint64_t next_conn_serial_ = 1;
  std::uint64_t next_svc_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;
  std::map<std::uint64_t, InFlight> inflight_;  ///< by service request id

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> conns_shed_{0};
  std::atomic<std::uint64_t> frames_rx_{0};
  std::atomic<std::uint64_t> frames_bad_{0};
  std::atomic<std::uint64_t> crc_errors_{0};
  std::atomic<std::uint64_t> wire_faults_{0};
  std::atomic<std::uint64_t> retries_sent_{0};
};

}  // namespace rd::net
