#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <set>
#include <vector>

#include "common/check.h"
#include "config/loader.h"
#include "faults/injector.h"
#include "net/socket.h"
#include "net/wire_stats.h"

namespace rd::net {

Server::Server(const ServerConfig& cfg) : cfg_(cfg) {
  RD_CHECK(cfg_.max_payload >= kMinMaxPayload);
  RD_CHECK(cfg_.write_buf_limit >= kHeaderSize);
  RD_CHECK(cfg_.max_conns >= 1);
  int p[2];
  RD_CHECK_MSG(::pipe(p) == 0, "pipe: wake channel");
  wake_r_ = p[0];
  wake_w_ = p[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);
  // The wake pipe must outlive the service workers (the hook writes to
  // it), so it is created first and closed last (see ~Server).
  service::ServiceConfig sc = cfg_.service;
  sc.retain_completions = true;
  sc.completion_hook = [this] { wake(); };
  svc_ = std::make_unique<service::MemoryService>(sc);
}

Server::~Server() {
  for (auto& [serial, c] : conns_) {
    (void)serial;
    ::close(c.fd);
  }
  conns_.clear();
  // Stop the workers before the wake pipe goes away: the completion hook
  // must never write to a closed (possibly reused) descriptor.
  svc_->stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  ::close(wake_r_);
  ::close(wake_w_);
}

void Server::start() {
  RD_CHECK_MSG(listen_fd_ < 0, "start() called twice");
  const ParsedAddr addr = parse_addr(cfg_.listen);
  listen_fd_ = listen_on(addr, bound_);
  if (addr.is_unix) unlink_path_ = addr.path;
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() {
  const char b = 1;
  // A full pipe already holds a pending wakeup; EBADF cannot happen (the
  // service stops before the pipe closes).
  (void)!::write(wake_w_, &b, 1);
}

ServerCounters Server::counters() const {
  ServerCounters ct;
  ct.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  ct.conns_shed = conns_shed_.load(std::memory_order_relaxed);
  ct.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  ct.frames_bad = frames_bad_.load(std::memory_order_relaxed);
  ct.crc_errors = crc_errors_.load(std::memory_order_relaxed);
  ct.wire_faults = wire_faults_.load(std::memory_order_relaxed);
  ct.retries_sent = retries_sent_.load(std::memory_order_relaxed);
  return ct;
}

void Server::accept_new() {
  while (conns_.size() < cfg_.max_conns) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: poll again
    }
    set_nonblocking(fd);
    if (cfg_.sock_sndbuf > 0) {
      const int v = static_cast<int>(cfg_.sock_sndbuf);
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
    }
    Conn c;
    c.fd = fd;
    c.serial = next_conn_serial_++;
    conns_.emplace(c.serial, std::move(c));
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    saw_conn_ = true;
  }
}

bool Server::fill(Conn& c) {
  char tmp[65536];
  const ssize_t n = ::recv(c.fd, tmp, sizeof tmp, 0);
  if (n > 0) {
    c.rbuf.append(tmp, static_cast<std::size_t>(n));
    return true;
  }
  if (n == 0) return false;  // orderly EOF
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

void Server::reply(Conn& c, Status st, std::uint64_t id,
                   std::string_view payload) {
  encode_frame(st, id, payload, c.wbuf);
}

void Server::protocol_error(Conn& c, Status st, std::uint64_t id,
                            std::string_view reason) {
  frames_bad_.fetch_add(1, std::memory_order_relaxed);
  reply(c, st, id, reason);
  c.close_after_flush = true;
  c.input_dead = true;
}

void Server::process_rbuf(Conn& c) {
  while (!c.input_dead) {
    std::size_t total = 0;
    const DecodeStatus ext = frame_extent(c.rbuf, cfg_.max_payload, total);
    if (ext == DecodeStatus::kNeedMore) return;
    if (decode_is_fatal(ext)) {
      // The stream is unframeable (trailing garbage, foreign protocol,
      // oversize length): answer once and close — no resync heuristic.
      protocol_error(c, Status::kBadFrame, 0, decode_status_name(ext));
      return;
    }
    // One frame's bytes are fully present. Wire fault-injection seam:
    // corruption lands on the payload region only, so the CRC check
    // below — not a framing failure — is what catches it.
    ++c.frames_rx;
    if (total > kHeaderSize) {
      if (const faults::FaultEngine* fe = faults::engine()) {
        if (fe->wire_corrupt(&c.rbuf[kHeaderSize], total - kHeaderSize,
                             c.frames_rx)) {
          wire_faults_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    Frame f;
    const DecodeStatus st = decode_frame(c.rbuf, cfg_.max_payload, f);
    if (st == DecodeStatus::kBadCrc) {
      frames_bad_.fetch_add(1, std::memory_order_relaxed);
      crc_errors_.fetch_add(1, std::memory_order_relaxed);
      // Recoverable: the frame was consumed; the client resends this seq.
      reply(c, Status::kBadFrame, f.id, "bad-crc");
      continue;
    }
    RD_CHECK(st == DecodeStatus::kFrame);
    frames_rx_.fetch_add(1, std::memory_order_relaxed);
    handle_frame(c, f);
  }
}

void Server::handle_frame(Conn& c, const Frame& f) {
  if (is_response(f.type)) {
    protocol_error(c, Status::kBadState, f.id, "response type from client");
    return;
  }
  const Op op = static_cast<Op>(f.type);
  switch (op) {
    case Op::kHello: {
      PayloadReader r(f.payload);
      const std::uint64_t id = r.u64();
      // Optional device echo (u32 length + bytes): reject a client built
      // against a different device config, so a distributed run can
      // never silently mix devices. A bare 8-byte hello skips the check.
      std::string client_dev;
      if (r.ok() && !r.done()) {
        const std::uint32_t n = r.u32();
        client_dev = std::string(r.str(n));
      }
      if (!r.done() || id == 0) {
        protocol_error(c, Status::kBadFrame, f.id, "bad hello body");
        return;
      }
      const std::string& server_dev = config::active_device().name;
      if (!client_dev.empty() && client_dev != server_dev) {
        protocol_error(c, Status::kBadState, f.id,
                       "device mismatch: server runs " + server_dev);
        return;
      }
      if (c.helloed || !svc_->register_client(id)) {
        protocol_error(c, Status::kBadState, f.id, "hello rejected");
        return;
      }
      c.helloed = true;
      c.client_id = id;
      // The ack names the server's device so clients can report it.
      reply(c, Status::kOk, f.id, server_dev);
      return;
    }
    case Op::kRead:
    case Op::kWrite:
    case Op::kScrub: {
      RequestBody b;
      if (!decode_request_body(f.payload, b)) {
        protocol_error(c, Status::kBadFrame, f.id, "bad request body");
        return;
      }
      if (!c.helloed || c.finished) {
        protocol_error(c, Status::kBadState, f.id, "hello/drain state");
        return;
      }
      if (c.drain_pending && b.seq > c.drain_final_seq) {
        protocol_error(c, Status::kBadState, f.id, "submit past drain");
        return;
      }
      service::Request req;
      req.id = next_svc_id_++;
      req.line = b.line;
      req.arrival = b.arrival;
      req.is_write = op == Op::kWrite;
      req.archive = op == Op::kScrub;
      switch (svc_->submit_sequenced(c.client_id, b.seq, req)) {
        case service::SubmitStatus::kAccepted:
          inflight_.emplace(req.id, InFlight{c.serial, f.id});
          ++c.outstanding;
          c.seq_accepted = b.seq;  // accepted seqs are dense: last + 1
          if (c.drain_pending) maybe_finish_drain(c);
          return;
        case service::SubmitStatus::kQueueFull:
        case service::SubmitStatus::kOutOfOrder:
          retries_sent_.fetch_add(1, std::memory_order_relaxed);
          reply(c, Status::kRetry, f.id, "");
          return;
        case service::SubmitStatus::kBadSeq:
          protocol_error(c, Status::kBadSeq, f.id, "sequence violation");
          return;
      }
      return;
    }
    case Op::kStats: {
      if (!f.payload.empty()) {
        protocol_error(c, Status::kBadFrame, f.id, "stats takes no payload");
        return;
      }
      if (!c.helloed) {
        protocol_error(c, Status::kBadState, f.id, "stats before hello");
        return;
      }
      WireServiceInfo info;
      info.shards = svc_->num_shards();
      info.queue = cfg_.service.queue_capacity;
      info.threads = svc_->worker_threads();
      reply(c, Status::kStats, f.id, encode_stats(svc_->stats(), info));
      return;
    }
    case Op::kDrain: {
      PayloadReader r(f.payload);
      const std::uint64_t final_seq = r.u64();
      if (!r.done()) {
        protocol_error(c, Status::kBadFrame, f.id, "bad drain body");
        return;
      }
      if (!c.helloed || c.finished || c.drain_pending ||
          final_seq < c.seq_accepted) {
        protocol_error(c, Status::kBadState, f.id, "drain state");
        return;
      }
      c.drain_pending = true;
      c.drain_reply_id = f.id;
      c.drain_final_seq = final_seq;
      maybe_finish_drain(c);
      return;
    }
    case Op::kBye: {
      if (!f.payload.empty()) {
        protocol_error(c, Status::kBadFrame, f.id, "bye takes no payload");
        return;
      }
      if (c.helloed && !c.finished) svc_->client_done(c.client_id);
      c.finished = true;
      reply(c, Status::kOk, f.id, "");
      c.close_after_flush = true;
      c.input_dead = true;
      return;
    }
  }
  protocol_error(c, Status::kError, f.id, "unknown opcode");
}

void Server::maybe_finish_drain(Conn& c) {
  if (!c.drain_pending) return;
  if (!c.finished) {
    // Retried seqs may still be arriving; only a dense prefix through
    // final_seq closes the client's admission stream.
    if (c.seq_accepted != c.drain_final_seq) return;
    svc_->client_done(c.client_id);
    c.finished = true;
  }
  if (c.outstanding == 0) {
    c.drain_pending = false;
    reply(c, Status::kOk, c.drain_reply_id, "");
  }
}

void Server::pump_completions() {
  for (const service::MemoryService::Completion& done :
       svc_->take_completions()) {
    const auto it = inflight_.find(done.id);
    if (it == inflight_.end()) continue;  // foreign (in-process) submitter
    const InFlight flight = it->second;
    inflight_.erase(it);
    const auto cit = conns_.find(flight.conn_serial);
    if (cit == conns_.end()) continue;  // client disconnected mid-request
    Conn& c = cit->second;
    RD_CHECK(c.outstanding > 0);
    --c.outstanding;
    CompletionBody body;
    body.cls = static_cast<std::uint8_t>(done.cls);
    body.enqueue = done.enqueue_time;
    body.complete = done.complete_time;
    reply(c, Status::kDone, flight.wire_id, encode_completion_body(body));
    if (c.drain_pending) maybe_finish_drain(c);
  }
}

bool Server::flush(Conn& c) {
  while (!c.wbuf.empty()) {
    const ssize_t n =
        ::send(c.fd, c.wbuf.data(), c.wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void Server::close_conn(std::uint64_t serial) {
  const auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  // Unstick the sequence merge: a vanished client must not gate other
  // clients' admissions forever.
  if (it->second.helloed) svc_->client_done(it->second.client_id);
  ::close(it->second.fd);
  conns_.erase(it);
}

void Server::run(bool oneshot) {
  RD_CHECK_MSG(listen_fd_ >= 0, "Server::run before start()");
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> order;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{wake_r_, POLLIN, 0});
    const bool can_accept = conns_.size() < cfg_.max_conns;
    if (can_accept) pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [serial, c] : conns_) {
      short events = 0;
      if (!c.input_dead) events |= POLLIN;
      if (!c.wbuf.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{c.fd, events, 0});
      order.push_back(serial);
    }
    const int rc =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      RD_CHECK_MSG(errno == EINTR, "poll: " << errno);
      continue;
    }
    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    if (can_accept && (pfds[1].revents & POLLIN)) accept_new();

    const std::size_t base = can_accept ? 2 : 1;
    std::set<std::uint64_t> dead;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const short rev = pfds[base + i].revents;
      if (rev == 0) continue;
      Conn& c = conns_.at(order[i]);
      if (rev & (POLLERR | POLLNVAL)) {
        dead.insert(order[i]);
        continue;
      }
      // POLLHUP can still carry buffered bytes; read them out — fill()
      // reports the EOF once the kernel buffer is empty.
      if (rev & (POLLIN | POLLHUP)) {
        if (!fill(c)) {
          dead.insert(order[i]);
          continue;
        }
        process_rbuf(c);
      }
    }

    pump_completions();

    for (auto& [serial, c] : conns_) {
      if (dead.count(serial)) continue;
      if (c.wbuf.size() > cfg_.write_buf_limit) {
        // Slow reader: its backlog, its problem. Shedding (not blocking)
        // keeps every other client's completions flowing.
        conns_shed_.fetch_add(1, std::memory_order_relaxed);
        dead.insert(serial);
        continue;
      }
      if (!flush(c)) {
        dead.insert(serial);
        continue;
      }
      if (c.close_after_flush && c.wbuf.empty()) dead.insert(serial);
    }
    for (const std::uint64_t serial : dead) close_conn(serial);

    if (oneshot && saw_conn_ && conns_.empty()) return;
  }
}

}  // namespace rd::net
