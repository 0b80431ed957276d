#include "pb/wire_session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/check.h"
#include "config/loader.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire_stats.h"

namespace pb {
namespace {

namespace net = rd::net;

/// A connected socket with a receive buffer; closes on destruction.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      RD_CHECK_MSG(n > 0, "send: " << std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
  }

  /// Append available bytes to the buffer; with `block`, wait for some.
  /// False when nothing arrived without blocking.
  bool pump(bool block) {
    char tmp[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, block ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        rbuf.append(tmp, static_cast<std::size_t>(n));
        return true;
      }
      RD_CHECK_MSG(n != 0, "server closed the connection");
      if (errno == EINTR) continue;
      if (!block && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      RD_CHECK_MSG(false, "recv: " << std::strerror(errno));
    }
  }

  std::string rbuf;

 private:
  int fd_;
};

std::string encode(net::Op op, std::uint64_t id, std::string_view payload) {
  std::string out;
  net::encode_frame(op, id, payload, out);
  return out;
}

/// Block until one frame is decoded (the server is trusted to frame).
net::Frame recv_frame(Conn& c, Tracer& tr) {
  for (;;) {
    net::Frame f;
    net::DecodeStatus st;
    {
      Tracer::Span s(tr, "net.decode");
      st = net::decode_frame(c.rbuf, net::kDefaultMaxPayload, f);
    }
    if (st == net::DecodeStatus::kFrame) return f;
    RD_CHECK_MSG(st == net::DecodeStatus::kNeedMore,
                 "unframeable server stream: " << net::decode_status_name(st));
    Tracer::Span s(tr, "net.recv_wait");
    c.pump(/*block=*/true);
  }
}

void hello(Conn& c, std::uint64_t client_id, Tracer& tr) {
  Tracer::Span s(tr, "net.hello");
  std::string body;
  net::put_u64(body, client_id);
  const std::string& dev = rd::config::active_device().name;
  net::put_u32(body, static_cast<std::uint32_t>(dev.size()));
  body += dev;
  c.send_all(encode(net::Op::kHello, 0, body));
  const net::Frame f = recv_frame(c, tr);
  RD_CHECK_MSG(f.type == net::type_of(net::Status::kOk),
               "hello rejected by server");
}

int connect(const std::string& addr, Tracer& tr) {
  Tracer::Span s(tr, "net.connect");
  return net::connect_to(addr);
}

}  // namespace

SessionResult run_session(const std::string& addr, std::uint64_t client_id,
                          const std::vector<rd::service::Request>& reqs,
                          Tracer& tr) {
  SessionResult out;
  Conn c(connect(addr, tr));
  hello(c, client_id, tr);

  // Per seq (1-based): 0 = not sent, 1 = in flight, 2 = completed.
  std::vector<std::uint8_t> state(reqs.size() + 1, 0);
  std::size_t inflight = 0;
  const std::uint64_t n = reqs.size();
  const std::uint64_t drain_id = n + 1;
  bool drained = false;

  const auto op_of = [&reqs](std::uint64_t seq) {
    const rd::service::Request& q = reqs[seq - 1];
    return q.is_write ? net::Op::kWrite
           : q.archive ? net::Op::kScrub
                       : net::Op::kRead;
  };
  // Encoded frames not yet written; sent kSendChunk at a time.
  std::string pending;
  const auto encode_req = [&](std::uint64_t seq) {
    Tracer::Span s(tr, "net.encode");
    const rd::service::Request& q = reqs[seq - 1];
    net::encode_frame(op_of(seq), seq,
                      net::encode_request_body({seq, q.line, q.arrival}),
                      pending);
  };
  const auto flush = [&] {
    Tracer::Span s(tr, "net.send");
    c.send_all(pending);
    pending.clear();
  };
  const auto send_req = [&](std::uint64_t seq) {
    encode_req(seq);
    flush();
  };
  const auto handle = [&](const net::Frame& f) {
    if (f.id == drain_id && f.type == net::type_of(net::Status::kOk)) {
      drained = true;
      return;
    }
    if (f.type == net::type_of(net::Status::kDone)) {
      net::CompletionBody b;
      if (!net::decode_completion_body(f.payload, b) ||
          b.cls >= rd::stats::kNumReqClasses || f.id == 0 || f.id > n ||
          state[f.id] != 1) {
        ++out.bad_replies;
        return;
      }
      state[f.id] = 2;
      --inflight;
      ++out.completions;
      out.hist[b.cls].record(rd::Ns{b.complete.v - b.enqueue.v});
      return;
    }
    if ((f.type == net::type_of(net::Status::kRetry) ||
         f.type == net::type_of(net::Status::kBadFrame)) &&
        f.id >= 1 && f.id <= n && state[f.id] == 1) {
      ++out.retries;
      send_req(f.id);
      return;
    }
    ++out.bad_replies;
    RD_CHECK_MSG(f.type != net::type_of(net::Status::kBadSeq),
                 "server refused the session's sequence");
  };
  // Decode whatever has arrived, without waiting.
  const auto poll = [&] {
    for (;;) {
      if (c.rbuf.size() < net::kHeaderSize) {
        if (!c.pump(/*block=*/false)) return;
        continue;
      }
      net::Frame f;
      net::DecodeStatus st;
      {
        Tracer::Span s(tr, "net.decode");
        st = net::decode_frame(c.rbuf, net::kDefaultMaxPayload, f);
      }
      if (st == net::DecodeStatus::kFrame) {
        handle(f);
        continue;
      }
      RD_CHECK_MSG(st == net::DecodeStatus::kNeedMore,
                   "unframeable server stream");
      if (!c.pump(/*block=*/false)) return;
    }
  };

  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    encode_req(seq);
    state[seq] = 1;
    ++inflight;
    if (seq % kSendChunk != 0 && seq != n && inflight < kWindow) continue;
    flush();
    poll();
    while (inflight >= kWindow) handle(recv_frame(c, tr));
  }
  // Drain at once: the tail completes only when the server learns this
  // client is done (nothing else advances virtual time past its last
  // arrival).
  std::string body;
  net::put_u64(body, n);
  c.send_all(encode(net::Op::kDrain, drain_id, body));
  while (!drained || inflight > 0) handle(recv_frame(c, tr));
  return out;
}

bool fetch_stats(const std::string& addr, std::uint64_t client_id,
                 rd::service::ServiceStats& st) {
  Tracer off(false);
  Conn c(connect(addr, off));
  hello(c, client_id, off);
  c.send_all(encode(net::Op::kStats, 0, ""));
  const net::Frame f = recv_frame(c, off);
  // Finish as a client that submitted nothing, so the sequence merge
  // stops waiting on this connection before the next session starts.
  std::string body;
  net::put_u64(body, 0);
  c.send_all(encode(net::Op::kDrain, 1, body));
  const net::Frame ack = recv_frame(c, off);
  net::WireServiceInfo info;
  return f.type == net::type_of(net::Status::kStats) &&
         ack.type == net::type_of(net::Status::kOk) &&
         net::decode_stats(f.payload, st, info);
}

}  // namespace pb
