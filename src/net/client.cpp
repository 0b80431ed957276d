#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/socket.h"

namespace rd::net {

Client::Client(Client&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), rbuf_(std::move(o.rbuf_)) {}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    rbuf_ = std::move(o.rbuf_);
  }
  return *this;
}

Client Client::connect_to(const std::string& addr) {
  return Client(rd::net::connect_to(addr));
}

void Client::send_frame(Op op, std::uint64_t id, std::string_view payload) {
  std::string out;
  encode_frame(op, id, payload, out);
  send_raw(out);
}

void Client::send_raw(std::string_view bytes) {
  RD_CHECK(connected());
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    RD_CHECK_MSG(n > 0, "send: " << std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

bool Client::pump(bool block) {
  char tmp[65536];
  for (;;) {
    const ssize_t n =
        ::recv(fd_, tmp, sizeof tmp, block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      rbuf_.append(tmp, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (!block && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // A server that sheds or tears down a connection with unread client
    // bytes in flight surfaces as RST, not FIN; both mean "peer gone".
    if (errno == ECONNRESET) return false;
    RD_CHECK_MSG(false, "recv: " << std::strerror(errno));
  }
}

std::optional<Frame> Client::recv_opt() {
  RD_CHECK(connected());
  for (;;) {
    Frame f;
    const DecodeStatus st = decode_frame(rbuf_, kDefaultMaxPayload, f);
    if (st == DecodeStatus::kFrame) return f;
    RD_CHECK_MSG(st == DecodeStatus::kNeedMore,
                 "unframeable server stream: " << decode_status_name(st));
    if (!pump(/*block=*/true)) {
      RD_CHECK_MSG(rbuf_.empty(),
                   "server closed mid-frame (" << rbuf_.size()
                                               << " dangling bytes)");
      return std::nullopt;
    }
  }
}

Frame Client::recv_frame() {
  std::optional<Frame> f = recv_opt();
  RD_CHECK_MSG(f.has_value(), "server closed the connection");
  return *std::move(f);
}

bool Client::try_recv(Frame& out) {
  RD_CHECK(connected());
  for (;;) {
    const DecodeStatus st = decode_frame(rbuf_, kDefaultMaxPayload, out);
    if (st == DecodeStatus::kFrame) return true;
    RD_CHECK_MSG(st == DecodeStatus::kNeedMore,
                 "unframeable server stream: " << decode_status_name(st));
    const std::size_t before = rbuf_.size();
    if (!pump(/*block=*/false)) return false;  // EOF: no frame
    if (rbuf_.size() == before) return false;  // nothing available yet
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace rd::net
