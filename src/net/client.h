// Blocking client side of the wire protocol: a thin framed pipe used by
// readduo_load --connect and the loopback tests.
//
// One Client owns one connected socket. Sending appends frames (or raw
// bytes, for malformed-input tests) and writes them out fully; receiving
// incrementally decodes from an internal buffer. The client trusts the
// server's framing — a malformed inbound frame is an RD_CHECK failure,
// not a recoverable condition — but an orderly server close is a normal
// outcome (recv_opt returns nullopt), because the protocol's answer to
// several client errors *is* an error reply followed by a close.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/frame.h"

namespace rd::net {

class Client {
 public:
  Client() = default;
  /// Adopt an already-connected fd.
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { close(); }

  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking connect to "unix:<path>" / "tcp:<host>:<port>".
  static Client connect_to(const std::string& addr);

  bool connected() const { return fd_ >= 0; }

  void send_frame(Op op, std::uint64_t id, std::string_view payload);
  /// Arbitrary bytes, for protocol-robustness tests (half frames,
  /// garbage, foreign magic).
  void send_raw(std::string_view bytes);

  /// Blocking receive of the next frame; nullopt on orderly EOF.
  /// RD_CHECK-fails on an unframeable stream (the server is trusted).
  std::optional<Frame> recv_opt();
  /// recv_opt() that RD_CHECK-fails on EOF too.
  Frame recv_frame();
  /// Nonblocking: true when a complete frame was available.
  bool try_recv(Frame& out);

  void close();

 private:
  /// Read once into rbuf_. False on EOF.
  bool pump(bool block);

  int fd_ = -1;
  std::string rbuf_;
};

}  // namespace rd::net
