// Wire framing for the memory service (DESIGN.md §12).
//
// Every message on a readduo_serve connection — request or response — is
// one frame: a fixed 24-byte little-endian header followed by an opaque
// payload whose integrity is pinned by a CRC32.
//
//   offset  size  field
//        0     2  magic 0x5244 ("RD" little-endian)
//        2     1  protocol version (kVersion)
//        3     1  type: an Op (requests, < 0x80) or Status (responses)
//        4     4  payload length (bounded by the decoder's max_payload)
//        8     8  request id, echoed verbatim in every response
//       16     4  CRC32 (IEEE, reflected) of the payload bytes
//       20     4  reserved, must be zero
//       24     …  payload
//
// The decoder is a strict incremental parser over a byte buffer: it
// either produces a frame, asks for more bytes, or reports *why* the
// prefix can never become a frame. The failure taxonomy matters for
// robustness (tests/test_wire.cpp): a CRC mismatch still has a trustable
// length field, so the connection can consume the frame, answer
// kBadFrame and carry on; every other failure means the stream is
// unframeable and the only safe move is an error reply and a close —
// there is no resync heuristic, by design.
//
// All multi-byte fields are little-endian and written byte by byte, so
// the codec is identical on any host (no struct punning, no UB — the
// codec corpus runs under the UBSan gate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.h"

namespace rd::net {

inline constexpr std::uint16_t kMagic = 0x5244;  // "RD"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
/// Default payload bound (readduo_serve --max-frame overrides it).
inline constexpr std::size_t kDefaultMaxPayload = 1u << 20;

/// Request opcodes (client -> server). Values < 0x80.
enum class Op : std::uint8_t {
  kHello = 1,  ///< payload: u64 client id (nonzero); must be first.
               ///< Optionally followed by u32 length + that many bytes
               ///< naming the client's device config; the server rejects
               ///< a mismatch (kBadState) and its kOk ack carries the
               ///< server's device name. A bare 8-byte hello skips the
               ///< check (pre-device-zoo clients).
  kRead = 2,   ///< payload: u64 seq, u64 line, i64 arrival (virtual ns)
  kWrite = 3,  ///< payload: as kRead
  kScrub = 4,  ///< payload: as kRead; an archive-mode (M-sense) read
  kStats = 5,  ///< payload: empty; allowed any time after kHello
  kDrain = 6,  ///< payload: u64 final seq (0 = none submitted). The ack
               ///< waits until every seq through final is accepted
               ///< (retries may still be in flight when kDrain arrives)
               ///< and every completion has been sent.
  kBye = 7,    ///< payload: empty; acked, then the server closes
};

/// Response statuses (server -> client). Values >= 0x80.
enum class Status : std::uint8_t {
  kOk = 0x80,        ///< kHello / kDrain / kBye acknowledgement
  kDone = 0x81,      ///< completion: u8 class, i64 enqueue, i64 complete
  kStats = 0x82,     ///< payload: stats blob (wire_stats.h)
  kRetry = 0x83,     ///< not admitted (queue full / seq gap) — resend seq
  kBadFrame = 0x84,  ///< frame rejected (CRC / structure); payload: reason
  kBadSeq = 0x85,    ///< sequence rule violated; connection will close
  kBadState = 0x86,  ///< op illegal in this connection state
  kError = 0x87,     ///< catch-all server error; payload: reason
};

inline std::uint8_t type_of(Op op) { return static_cast<std::uint8_t>(op); }
inline std::uint8_t type_of(Status st) {
  return static_cast<std::uint8_t>(st);
}
inline bool is_response(std::uint8_t type) { return (type & 0x80u) != 0; }

/// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the zlib
/// polynomial, implemented locally so the codec stays dependency-free.
/// crc32("123456789") == 0xCBF43926 (pinned in test_wire.cpp).
std::uint32_t crc32(std::string_view data);

/// One decoded frame. `type` is an Op or Status raw value.
struct Frame {
  std::uint8_t type = 0;
  std::uint64_t id = 0;
  std::string payload;
};

enum class DecodeStatus {
  kFrame,        ///< one frame decoded and consumed from the buffer
  kNeedMore,     ///< the buffer holds a valid proper prefix; read more
  kBadMagic,     ///< first bytes are not a frame header (fatal)
  kBadVersion,   ///< peer speaks another protocol version (fatal)
  kBadReserved,  ///< reserved header field nonzero (fatal)
  kOversize,     ///< length field exceeds max_payload (fatal)
  kBadCrc,       ///< structure fine, payload corrupt — frame consumed
};

const char* decode_status_name(DecodeStatus s);

/// True when the stream cannot be re-framed after this status: the length
/// field is untrustworthy, so the connection must close. kBadCrc is NOT
/// fatal — the frame was consumed and the next one can parse cleanly.
inline bool decode_is_fatal(DecodeStatus s) {
  return s == DecodeStatus::kBadMagic || s == DecodeStatus::kBadVersion ||
         s == DecodeStatus::kBadReserved || s == DecodeStatus::kOversize;
}

/// Append one encoded frame to `out`.
void encode_frame(std::uint8_t type, std::uint64_t id,
                  std::string_view payload, std::string& out);
inline void encode_frame(Op op, std::uint64_t id, std::string_view payload,
                         std::string& out) {
  encode_frame(type_of(op), id, payload, out);
}
inline void encode_frame(Status st, std::uint64_t id,
                         std::string_view payload, std::string& out) {
  encode_frame(type_of(st), id, payload, out);
}

/// Try to decode one frame from the front of `buf`.
///   kFrame     — `out` filled, frame bytes erased from `buf`.
///   kNeedMore  — `buf` untouched.
///   kBadCrc    — `out.type`/`out.id` filled (payload empty), frame bytes
///                erased; the caller should answer Status::kBadFrame.
///   fatal      — `buf` untouched; reply and close.
DecodeStatus decode_frame(std::string& buf, std::size_t max_payload,
                          Frame& out);

/// Header-only pre-scan: total byte extent of the frame at the front of
/// `buf` (header + payload), without touching the CRC. Returns the same
/// taxonomy as decode_frame except kBadCrc. This is the server's wire
/// fault-injection seam: the extent is computed first, the (possibly
/// corrupted) bytes are then decoded for real.
DecodeStatus frame_extent(const std::string& buf, std::size_t max_payload,
                          std::size_t& total);

// ---------------------------------------------------------------------
// Payload primitives: fixed-width little-endian numbers appended to /
// read from std::string payloads.

void put_u8(std::string& s, std::uint8_t v);
void put_u32(std::string& s, std::uint32_t v);
void put_u64(std::string& s, std::uint64_t v);
void put_i64(std::string& s, std::int64_t v);

/// Sequential payload reader. Reads past the end set `ok()` false and
/// return zeros; callers check `ok() && done()` once at the end instead
/// of length-checking every field.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view s) : s_(s) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  /// Next `n` raw bytes (length-prefixed strings); empty view on a short
  /// payload, with ok() false.
  std::string_view str(std::size_t n);

  bool ok() const { return ok_; }
  /// True when every byte was consumed (trailing garbage is a protocol
  /// error, same as a short payload).
  bool done() const { return ok_ && off_ == s_.size(); }

 private:
  const unsigned char* take(std::size_t n);

  std::string_view s_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------
// Request/response payload shapes used by both peers.

/// Body of kRead / kWrite / kScrub.
struct RequestBody {
  std::uint64_t seq = 0;
  std::uint64_t line = 0;
  Ns arrival{0};
};

std::string encode_request_body(const RequestBody& b);
/// False when the payload is not exactly a RequestBody.
bool decode_request_body(std::string_view payload, RequestBody& b);

/// Body of a Status::kDone completion.
struct CompletionBody {
  std::uint8_t cls = 0;  ///< stats::ReqClass raw value
  Ns enqueue{0};
  Ns complete{0};
};

std::string encode_completion_body(const CompletionBody& b);
bool decode_completion_body(std::string_view payload, CompletionBody& b);

}  // namespace rd::net
