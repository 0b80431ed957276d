// One back-to-back wire client session, as the wire workload runs it:
// connect, hello, the requests pipelined behind a fixed window, kDrain,
// close. The client speaks the frame codec directly on the socket so the
// traced run can time encode, send, the wait for replies and decode
// separately. Frames are written kSendChunk at a time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pb/spans.h"
#include "pb/stream.h"
#include "service/memory_service.h"
#include "stats/histogram.h"
#include "stats/metrics.h"

namespace pb {

/// Requests in flight per session: all of them. No more than the service
/// queue bound, so the server never answers kRetry. With 256 or 1024 the
/// session waited on round trips through three threads, and on a 4-vCPU
/// VM its throughput swung 2x with the host's wake-up latency.
inline constexpr std::size_t kWindow = kOpRequests;
/// Request frames written per send(): one wake-up of the server's poll
/// loop per chunk rather than per request.
inline constexpr std::size_t kSendChunk = 32;

struct SessionResult {
  /// Completion latencies (virtual), by request class.
  std::array<rd::stats::LatencyHistogram, rd::stats::kNumReqClasses> hist;
  std::uint64_t completions = 0;
  std::uint64_t retries = 0;      ///< kRetry / kBadFrame replies (resent)
  std::uint64_t bad_replies = 0;  ///< anything else unexpected
  /// Every request completed exactly once and no reply was refused.
  bool ok() const { return retries == 0 && bad_replies == 0; }
};

/// Run one session as client `client_id` against the server at `addr`.
/// Request ids in `reqs` are ignored; the session numbers them 1..n as
/// its sequence. Throws rd::CheckFailure if the server closes early.
SessionResult run_session(const std::string& addr, std::uint64_t client_id,
                          const std::vector<rd::service::Request>& reqs,
                          Tracer& tr);

/// Fetch the server's stats blob over a fresh connection (as client
/// `client_id`); false if the reply is not a well-formed blob.
bool fetch_stats(const std::string& addr, std::uint64_t client_id,
                 rd::service::ServiceStats& st);

}  // namespace pb
