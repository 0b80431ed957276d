// Serialization of a ServiceStats snapshot for the kStats reply.
//
// The blob carries the full per-class latency histograms (bucket arrays,
// not just percentiles), so a distributed client can merge and
// cross-check them bit-exactly against its own completion-derived
// histograms — the wire determinism contract is checked on integers,
// never on floating-point summaries.
//
// Layout (all little-endian, via the frame payload primitives):
//   u8   blob version (kStatsBlobVersion)
//   u64  shards, queue, threads             (server config echo)
//   u64  submitted, rejected, admitted, completed, scrubs,
//        write_cancellations, scrub_rewrites_dropped, seq_held
//   i64  virtual_time
//   6 ×  histogram: i64 sum, i64 max, u32 nbuckets, nbuckets × u64
//   u32  nbanks, then per bank: i64 busy_ns, u64 depth_samples,
//        u64 depth_sum, u64 depth_max
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/memory_service.h"

namespace rd::net {

inline constexpr std::uint8_t kStatsBlobVersion = 2;

/// Server configuration echoed alongside the stats so a remote load
/// generator can report the run's true shape.
struct WireServiceInfo {
  std::uint64_t shards = 0;
  std::uint64_t queue = 0;
  std::uint64_t threads = 0;
};

std::string encode_stats(const service::ServiceStats& st,
                         const WireServiceInfo& info);

/// False when the payload is not exactly one well-formed blob.
bool decode_stats(std::string_view payload, service::ServiceStats& st,
                  WireServiceInfo& info);

}  // namespace rd::net
