// Wire-codec tests: CRC pin, frame round trips, and the malformed-frame
// corpus (DESIGN.md §12). Every bad input must map to the documented
// DecodeStatus — never a crash, hang, or desynchronized parse — and the
// whole file runs under the UBSan stage of run_static_analysis.sh, so
// the byte-wise codec is also checked for undefined behavior.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "net/wire_stats.h"
#include "service/memory_service.h"
#include "stats/histogram.h"

namespace rd::net {
namespace {

std::string encode(std::uint8_t type, std::uint64_t id,
                   std::string_view payload) {
  std::string out;
  encode_frame(type, id, payload, out);
  return out;
}

TEST(Crc32, KnownAnswer) {
  // The IEEE check value: any implementation of this polynomial must
  // produce it. A codec change that breaks cross-version interop fails
  // here before any socket test runs.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_NE(crc32(std::string("\0", 1)), crc32(""));
}

TEST(Frame, RoundTripBasic) {
  const std::string payload("hello \0 wire", 12);  // embedded NUL
  std::string buf = encode(type_of(Op::kRead), 77, payload);
  EXPECT_EQ(buf.size(), kHeaderSize + payload.size());

  Frame f;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxPayload, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, type_of(Op::kRead));
  EXPECT_EQ(f.id, 77u);
  EXPECT_EQ(f.payload, payload);
  EXPECT_TRUE(buf.empty());  // consumed exactly
}

TEST(Frame, RoundTripEmptyPayloadAndIdEdges) {
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    std::string buf = encode(type_of(Status::kOk), id, "");
    Frame f;
    ASSERT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
              DecodeStatus::kFrame);
    EXPECT_EQ(f.id, id);
    EXPECT_TRUE(f.payload.empty());
  }
}

TEST(Frame, RoundTripMaxPayload) {
  const std::size_t max = 4096;
  std::string big(max, '\xa5');
  std::string buf = encode(type_of(Op::kWrite), 1, big);
  Frame f;
  ASSERT_EQ(decode_frame(buf, max, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.payload, big);

  // One byte over the bound: fatal, buffer untouched.
  std::string over = encode(type_of(Op::kWrite), 1, big + 'x');
  const std::string before = over;
  EXPECT_EQ(decode_frame(over, max, f), DecodeStatus::kOversize);
  EXPECT_EQ(over, before);
}

TEST(Frame, EveryPrefixNeedsMore) {
  const std::string whole = encode(type_of(Op::kScrub), 9, "payload");
  for (std::size_t n = 0; n < whole.size(); ++n) {
    std::string buf = whole.substr(0, n);
    const std::string before = buf;
    Frame f;
    EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
    EXPECT_EQ(buf, before);  // kNeedMore never consumes
  }
}

TEST(Frame, TruncatedHeaderCorpus) {
  // Truncations of a valid header are kNeedMore; truncations that already
  // contradict the magic are rejected without waiting for more bytes.
  std::string bad = "GET / HTTP/1.1\r\n";
  std::size_t total = 0;
  EXPECT_EQ(frame_extent(bad, kDefaultMaxPayload, total),
            DecodeStatus::kBadMagic);
  std::string two = "GE";
  EXPECT_EQ(frame_extent(two, kDefaultMaxPayload, total),
            DecodeStatus::kBadMagic);
}

TEST(Frame, BadMagic) {
  std::string buf = encode(type_of(Op::kRead), 1, "x");
  buf[0] = 'X';
  const std::string before = buf;
  Frame f;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
            DecodeStatus::kBadMagic);
  EXPECT_EQ(buf, before);
}

TEST(Frame, BadVersion) {
  std::string buf = encode(type_of(Op::kRead), 1, "x");
  buf[2] = static_cast<char>(kVersion + 1);
  Frame f;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
            DecodeStatus::kBadVersion);
}

TEST(Frame, BadReserved) {
  std::string buf = encode(type_of(Op::kRead), 1, "x");
  buf[21] = 1;  // reserved word must be zero
  Frame f;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
            DecodeStatus::kBadReserved);
}

TEST(Frame, CrcMismatchConsumesAndContinues) {
  std::string buf = encode(type_of(Op::kWrite), 5, "abcdef");
  buf[kHeaderSize + 2] ^= 0x40;  // corrupt the payload, not the header
  buf += encode(type_of(Op::kRead), 6, "next");

  Frame f;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxPayload, f), DecodeStatus::kBadCrc);
  // The id survives (the reply needs it); the payload does not.
  EXPECT_EQ(f.id, 5u);
  EXPECT_TRUE(f.payload.empty());
  // The stream resynchronizes on the very next frame.
  ASSERT_EQ(decode_frame(buf, kDefaultMaxPayload, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.id, 6u);
  EXPECT_EQ(f.payload, "next");
  EXPECT_TRUE(buf.empty());
}

TEST(Frame, CorruptHeaderCrcFieldIsBadCrc) {
  std::string buf = encode(type_of(Op::kWrite), 5, "abcdef");
  buf[16] ^= 0x01;  // the CRC field itself
  Frame f;
  EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f), DecodeStatus::kBadCrc);
  EXPECT_TRUE(buf.empty());
}

TEST(Frame, TrailingGarbageAfterValidFrame) {
  std::string buf = encode(type_of(Op::kBye), 2, "");
  buf += "trailing garbage that is not a frame";
  Frame f;
  ASSERT_EQ(decode_frame(buf, kDefaultMaxPayload, f), DecodeStatus::kFrame);
  EXPECT_EQ(f.id, 2u);
  EXPECT_EQ(decode_frame(buf, kDefaultMaxPayload, f),
            DecodeStatus::kBadMagic);
}

TEST(Frame, ExtentAgreesWithDecode) {
  const std::string payload = "sixteen byte pay";
  std::string buf = encode(type_of(Op::kStats), 3, payload);
  std::size_t total = 0;
  ASSERT_EQ(frame_extent(buf, kDefaultMaxPayload, total),
            DecodeStatus::kFrame);
  EXPECT_EQ(total, kHeaderSize + payload.size());
}

// Deterministic fuzz: random byte soup and mutated valid frames through
// the decode loop. The parser must always terminate with a documented
// status and never read out of bounds (UBSan/ASan enforce the latter).
TEST(Frame, DeterministicFuzzNeverCrashes) {
  Rng rng(0xF00D, /*stream=*/1);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string buf;
    if (iter % 2 == 0) {
      // Pure noise.
      const std::size_t n = static_cast<std::size_t>(rng.uniform_below(96));
      for (std::size_t i = 0; i < n; ++i) {
        buf.push_back(static_cast<char>(rng.uniform_below(256)));
      }
    } else {
      // A valid frame with one mutated byte.
      std::string payload(static_cast<std::size_t>(rng.uniform_below(32)),
                          'p');
      buf = encode(static_cast<std::uint8_t>(rng.uniform_below(256)),
                   rng.next(), payload);
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_below(buf.size()));
      buf[at] = static_cast<char>(buf[at] ^
                                  (1 + rng.uniform_below(255)));
    }
    // Drain the buffer like the server does; bounded by construction.
    for (int guard = 0; guard < 64; ++guard) {
      Frame f;
      const DecodeStatus st = decode_frame(buf, 4096, f);
      if (st == DecodeStatus::kFrame || st == DecodeStatus::kBadCrc) {
        continue;  // consumed; keep parsing
      }
      EXPECT_TRUE(st == DecodeStatus::kNeedMore || decode_is_fatal(st));
      break;
    }
  }
}

TEST(PayloadReader, ReadsAndDone) {
  std::string p;
  put_u8(p, 7);
  put_u32(p, 0xDEADBEEFu);
  put_u64(p, ~std::uint64_t{0});
  put_i64(p, -42);
  PayloadReader r(p);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(PayloadReader, ShortPayloadFailsClosed) {
  std::string p;
  put_u32(p, 1);
  PayloadReader r(p);
  (void)r.u64();  // reads past the end
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.u8(), 0u);  // sticky failure returns zeros
}

TEST(PayloadReader, TrailingBytesAreNotDone) {
  std::string p;
  put_u64(p, 1);
  put_u8(p, 9);
  PayloadReader r(p);
  (void)r.u64();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());  // one unread byte left
}

TEST(Body, RequestRoundTrip) {
  const RequestBody b{123, 456, Ns{789}};
  RequestBody out;
  ASSERT_TRUE(decode_request_body(encode_request_body(b), out));
  EXPECT_EQ(out.seq, 123u);
  EXPECT_EQ(out.line, 456u);
  EXPECT_EQ(out.arrival.v, 789);
}

TEST(Body, RequestRejectsWrongSize) {
  RequestBody out;
  EXPECT_FALSE(decode_request_body("", out));
  EXPECT_FALSE(decode_request_body("short", out));
  std::string long_p = encode_request_body(RequestBody{});
  long_p += 'x';
  EXPECT_FALSE(decode_request_body(long_p, out));
}

TEST(Body, CompletionRoundTrip) {
  const CompletionBody b{3, Ns{1000}, Ns{2500}};
  CompletionBody out;
  ASSERT_TRUE(decode_completion_body(encode_completion_body(b), out));
  EXPECT_EQ(out.cls, 3u);
  EXPECT_EQ(out.enqueue.v, 1000);
  EXPECT_EQ(out.complete.v, 2500);
}

TEST(Body, CompletionRejectsWrongSize) {
  CompletionBody out;
  EXPECT_FALSE(decode_completion_body("", out));
  std::string long_p = encode_completion_body(CompletionBody{});
  long_p += 'x';
  EXPECT_FALSE(decode_completion_body(long_p, out));
}

TEST(StatsBlob, RoundTrip) {
  service::ServiceStats st;
  st.submitted = 10;
  st.rejected = 1;
  st.admitted = 9;
  st.completed = 8;
  st.scrubs = 7;
  st.write_cancellations = 6;
  st.scrub_rewrites_dropped = 5;
  st.seq_held = 4;
  st.virtual_time = Ns{123456789};
  st.metrics.lat(stats::ReqClass::kRRead).record(Ns{100});
  st.metrics.lat(stats::ReqClass::kDemandWrite).record(Ns{900});
  const WireServiceInfo info{4, 4096, 2};

  service::ServiceStats back;
  WireServiceInfo binfo;
  ASSERT_TRUE(decode_stats(encode_stats(st, info), back, binfo));
  EXPECT_EQ(back.submitted, 10u);
  EXPECT_EQ(back.rejected, 1u);
  EXPECT_EQ(back.completed, 8u);
  EXPECT_EQ(back.seq_held, 4u);
  EXPECT_EQ(back.virtual_time.v, 123456789);
  EXPECT_EQ(binfo.shards, 4u);
  EXPECT_EQ(binfo.threads, 2u);
  // Histograms restore bit-exactly — this is what the distributed
  // cross-check in readduo_load relies on.
  EXPECT_TRUE(back.metrics.lat(stats::ReqClass::kRRead) ==
              st.metrics.lat(stats::ReqClass::kRRead));
  EXPECT_TRUE(back.metrics.lat(stats::ReqClass::kDemandWrite) ==
              st.metrics.lat(stats::ReqClass::kDemandWrite));
}

TEST(StatsBlob, RejectsTruncationAndGarbage) {
  service::ServiceStats st;
  const WireServiceInfo info{1, 1, 1};
  const std::string blob = encode_stats(st, info);
  service::ServiceStats back;
  WireServiceInfo binfo;
  EXPECT_FALSE(decode_stats("", back, binfo));
  EXPECT_FALSE(decode_stats(blob.substr(0, blob.size() / 2), back, binfo));
  EXPECT_FALSE(decode_stats(blob + "x", back, binfo));
}

}  // namespace
}  // namespace rd::net
