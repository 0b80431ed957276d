#include "net/wire_stats.h"

#include <array>

#include "net/frame.h"
#include "stats/histogram.h"
#include "stats/metrics.h"

namespace rd::net {

namespace {

void put_hist(std::string& s, const stats::LatencyHistogram& h) {
  put_i64(s, h.sum());
  put_i64(s, h.max());
  put_u32(s, static_cast<std::uint32_t>(stats::LatencyHistogram::kNumBuckets));
  for (std::uint64_t b : h.buckets()) put_u64(s, b);
}

bool get_hist(PayloadReader& r, stats::LatencyHistogram& h) {
  const std::int64_t sum = r.i64();
  const std::int64_t max = r.i64();
  if (r.u32() != stats::LatencyHistogram::kNumBuckets) return false;
  std::array<std::uint64_t, stats::LatencyHistogram::kNumBuckets> buckets{};
  for (std::uint64_t& b : buckets) b = r.u64();
  if (!r.ok()) return false;
  h.restore(buckets, sum, max);
  return true;
}

}  // namespace

std::string encode_stats(const service::ServiceStats& st,
                         const WireServiceInfo& info) {
  std::string s;
  put_u8(s, kStatsBlobVersion);
  put_u64(s, info.shards);
  put_u64(s, info.queue);
  put_u64(s, info.threads);
  put_u64(s, st.submitted);
  put_u64(s, st.rejected);
  put_u64(s, st.admitted);
  put_u64(s, st.completed);
  put_u64(s, st.scrubs);
  put_u64(s, st.write_cancellations);
  put_u64(s, st.scrub_rewrites_dropped);
  put_u64(s, st.seq_held);
  put_i64(s, st.virtual_time.v);
  for (const stats::LatencyHistogram& h : st.metrics.latency) put_hist(s, h);
  put_u32(s, static_cast<std::uint32_t>(st.metrics.banks.size()));
  for (const stats::BankGauge& b : st.metrics.banks) {
    put_i64(s, b.busy_ns);
    put_u64(s, b.depth_samples);
    put_u64(s, b.depth_sum);
    put_u64(s, b.depth_max);
  }
  return s;
}

bool decode_stats(std::string_view payload, service::ServiceStats& st,
                  WireServiceInfo& info) {
  PayloadReader r(payload);
  if (r.u8() != kStatsBlobVersion) return false;
  info.shards = r.u64();
  info.queue = r.u64();
  info.threads = r.u64();
  st.submitted = r.u64();
  st.rejected = r.u64();
  st.admitted = r.u64();
  st.completed = r.u64();
  st.scrubs = r.u64();
  st.write_cancellations = r.u64();
  st.scrub_rewrites_dropped = r.u64();
  st.seq_held = r.u64();
  st.virtual_time = Ns{r.i64()};
  for (stats::LatencyHistogram& h : st.metrics.latency) {
    if (!get_hist(r, h)) return false;
  }
  const std::uint32_t nbanks = r.u32();
  if (!r.ok() || nbanks > (1u << 20)) return false;
  st.metrics.banks.assign(nbanks, stats::BankGauge{});
  for (stats::BankGauge& b : st.metrics.banks) {
    b.busy_ns = r.i64();
    b.depth_samples = r.u64();
    b.depth_sum = r.u64();
    b.depth_max = r.u64();
  }
  return r.done();
}

}  // namespace rd::net
