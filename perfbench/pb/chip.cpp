// chip: a functional pcm::MlcChip with ReadDuo hybrid readout. Set-up
// writes every line once; the timed part mixes reads and writes (about
// one in five a write) on uniformly drawn lines, advancing the chip clock
// between ops so lines age into M-sense fallbacks and scrub passes run.
// An op is one read() or write(). Work is line ops. Each epoch is a fresh
// chip given the same writes and reads.
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "pb/report.h"
#include "ecc/bch.h"
#include "pcm/chip.h"

namespace pb {
namespace {

constexpr std::size_t kLines = 1024;
constexpr double kWriteFraction = 0.2;
/// Clock step, taken every kAdvanceEvery ops: a line is rewritten about
/// every kLines / kWriteFraction ops, i.e. ~1000 s of chip time, so reads
/// see ages from seconds to well past a scrub interval (640 s) and about
/// 0.3 % of them fall back to M sensing.
constexpr std::uint64_t kAdvanceEvery = 64;
constexpr double kAdvanceS = 12.8;
constexpr std::uint64_t kEpochOps = 20'000;
/// Ops per tail window: p99 with 10 beyond. Per epoch (p99.95) the tail
/// caught single host hiccups and spread 0.5 of its median over ten runs.
constexpr std::size_t kTailWindow = 1000;
constexpr std::uint64_t kMinEpochs = 2;

std::vector<std::uint8_t> payload(rd::Rng& rng, unsigned bytes) {
  std::vector<std::uint8_t> p(bytes);
  for (std::uint8_t& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

/// A chip with every line written once, and the payload each line holds.
struct FilledChip {
  rd::pcm::MlcChip chip;
  rd::Rng rng;
  std::vector<std::vector<std::uint8_t>> want;

  explicit FilledChip(std::uint64_t seed)
      : chip(config(seed)), rng(seed, /*stream=*/0xc41b), want(kLines) {
    for (std::size_t line = 0; line < kLines; ++line) {
      want[line] = payload(rng, chip.config().data_bytes);
      chip.write(line, want[line]);
    }
  }

  static rd::pcm::ChipConfig config(std::uint64_t seed) {
    rd::pcm::ChipConfig cfg;
    cfg.num_lines = kLines;
    cfg.seed = seed;
    return cfg;
  }
};

/// Mean host ns of BchCode::decode on a fixed corpus of BCH-8 codewords
/// carrying `weight` bit errors (the chip's code: m=10, 512 data bits).
double decode_ns(Tracer& tr, unsigned weight, const char* span) {
  constexpr std::size_t kWords = 256;
  constexpr int kRounds = 8;
  const rd::ecc::BchCode code(10, 8, 512);
  rd::Rng rng(0xecc0 + weight, /*stream=*/1);
  std::vector<rd::BitVec> corpus;
  for (std::size_t i = 0; i < kWords; ++i) {
    rd::BitVec data(code.data_bits());
    for (unsigned b = 0; b < code.data_bits(); ++b) {
      data.set(b, rng.bernoulli(0.5));
    }
    rd::BitVec cw = code.encode(data);
    std::vector<bool> hit(code.codeword_bits());
    for (unsigned e = 0; e < weight;) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_below(code.codeword_bits()));
      if (hit[pos]) continue;
      hit[pos] = true;
      cw.flip(pos);
      ++e;
    }
    corpus.push_back(std::move(cw));
  }
  for (int round = 0; round < kRounds; ++round) {
    std::vector<rd::BitVec> words = corpus;
    for (rd::BitVec& w : words) {
      Tracer::Span s(tr, span);
      code.decode(w);
    }
  }
  return tr.total(span).mean_ns();
}

}  // namespace

void run_chip(const Options& o, Tracer& tr, std::int64_t start_ns,
              Report& r) {
  require_budget(1, o.nproc, "chip: generator");
  r.threads = 1;
  auto c = std::make_unique<FilledChip>(o.seed);
  r.setup_s = since_s(start_ns);
  if (o.setup_only) return;

  Samples smp;
  std::uint64_t reads = 0, fallbacks = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t e = 0; e < kMinEpochs || since_s(t0) < o.seconds; ++e) {
    const bool traced = o.trace && e % 2 == 0;
    tr.set_on(traced);
    if (e > 0) {
      c.reset();  // one chip alive at a time, so the peak RSS is one chip's
      c = std::make_unique<FilledChip>(o.seed);
    }
    const rd::pcm::ChipStats base = c->chip.stats();
    Fingerprint fp;
    const std::int64_t e0 = now_ns();
    for (std::uint64_t op = 0; op < kEpochOps; ++op) {
      if (op % kAdvanceEvery == 0) {
        Tracer::Span s(tr, "pcm.advance_time");
        c->chip.advance_time(kAdvanceS);
      }
      const std::size_t line = c->rng.uniform_below(kLines);
      bool ok = true;
      std::int64_t op0 = 0, op1 = 0;
      if (c->rng.bernoulli(kWriteFraction)) {
        c->want[line] = payload(c->rng, c->chip.config().data_bytes);
        op0 = now_ns();
        {
          Tracer::Span s(tr, "pcm.write");
          c->chip.write(line, c->want[line]);
        }
        op1 = now_ns();
      } else {
        op0 = now_ns();
        rd::pcm::ChipReadResult res;
        {
          Tracer::Span s(tr, "pcm.read_r");
          res = c->chip.read(line);
          if (res.used_m_sense) s.rename("pcm.read_rm");
        }
        op1 = now_ns();
        ok = res.corrected && res.data == c->want[line];
        fp.add(res.used_m_sense);
        fp.add(res.errors_corrected);
      }
      smp.op_us.push_back(static_cast<double>(op1 - op0) / 1e3);
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    // Work per host second of the epoch, clock steps (scrubs) included.
    smp.end_epoch(static_cast<double>(kEpochOps), since_s(e0), traced);
    const rd::pcm::ChipStats& st = c->chip.stats();
    reads += st.reads - base.reads;
    fallbacks += st.m_fallbacks - base.m_fallbacks;
    for (const std::uint64_t v :
         {st.reads, st.m_fallbacks, st.writes, st.scrub_passes,
          st.scrub_rewrites, st.cells_retired, st.uncorrectable}) {
      fp.add(v);
    }
    if (e == 0) {
      r.fingerprint = fp.hex();
    } else if (fp.hex() != r.fingerprint) {
      r.fail_check("epoch " + std::to_string(e) +
                   " chip results differ from epoch 0");
    }
  }
  tr.set_on(o.trace);
  add_end_to_end(r, smp, kTailWindow, o.trace);
  if (!o.trace) return;

  r.add("pcm.write_us", tr.total("pcm.write").mean_ns() / 1e3, "us");
  r.add("pcm.read_r_us", tr.total("pcm.read_r").mean_ns() / 1e3, "us");
  r.add("pcm.read_rm_us", tr.total("pcm.read_rm").mean_ns() / 1e3, "us");
  r.add("pcm.advance_time_ms", tr.total("pcm.advance_time").mean_ns() / 1e6,
        "ms");
  r.add("pcm.m_fallback_share",
        reads ? static_cast<double>(fallbacks) / static_cast<double>(reads)
              : 0.0,
        "share");
  r.add("ecc.decode_ns.w0", decode_ns(tr, 0, "ecc.decode.w0"), "ns");
  r.add("ecc.decode_ns.w8", decode_ns(tr, 8, "ecc.decode.w8"), "ns");
  r.add("ecc.decode_ns.w17", decode_ns(tr, 17, "ecc.decode.w17"), "ns");
}

}  // namespace pb
