// The fault-injection subsystem (READDUO_FAULTS): spec parsing, decision
// determinism, the chip / ECC / LWT / harness seams, and the PR's
// acceptance criteria — (a) identical plan + seed gives bit-identical
// results across thread counts, (b) harness-only plans leave simulation
// outputs bit-identical to faults-off.
#include "faults/injector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/units.h"
#include "faults/fault_plan.h"
#include "harness.h"
#include "net/frame.h"
#include "pcm/chip.h"
#include "readduo/schemes.h"
#include "scoped_env.h"
#include "trace/workload.h"

namespace rd {
namespace {

using faults::FaultClass;
using faults::FaultEngine;
using faults::FaultPlan;

/// Scoped process fault engine built from a spec; restores "off" on exit.
class ScopedFaultEngine {
 public:
  explicit ScopedFaultEngine(const std::string& spec) {
    faults::set_engine_for_test(
        std::make_unique<FaultEngine>(FaultPlan::parse(spec)));
  }
  ~ScopedFaultEngine() { faults::set_engine_for_test(nullptr); }

  const FaultEngine* get() const { return faults::engine(); }
};

// --- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlanParse, DefaultsAndSingleClass) {
  const FaultPlan p = FaultPlan::parse("stuck:p=0.25");
  EXPECT_EQ(p.seed, 1u);
  EXPECT_DOUBLE_EQ(p.stuck_p, 0.25);
  EXPECT_EQ(p.stuck_level, 3u);
  EXPECT_TRUE(p.stuck_cells.empty());
  EXPECT_DOUBLE_EQ(p.sense_p, 0.0);
  EXPECT_TRUE(p.any());
  EXPECT_TRUE(p.affects_simulation());
}

TEST(FaultPlanParse, AllClassesAndSeed) {
  const FaultPlan p = FaultPlan::parse(
      "seed=99;stuck:p=0.1,level=0;sense:p=0.2,mag=0.75;lwt-vec:p=0.3;"
      "lwt-ind:p=0.4;bch:p=0.5,e=17;wire:p=0.8");
  EXPECT_EQ(p.seed, 99u);
  EXPECT_DOUBLE_EQ(p.stuck_p, 0.1);
  EXPECT_EQ(p.stuck_level, 0u);
  EXPECT_DOUBLE_EQ(p.sense_p, 0.2);
  EXPECT_DOUBLE_EQ(p.sense_mag, 0.75);
  EXPECT_DOUBLE_EQ(p.lwt_vec_p, 0.3);
  EXPECT_DOUBLE_EQ(p.lwt_ind_p, 0.4);
  EXPECT_DOUBLE_EQ(p.bch_p, 0.5);
  EXPECT_EQ(p.bch_e, 17u);
  EXPECT_DOUBLE_EQ(p.wire_p, 0.8);
}

TEST(FaultPlanParse, ExplicitStuckAddresses) {
  const FaultPlan p =
      FaultPlan::parse("stuck:line=2,cell=5,level=1;stuck:line=3,cell=0");
  ASSERT_EQ(p.stuck_cells.size(), 2u);
  EXPECT_EQ(p.stuck_cells[0], (faults::StuckAddress{2, 5, 1}));
  EXPECT_EQ(p.stuck_cells[1], (faults::StuckAddress{3, 0, 3}));
  EXPECT_DOUBLE_EQ(p.stuck_p, 0.0);
  EXPECT_TRUE(p.affects_simulation());
}

TEST(FaultPlanParse, FileFormCommentsAndNewlines) {
  const FaultPlan p = FaultPlan::parse(
      "# fault plan for the nightly sweep\n"
      "seed=3\n"
      "bch:p=0.5,e=9   # boundary bursts\n"
      "\n"
      "wire:p=0.25\n");
  EXPECT_EQ(p.seed, 3u);
  EXPECT_DOUBLE_EQ(p.bch_p, 0.5);
  EXPECT_EQ(p.bch_e, 9u);
  EXPECT_DOUBLE_EQ(p.wire_p, 0.25);
  EXPECT_TRUE(p.affects_simulation());
}

TEST(FaultPlanParse, CanonicalRoundTrips) {
  const char* specs[] = {
      "seed=7;stuck:p=0.125,level=2",
      "stuck:line=1,cell=2,level=0;stuck:line=4,cell=9",
      "seed=42;sense:p=0.001,mag=0.5;bch:p=0.25,e=12",
      "lwt-vec:p=0.5;lwt-ind:p=0.25",
      "seed=11;wire:p=0.01",
      "wire:p=0.125",
  };
  for (const char* s : specs) {
    const FaultPlan p = FaultPlan::parse(s);
    EXPECT_TRUE(FaultPlan::parse(p.canonical()) == p)
        << s << " canonical='" << p.canonical() << "'";
  }
}

TEST(FaultPlanParse, RejectsMalformedSpecsLoudly) {
  const char* bad[] = {
      "bogus:p=1",              // unknown class
      "stuck:p=1.5",            // probability out of range
      "stuck:p=-0.1",           // probability out of range
      "stuck:p=0.1,level=4",    // MLC has levels 0..3
      "sense:p=0.1,mag=-1",     // magnitude must be positive
      "bch:p=0.1,e=8",          // below the detection boundary
      "bch:p=0.1,e=18",         // above the design distance
      "cache:p=1",              // unknown class
      "trace:p=1",              // unknown class
      "trace:n=1",              // unknown class
      "seed=abc",               // malformed integer
      "seed=1x",                // trailing garbage in value
      "stuck:p=0.1;stuck:p=0.2",  // duplicate probabilistic clause
      "sense:p=0.1,p=0.2",      // duplicate key
      "sense:p=0.1,foo=2",      // unknown key
      "stuck:line=1",           // explicit address needs line and cell
      "wire",                   // wire needs p=
      "wire:p=2",               // probability out of range
      "wire:p=0.1,n=3",         // unknown key for wire
      "wire:p=0.1;wire:p=0.2",  // duplicate clause
  };
  for (const char* s : bad) {
    EXPECT_THROW(FaultPlan::parse(s), CheckFailure) << s;
  }
}

TEST(FaultPlanParse, HarnessOnlyClassesDoNotAffectSimulation) {
  const FaultPlan p = FaultPlan::parse("wire:p=1");
  EXPECT_TRUE(p.any());
  EXPECT_FALSE(p.affects_simulation());
}

// --- decision determinism ---------------------------------------------------

TEST(FaultEngineDeterminism, DecisionsArePureFunctionsOfKeys) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7;stuck:p=0.01;sense:p=0.02,mag=0.4;lwt-vec:p=0.5;"
      "lwt-ind:p=0.5;bch:p=0.3,e=11");
  const FaultEngine a(plan);
  const FaultEngine b(plan);
  for (std::uint64_t line = 0; line < 32; ++line) {
    for (std::uint64_t cell = 0; cell < 8; ++cell) {
      EXPECT_EQ(a.stuck_level(line, cell), b.stuck_level(line, cell));
      // Repeated queries of one engine agree too (no hidden stream state).
      EXPECT_EQ(a.stuck_level(line, cell), a.stuck_level(line, cell));
      for (std::uint64_t serial = 0; serial < 4; ++serial) {
        EXPECT_DOUBLE_EQ(a.sense_offset(line, cell, serial),
                         b.sense_offset(line, cell, serial));
      }
    }
    const Ns now{static_cast<std::int64_t>(1000 + line * 7919)};
    EXPECT_EQ(a.lwt_vector_flip(line, now, 4), b.lwt_vector_flip(line, now, 4));
    EXPECT_EQ(a.lwt_index_overwrite(line, now, 4),
              b.lwt_index_overwrite(line, now, 4));
    EXPECT_EQ(a.extra_r_errors(line, now, 296),
              b.extra_r_errors(line, now, 296));
    EXPECT_EQ(a.bch_error_positions(line, line, 592),
              b.bch_error_positions(line, line, 592));
  }
}

TEST(FaultEngineDeterminism, DifferentSeedsDecorrelate) {
  FaultPlan p1 = FaultPlan::parse("seed=1;sense:p=0.5,mag=0.4");
  FaultPlan p2 = FaultPlan::parse("seed=2;sense:p=0.5,mag=0.4");
  const FaultEngine a(p1);
  const FaultEngine b(p2);
  unsigned differing = 0;
  for (std::uint64_t line = 0; line < 64; ++line) {
    for (std::uint64_t serial = 0; serial < 8; ++serial) {
      differing += a.sense_offset(line, 0, serial) !=
                   b.sense_offset(line, 0, serial);
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultEngineDeterminism, BurstPositionsDistinctAndInRange) {
  const FaultEngine e(FaultPlan::parse("bch:p=1,e=17"));
  const std::vector<unsigned> burst = e.bch_error_positions(5, 0, 592);
  ASSERT_EQ(burst.size(), 17u);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_LT(burst[i], 592u);
    for (std::size_t j = i + 1; j < burst.size(); ++j) {
      EXPECT_NE(burst[i], burst[j]);
    }
  }
  EXPECT_GE(e.count(FaultClass::kBchError), 1u);
}

// --- wire-frame corruption (the socket front end's fault seam) --------------

TEST(WireFaults, CorruptionIsDeterministicAndAlwaysChangesBytes) {
  const FaultPlan plan = FaultPlan::parse("seed=7;wire:p=0.3");
  const FaultEngine a(plan);
  const FaultEngine b(plan);
  unsigned fired = 0;
  for (std::uint64_t serial = 0; serial < 256; ++serial) {
    std::string pa = "payload bytes for frame corruption";
    std::string pb = pa;
    const std::string orig = pa;
    const bool hit_a = a.wire_corrupt(pa.data(), pa.size(), serial);
    const bool hit_b = b.wire_corrupt(pb.data(), pb.size(), serial);
    // Decision and mutation are pure functions of (bytes, serial).
    EXPECT_EQ(hit_a, hit_b);
    EXPECT_EQ(pa, pb);
    if (hit_a) {
      ++fired;
      // The XOR mask is nonzero by construction: a fired fault always
      // changes the payload, so the CRC check always catches it.
      EXPECT_NE(pa, orig);
    } else {
      EXPECT_EQ(pa, orig);
    }
  }
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 256u);  // p=0.3 fires on some serials, not all
  EXPECT_EQ(a.count(FaultClass::kWireCorrupt), fired);
}

TEST(WireFaults, DisabledPlanAndEmptyPayloadNeverFire) {
  const FaultEngine off(FaultPlan::parse("seed=1"));
  std::string bytes = "abc";
  EXPECT_FALSE(off.wire_corrupt(bytes.data(), bytes.size(), 1));
  EXPECT_EQ(bytes, "abc");

  const FaultEngine on(FaultPlan::parse("wire:p=1"));
  EXPECT_FALSE(on.wire_corrupt(bytes.data(), 0, 1));
  EXPECT_EQ(on.count(FaultClass::kWireCorrupt), 0u);
}

TEST(WireFaults, CorruptedFrameAlwaysFailsCrc) {
  // End-to-end over the codec: corrupt the payload region of a valid
  // frame (exactly what the server seam does) and the decoder must
  // report kBadCrc — the fault can never pass as a clean frame.
  const FaultEngine e(FaultPlan::parse("wire:p=1"));
  for (std::uint64_t serial = 0; serial < 64; ++serial) {
    std::string buf;
    net::encode_frame(net::Op::kRead, serial + 1, "0123456789abcdef", buf);
    ASSERT_TRUE(e.wire_corrupt(buf.data() + net::kHeaderSize,
                               buf.size() - net::kHeaderSize, serial));
    net::Frame f;
    EXPECT_EQ(net::decode_frame(buf, net::kDefaultMaxPayload, f),
              net::DecodeStatus::kBadCrc);
  }
}

// --- functional-chip seams --------------------------------------------------

std::vector<std::uint8_t> test_payload(unsigned bytes, unsigned salt) {
  std::vector<std::uint8_t> data(bytes);
  for (unsigned i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return data;
}

TEST(ChipFaults, PlannedStuckCellsAreRetiredByEcp) {
  const FaultEngine fe(FaultPlan::parse(
      "stuck:line=0,cell=3,level=0;stuck:line=0,cell=7,level=2;"
      "stuck:line=1,cell=0,level=3"));
  pcm::ChipConfig cfg;
  cfg.num_lines = 2;
  cfg.scrub.interval_s = 0.0;
  cfg.faults = &fe;
  pcm::MlcChip chip(cfg);
  EXPECT_EQ(chip.stats().injected_faults, 3u);

  const auto d0 = test_payload(cfg.data_bytes, 1);
  const auto d1 = test_payload(cfg.data_bytes, 2);
  chip.write(0, d0);
  chip.write(1, d1);
  const pcm::ChipReadResult r0 = chip.read(0);
  const pcm::ChipReadResult r1 = chip.read(1);
  EXPECT_EQ(r0.data, d0);
  EXPECT_EQ(r1.data, d1);
  EXPECT_EQ(fe.count(FaultClass::kStuckCell), 3u);
}

TEST(ChipFaults, SenseTransientsForceMFallbackWithCorrectData) {
  // p=1, mag=2 decades: every R-sensed cell lands decades high, so R-sense
  // is garbage; the M path is the robust reference and stays clean. The
  // hybrid readout must detect and fall back, returning correct data.
  const FaultEngine fe(FaultPlan::parse("seed=5;sense:p=1,mag=2"));
  pcm::ChipConfig cfg;
  cfg.num_lines = 2;
  cfg.scrub.interval_s = 0.0;
  cfg.faults = &fe;
  pcm::MlcChip chip(cfg);

  const auto data = test_payload(cfg.data_bytes, 3);
  chip.write(0, data);
  const pcm::ChipReadResult r = chip.read(0);
  EXPECT_TRUE(r.used_m_sense);
  EXPECT_EQ(r.data, data);
  EXPECT_GT(chip.stats().injected_faults, 0u);
  EXPECT_GT(fe.count(FaultClass::kSenseOffset), 0u);
}

TEST(ChipFaults, AdversarialBchBurstsDetectNeverMiscorrect) {
  // Bursts of 9..17 flips sit past the correction radius t=8; the decoder
  // must report detected-uncorrectable (falling back to M-sense), never
  // "correct" to a wrong codeword. Exercised at both boundary weights.
  for (const char* spec : {"seed=2;bch:p=1,e=9", "seed=2;bch:p=1,e=17"}) {
    const FaultEngine fe(FaultPlan::parse(spec));
    pcm::ChipConfig cfg;
    cfg.num_lines = 4;
    cfg.scrub.interval_s = 0.0;
    cfg.faults = &fe;
    pcm::MlcChip chip(cfg);
    for (std::size_t line = 0; line < cfg.num_lines; ++line) {
      const auto data = test_payload(cfg.data_bytes,
                                     static_cast<unsigned>(line) + 10);
      chip.write(line, data);
      const pcm::ChipReadResult r = chip.read(line);
      EXPECT_TRUE(r.used_m_sense) << spec << " line " << line;
      EXPECT_EQ(r.data, data) << spec << " line " << line;
    }
    EXPECT_GE(fe.count(FaultClass::kBchError), cfg.num_lines);
  }
}

// --- scheme-layer determinism (acceptance criterion a) ----------------------

void expect_runs_equal(const bench::RunResult& a, const bench::RunResult& b,
                       const char* label) {
  EXPECT_EQ(a.sim.exec_time.v, b.sim.exec_time.v) << label;
  EXPECT_EQ(a.sim.reads_serviced, b.sim.reads_serviced) << label;
  EXPECT_EQ(a.sim.writes_serviced, b.sim.writes_serviced) << label;
  EXPECT_EQ(a.counters.r_reads, b.counters.r_reads) << label;
  EXPECT_EQ(a.counters.m_reads, b.counters.m_reads) << label;
  EXPECT_EQ(a.counters.rm_reads, b.counters.rm_reads) << label;
  EXPECT_EQ(a.counters.detected_uncorrectable,
            b.counters.detected_uncorrectable)
      << label;
  EXPECT_EQ(a.counters.silent_corruptions, b.counters.silent_corruptions)
      << label;
  EXPECT_EQ(a.counters.cell_writes, b.counters.cell_writes) << label;
  EXPECT_EQ(a.counters.injected_faults, b.counters.injected_faults) << label;
  EXPECT_TRUE(a.sim.metrics == b.sim.metrics) << label;
}

TEST(FaultDeterminism, BitIdenticalAcrossThreadCounts) {
  ScopedEnv instr("READDUO_INSTR", "20000");
  ScopedFaultEngine fe(
      "seed=11;sense:p=0.0005;lwt-vec:p=0.02;lwt-ind:p=0.01");

  auto batch_under = [&](const char* threads) {
    ScopedEnv t("READDUO_THREADS", threads);
    std::vector<bench::RunSpec> specs;
    for (const char* wname : {"mcf", "lbm"}) {
      const trace::Workload& w = trace::workload_by_name(wname);
      specs.push_back({readduo::SchemeKind::kHybrid, w});
      specs.push_back({readduo::SchemeKind::kLwt, w});
    }
    return bench::run_schemes(specs);
  };

  const std::vector<bench::RunResult> serial = batch_under("1");
  const std::vector<bench::RunResult> pooled = batch_under("4");
  ASSERT_EQ(serial.size(), pooled.size());
  std::uint64_t total_faults = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_runs_equal(serial[i], pooled[i],
                      ("spec " + std::to_string(i)).c_str());
    total_faults += serial[i].counters.injected_faults;
  }
  // The comparison is only meaningful if faults actually fired.
  EXPECT_GT(total_faults, 0u);
  // The LWT flag corruptions the plan injected were absorbed safely.
  for (const bench::RunResult& r : serial) {
    EXPECT_EQ(r.counters.silent_corruptions, 0u);
  }
}

// --- zero overhead when off (acceptance criterion b) ------------------------

TEST(FaultsOff, HarnessOnlyPlanLeavesSimulationBitIdentical) {
  ScopedEnv instr("READDUO_INSTR", "20000");
  ScopedEnv threads("READDUO_THREADS", "1");
  const trace::Workload& w = trace::workload_by_name("mcf");

  const bench::RunSpec spec{.kind = readduo::SchemeKind::kHybrid,
                            .workload = w,
                            .seed = 77};
  const bench::RunResult base = bench::run_schemes({spec})[0];
  {
    ScopedFaultEngine fe("wire:p=1");
    const bench::RunResult faulted = bench::run_schemes({spec})[0];
    expect_runs_equal(base, faulted, "harness-only plan");
    EXPECT_EQ(faulted.counters.injected_faults, 0u);
    // A metrics document produced under a plan carries its provenance.
    const std::string doc = bench::detail::render_metrics_json();
    EXPECT_NE(doc.find("\"faults\""), std::string::npos);
    EXPECT_NE(doc.find("\"plan\""), std::string::npos);
    EXPECT_NE(doc.find("\"injected\""), std::string::npos);
  }
  // A clean document has no fault block at all.
  const std::string doc = bench::detail::render_metrics_json();
  EXPECT_EQ(doc.find("\"faults\""), std::string::npos);
}

}  // namespace
}  // namespace rd
