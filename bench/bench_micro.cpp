// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate: BCH codec, drift analytics, device Monte-Carlo, and the
// event-driven simulator core.
//
// The BM_Kernel_* benchmarks time each rewritten hot-path kernel in both
// its implementations — `_ref` (straight-line reference) and `_opt`
// (table-driven / batched) — in one binary, so every run is a
// self-contained before/after measurement. run_all_benches.sh extracts
// the pairs into a BENCH JSON (see README "Profiling the hot paths").
//
// For a smoke run that only checks the benchmarks still execute, pass
// google-benchmark's own --benchmark_min_time=0.003 (ctest
// bench_micro_smoke does); the numbers it prints are NOT stable, never
// record them.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "drift/error_model.h"
#include "ecc/bch.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "pcm/line.h"
#include "readduo/schemes.h"
#include "trace/generator.h"

using namespace rd;

namespace {

const ecc::BchCode& bch8() {
  static const ecc::BchCode code(10, 8, 512);
  return code;
}

const ecc::BchCode& bch8_mode(KernelMode mode) {
  static const ecc::BchCode ref(10, 8, 512, KernelMode::kReference);
  static const ecc::BchCode opt(10, 8, 512, KernelMode::kOptimized);
  return mode == KernelMode::kReference ? ref : opt;
}

BitVec random_payload(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

/// Received words the decode benchmarks cycle through (a power of two).
constexpr std::size_t kRingWords = 64;

/// kRingWords copies of `clean`, each with `nerr` random bit flips, built
/// outside the timed loop. Each iteration then copies one word of the
/// ring (10 64-bit words for the 592-bit line) and decodes the copy
/// without pausing the timer, so the copy is part of the reported time.
std::vector<BitVec> corrupted_ring(const BitVec& clean, unsigned nerr,
                                   Rng& rng) {
  std::vector<BitVec> ring(kRingWords, clean);
  for (BitVec& cw : ring) {
    for (unsigned i = 0; i < nerr; ++i) cw.flip(rng.uniform_below(cw.size()));
  }
  return ring;
}

void BM_BchEncode(benchmark::State& state) {
  Rng rng(1);
  const BitVec data = random_payload(rng, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bch8().encode(data));
  }
}
BENCHMARK(BM_BchEncode);

void BM_BchSyndromeClean(benchmark::State& state) {
  Rng rng(2);
  const BitVec cw = bch8().encode(random_payload(rng, 512));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bch8().is_codeword(cw));
  }
}
BENCHMARK(BM_BchSyndromeClean);

void BM_BchDecode(benchmark::State& state) {
  const unsigned nerr = static_cast<unsigned>(state.range(0));
  Rng rng(3);
  const std::vector<BitVec> ring =
      corrupted_ring(bch8().encode(random_payload(rng, 512)), nerr, rng);
  BitVec cw;
  std::size_t i = 0;
  for (auto _ : state) {
    cw = ring[i++ % kRingWords];
    benchmark::DoNotOptimize(bch8().decode(cw));
  }
}
BENCHMARK(BM_BchDecode)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_DriftCellErrorProb(benchmark::State& state) {
  const drift::ErrorModel model(drift::r_metric());
  double t = 1.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.avg_cell_error_prob(t));
    t = t < 1e6 ? t * 1.37 : 1.5;
  }
}
BENCHMARK(BM_DriftCellErrorProb);

void BM_DriftLerTail(benchmark::State& state) {
  const drift::LerCalculator calc{drift::ErrorModel(drift::r_metric())};
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.ler(8, 640.0));
  }
}
BENCHMARK(BM_DriftLerTail);

void BM_CellErrorTableLookup(benchmark::State& state) {
  const drift::ErrorModel model(drift::r_metric());
  const drift::CellErrorTable table(model);
  double t = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.prob(t));
    t = t < 1e6 ? t * 1.01 : 2.0;
  }
}
BENCHMARK(BM_CellErrorTableLookup);

void BM_MlcLineWriteRead(benchmark::State& state) {
  Rng rng(5);
  const drift::MetricConfig cfg = drift::r_metric();
  pcm::MlcLine line(592);
  const BitVec data = random_payload(rng, 592);
  for (auto _ : state) {
    line.write_full(data, 0.0, rng, cfg);
    benchmark::DoNotOptimize(line.read(640.0, cfg));
  }
}
BENCHMARK(BM_MlcLineWriteRead);

void BM_ZipfDraw(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(1u << 20, 0.7));
  }
}
BENCHMARK(BM_ZipfDraw);

void BM_TraceGen(benchmark::State& state) {
  trace::TraceGen gen(trace::workload_by_name("mcf"), 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_TraceGen);

// --- Kernel before/after pairs (DESIGN.md §10) ----------------------------
//
// Each pair runs the identical workload through the reference and the
// optimized implementation; the ratio is the serial speedup of that
// kernel on this host. Registered with Kernel_<name>_{ref,opt} names so
// run_all_benches.sh can group them mechanically.

void BM_KernelBchSyndrome(benchmark::State& state, KernelMode mode) {
  Rng rng(21);
  const ecc::BchCode& code = bch8_mode(mode);
  BitVec cw = code.encode(random_payload(rng, 512));
  // 8 errors: the syndrome pass always scans the full word either way;
  // errors keep the decode-representative bit mix.
  for (int i = 0; i < 8; ++i) cw.flip(rng.uniform_below(cw.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.compute_syndromes(cw));
  }
}
BENCHMARK_CAPTURE(BM_KernelBchSyndrome, ref, KernelMode::kReference)
    ->Name("Kernel_bch_syndrome_ref");
BENCHMARK_CAPTURE(BM_KernelBchSyndrome, opt, KernelMode::kOptimized)
    ->Name("Kernel_bch_syndrome_opt");

void BM_KernelBchDecode8(benchmark::State& state, KernelMode mode) {
  Rng rng(22);
  const ecc::BchCode& code = bch8_mode(mode);
  const std::vector<BitVec> ring =
      corrupted_ring(code.encode(random_payload(rng, 512)), 8, rng);
  BitVec cw;
  std::size_t i = 0;
  for (auto _ : state) {
    cw = ring[i++ % kRingWords];
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK_CAPTURE(BM_KernelBchDecode8, ref, KernelMode::kReference)
    ->Name("Kernel_bch_decode8_ref");
BENCHMARK_CAPTURE(BM_KernelBchDecode8, opt, KernelMode::kOptimized)
    ->Name("Kernel_bch_decode8_opt");

void BM_KernelMlcLineRead(benchmark::State& state, KernelMode mode) {
  Rng rng(23);
  const drift::MetricConfig cfg = drift::r_metric();
  pcm::MlcLine line(592);
  line.write_full(random_payload(rng, 592), 0.0, rng, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(line.read(640.0, cfg, mode));
  }
}
BENCHMARK_CAPTURE(BM_KernelMlcLineRead, ref, KernelMode::kReference)
    ->Name("Kernel_mlc_line_read_ref");
BENCHMARK_CAPTURE(BM_KernelMlcLineRead, opt, KernelMode::kOptimized)
    ->Name("Kernel_mlc_line_read_opt");

void BM_KernelMlcChipSense(benchmark::State& state, KernelMode mode) {
  // The chip's and the scrub's access pattern: 1024 written lines sensed
  // in a seeded random order. The lines' cells span ~10 MB, so each sense
  // starts cache-cold and its level decisions are unpredictable, which
  // Kernel_mlc_line_read's one hot line hides.
  constexpr std::size_t kLines = 1024;
  Rng rng(24);
  const drift::MetricConfig cfg = drift::r_metric();
  std::vector<pcm::MlcLine> lines(kLines, pcm::MlcLine(592));
  for (pcm::MlcLine& line : lines) {
    line.write_full(random_payload(rng, 592), 0.0, rng, cfg);
  }
  std::vector<std::size_t> order(4 * kLines);
  for (std::size_t& l : order) l = rng.uniform_below(kLines);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lines[order[next]].read(640.0, cfg, mode));
    next = next + 1 == order.size() ? 0 : next + 1;
  }
}
BENCHMARK_CAPTURE(BM_KernelMlcChipSense, ref, KernelMode::kReference)
    ->Name("Kernel_mlc_chip_sense_ref");
BENCHMARK_CAPTURE(BM_KernelMlcChipSense, opt, KernelMode::kOptimized)
    ->Name("Kernel_mlc_chip_sense_opt");

void BM_KernelDriftErrorScan(benchmark::State& state, KernelMode mode) {
  // The Monte-Carlo LER / Figure 6 inner loop: count misread cells of a
  // written line at many ages. One log10 per age in the batched kernel,
  // one per (age, cell) in the reference.
  Rng rng(23);
  const drift::MetricConfig cfg = drift::r_metric();
  pcm::MlcLine line(592);
  line.write_full(random_payload(rng, 592), 0.0, rng, cfg);
  for (auto _ : state) {
    std::size_t errors = 0;
    for (int i = 0; i < 64; ++i) {
      errors += line.count_drift_errors(64.0 * (i + 1), cfg, mode);
    }
    benchmark::DoNotOptimize(errors);
  }
}
BENCHMARK_CAPTURE(BM_KernelDriftErrorScan, ref, KernelMode::kReference)
    ->Name("Kernel_drift_error_scan_ref");
BENCHMARK_CAPTURE(BM_KernelDriftErrorScan, opt, KernelMode::kOptimized)
    ->Name("Kernel_drift_error_scan_opt");

void BM_SimulatorRun(benchmark::State& state) {
  const auto& w = trace::workload_by_name("bzip2");
  for (auto _ : state) {
    memsim::SimConfig cfg;
    cfg.instructions_per_core = 200'000;
    readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, 1);
    auto scheme =
        readduo::make_scheme(readduo::SchemeKind::kHybrid, env);
    memsim::Simulator sim(cfg, *scheme, w);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulatorRun)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() plus the kernel tier as report context.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record the process-wide kernel tier (what the untiered rows ran) in
  // the report context; run_all_benches.sh copies it into its summary.
  benchmark::AddCustomContext(
      "readduo_kernels",
      kernels_mode() == KernelMode::kReference ? "reference" : "optimized");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
