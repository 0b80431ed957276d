// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate: BCH codec, drift analytics, device Monte-Carlo, and the
// event-driven simulator core.
//
// The BM_Kernel_* benchmarks time each rewritten hot-path kernel in all
// its implementations — `_ref` (straight-line reference), `_opt`
// (table-driven / batched) and `_vec` (SoA + SIMD lanes: AVX2 where the
// host has it, else the scalar fallback) — in one binary, so every run is
// a self-contained before/after measurement. run_all_benches.sh extracts
// the triples into BENCH_pr6.json (see README "Profiling the hot paths").
//
// For a smoke run that only checks the benchmarks still execute, pass
// google-benchmark's own --benchmark_min_time=0.003 (run_test_sweep.sh
// does); the numbers it prints are NOT stable, never record them.
#include <benchmark/benchmark.h>

#include "common/kernels.h"
#include "common/rng.h"
#include "drift/error_model.h"
#include "ecc/bch.h"
#include "ecc/secded.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "pcm/line.h"
#include "pcm/mc_ler.h"
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
  static const ecc::BchCode vec(10, 8, 512, KernelMode::kVectorized);
  switch (mode) {
    case KernelMode::kReference: return ref;
    case KernelMode::kVectorized: return vec;
    default: return opt;
  }
}

BitVec random_payload(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
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
  const BitVec clean = bch8().encode(random_payload(rng, 512));
  for (auto _ : state) {
    state.PauseTiming();
    BitVec cw = clean;
    for (unsigned i = 0; i < nerr; ++i) {
      cw.flip(rng.uniform_below(cw.size()));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(bch8().decode(cw));
  }
}
BENCHMARK(BM_BchDecode)->Arg(0)->Arg(1)->Arg(4)->Arg(8);

void BM_Secded(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    std::uint64_t d = rng.next();
    std::uint8_t c = ecc::Secded7264::encode_checks(d);
    d ^= 1ull << (rng.next() % 64);
    benchmark::DoNotOptimize(ecc::Secded7264::decode(d, c));
  }
}
BENCHMARK(BM_Secded);

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

// --- Kernel before/after triples (DESIGN.md §10, §10.5) ------------------
//
// Each triple runs the identical workload through the reference, the
// optimized and the vectorized implementation; the ratios are the serial
// speedups of that kernel on this host. Registered with
// Kernel_<name>_{ref,opt,vec} names so run_all_benches.sh can group them
// mechanically. The _vec entries measure whatever SIMD level dispatch
// lands on (run_all_benches.sh records rd::simd_level() next to them);
// on a host without AVX2 they measure the fallback-to-optimized routing
// overhead instead.

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
BENCHMARK_CAPTURE(BM_KernelBchSyndrome, vec, KernelMode::kVectorized)
    ->Name("Kernel_bch_syndrome_vec");

void BM_KernelBchDecode8(benchmark::State& state, KernelMode mode) {
  Rng rng(22);
  const ecc::BchCode& code = bch8_mode(mode);
  const BitVec clean = code.encode(random_payload(rng, 512));
  for (auto _ : state) {
    state.PauseTiming();
    BitVec cw = clean;
    for (int i = 0; i < 8; ++i) cw.flip(rng.uniform_below(cw.size()));
    state.ResumeTiming();
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK_CAPTURE(BM_KernelBchDecode8, ref, KernelMode::kReference)
    ->Name("Kernel_bch_decode8_ref");
BENCHMARK_CAPTURE(BM_KernelBchDecode8, opt, KernelMode::kOptimized)
    ->Name("Kernel_bch_decode8_opt");
BENCHMARK_CAPTURE(BM_KernelBchDecode8, vec, KernelMode::kVectorized)
    ->Name("Kernel_bch_decode8_vec");

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
BENCHMARK_CAPTURE(BM_KernelMlcLineRead, vec, KernelMode::kVectorized)
    ->Name("Kernel_mlc_line_read_vec");

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
BENCHMARK_CAPTURE(BM_KernelDriftErrorScan, vec, KernelMode::kVectorized)
    ->Name("Kernel_drift_error_scan_vec");

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

// BENCHMARK_MAIN() plus the kernel tier and SIMD level as report context.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record the active kernel tier and SIMD dispatch level in the report
  // context, so a BENCH_*.json states what the _vec rows actually ran
  // (run_all_benches.sh copies both into its summary).
  const KernelMode resolved = resolve_kernel_mode(KernelMode::kAuto);
  benchmark::AddCustomContext(
      "readduo_kernels", resolved == KernelMode::kReference  ? "reference"
                         : resolved == KernelMode::kOptimized ? "optimized"
                                                              : "vector");
  benchmark::AddCustomContext("readduo_simd", simd_level_name(simd_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
