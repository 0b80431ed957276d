// Seeded violations for the kernel-tier knobs: near-miss names that look
// like the real READDUO_KERNELS / READDUO_BENCH_JSON knobs but are not in
// the registry must still be flagged — a typo in a tier override would
// otherwise silently run the default kernel tier.
const char* kTypoKernels = "READDUO_KERNEL";  // expect: env-registry
const char* kTypoJson = "READDUO_BENCHJSON";  // expect: env-registry
// The real knobs are registered: no findings.
const char* kKernels = "READDUO_KERNELS";
const char* kJson = "READDUO_BENCH_JSON";
const char* kGate = "READDUO_BENCH_COMPARE";
