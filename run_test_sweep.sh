#!/usr/bin/env bash
# Flaky/determinism sweep: the lane CI runs on top of the plain suite.
#
#   1. `ctest --repeat until-fail:3` — every test runs three times, so a
#      test that only fails one run in three is caught here instead of
#      landing as intermittent CI noise.
#   2. A READDUO_THREADS ∈ {1, 4} re-run of the suites that pin the
#      bit-identity contract (test_parallel, test_metrics, test_faults):
#      the pool-sized path and the legacy serial path must agree on every
#      assertion, including with a live fault plan (test_faults runs its
#      FaultDeterminism case under both widths internally, and this lane
#      additionally re-runs the whole binary under each width).
#   3. A READDUO_KERNELS=reference re-run of the kernel-equivalence
#      suite: outputs must stay bit-identical when every optimized
#      hot-path kernel (DESIGN.md §10) is swapped for its straight-line
#      reference implementation. The golden suite is not re-run: it never
#      reaches BchCode, MlcLine, MlcChip or mc_ler, so no READDUO_KERNELS
#      value can change what it runs.
#   4. The same suite under READDUO_KERNELS=vector. Its Vector* cases run
#      each check twice in-process, at native SIMD dispatch and forced to
#      the scalar fallback, so the vectorized tier's decisions stay
#      bit-identical whatever the host CPU offers (DESIGN.md §10.5).
#   5. A smoke run of bench_micro with --benchmark_min_time=0.003: every
#      registered microbench (including the _vec rows) must still
#      execute; the numbers are sampled for milliseconds and thrown away.
#   6. A service soak: a short fixed-seed readduo_load run under 1 and 4
#      worker threads. The tool itself rc-checks that every submitted
#      request completed; the lane additionally pins the two runs'
#      virtual-time metrics against each other (the service determinism
#      contract, DESIGN.md §11).
#   7. Concurrency discipline: the readduo_lint fixture self-test (the
#      lock/atomic rules of DESIGN.md §8 must keep firing on their seeded
#      violations) and the same fixed-seed service soak under TSan, with
#      its virtual-time metrics pinned against the plain run.
#      READDUO_TSAN_SOAK=0 skips just the TSan half of this lane.
#   8. A socket soak: readduo_serve (--oneshot) with three readduo_load
#      --connect clients pushing the same fixed-seed 100k-request stream
#      over the wire, under 1 and 4 server worker threads. Both runs'
#      virtual-time metrics must be bit-identical to each other AND to
#      the in-process run of the same seed — the sequence-merge contract
#      (DESIGN.md §12): socket interleaving must not be observable. The
#      THREADS=4 run repeats with a TSan-built server unless
#      READDUO_TSAN_SOAK=0.
#   9. Device-config equivalence: the golden suite and the fixed-seed
#      service soak re-run under READDUO_DEVICE=configs/pcm_readduo_t1.cfg.
#      The file is the builtin device written down (DESIGN.md §13), so the
#      goldens must pass unchanged and the soak's virtual-time metrics
#      must be bit-identical to the default-device run.
#
# Usage: ./run_test_sweep.sh [build-dir] [ctest -R regex]
#   (default: build, all tests)
set -u
cd "$(dirname "$0")"
BUILD=${1:-build}
FILTER=${2:-}
failures=0
skipped=0

step() { printf '\n== %s\n' "$*"; }
# Print why a stage did not run and count it; skips never fail the sweep.
skip() { printf '%s\n' "$@"; skipped=$((skipped + 1)); }

if [ ! -f "$BUILD/CTestTestfile.cmake" ]; then
  cmake -B "$BUILD" -S . && cmake --build "$BUILD" -j || exit 1
fi

step "ctest --repeat until-fail:3 (flakiness lane)"
ctest_args=(--test-dir "$BUILD" --repeat until-fail:3 --output-on-failure
            -j "$(nproc)")
if [ -n "$FILTER" ]; then ctest_args+=(-R "$FILTER"); fi
ctest "${ctest_args[@]}" || failures=$((failures + 1))

step "thread-count bit-identity: READDUO_THREADS=1 vs =4"
for bin in test_parallel test_metrics test_faults; do
  if [ ! -x "$BUILD/tests/$bin" ]; then
    cmake --build "$BUILD" --target "$bin" -j || exit 1
  fi
  for t in 1 4; do
    echo "-- $bin (READDUO_THREADS=$t)"
    READDUO_THREADS=$t "$BUILD/tests/$bin" --gtest_brief=1 \
      || failures=$((failures + 1))
  done
done

if [ ! -x "$BUILD/tests/test_kernels" ]; then
  cmake --build "$BUILD" --target test_kernels -j || exit 1
fi
for kernels in reference vector; do
  step "kernel bit-identity: test_kernels under READDUO_KERNELS=$kernels"
  READDUO_KERNELS=$kernels "$BUILD/tests/test_kernels" --gtest_brief=1 \
    || failures=$((failures + 1))
done

step "microbench smoke: bench_micro --benchmark_min_time=0.003"
if [ ! -x "$BUILD/bench/bench_micro" ]; then
  cmake --build "$BUILD" --target bench_micro -j || exit 1
fi
"$BUILD/bench/bench_micro" --benchmark_min_time=0.003 > /dev/null \
  || failures=$((failures + 1))

step "service soak: readduo_load fixed-seed, THREADS=1 vs =4"
if [ ! -x "$BUILD/tools/readduo_load" ]; then
  cmake --build "$BUILD" --target readduo_load -j || exit 1
fi
soak_dir=$(mktemp -d)
for t in 1 4; do
  echo "-- readduo_load 100k requests (READDUO_THREADS=$t)"
  READDUO_THREADS=$t "$BUILD/tools/readduo_load" --requests=100000 \
    --report-every=0 --seed=7 --summary="$soak_dir/soak_$t.json" \
    > /dev/null || failures=$((failures + 1))
done
# Virtual-time metrics must be bit-identical across thread counts; only
# the wall-clock and backpressure fields may differ.
if ! diff <(grep -Ev 'wall|spins|rejected|threads' "$soak_dir/soak_1.json") \
          <(grep -Ev 'wall|spins|rejected|threads' "$soak_dir/soak_4.json")
then
  echo "service soak: THREADS=1 and =4 metrics diverge"
  failures=$((failures + 1))
fi
rm -rf "$soak_dir"

step "concurrency discipline: lint self-test + TSan service soak"
if [ ! -x "$BUILD/tools/readduo_lint" ]; then
  cmake --build "$BUILD" --target readduo_lint -j || exit 1
fi
"$BUILD/tools/readduo_lint" --selftest tests/lint_fixtures \
  || failures=$((failures + 1))
if [ "${READDUO_TSAN_SOAK:-1}" != "0" ]; then
  tsan_dir=$(mktemp -d)
  cmake -B build-tsan -S . -DREADDUO_SANITIZE=thread > /dev/null \
    && cmake --build build-tsan --target readduo_load -j \
    || failures=$((failures + 1))
  for run in plain:"$BUILD" tsan:build-tsan; do
    name=${run%%:*}; tree=${run#*:}
    echo "-- readduo_load 100k requests ($name build, READDUO_THREADS=4)"
    READDUO_THREADS=4 "$tree/tools/readduo_load" --requests=100000 \
      --report-every=0 --seed=7 --summary="$tsan_dir/soak_$name.json" \
      > /dev/null || failures=$((failures + 1))
  done
  # TSan reschedules threads aggressively; the virtual-time metrics must
  # not notice (the service determinism contract, DESIGN.md §11).
  if ! diff \
      <(grep -Ev 'wall|spins|rejected|threads' "$tsan_dir/soak_plain.json") \
      <(grep -Ev 'wall|spins|rejected|threads' "$tsan_dir/soak_tsan.json")
  then
    echo "TSan soak: instrumented metrics diverge from plain build"
    failures=$((failures + 1))
  fi
  rm -rf "$tsan_dir"
else
  skip "READDUO_TSAN_SOAK=0 — skipping the TSan service soak"
fi

step "socket soak: readduo_serve + readduo_load --connect, THREADS=1 vs =4"
for bin in readduo_serve readduo_load; do
  if [ ! -x "$BUILD/tools/$bin" ]; then
    cmake --build "$BUILD" --target "$bin" -j || exit 1
  fi
done
net_dir=$(mktemp -d)

# Start a oneshot server on $2, wait for readiness, push 100k requests
# through 3 wire clients with the load generator from $3, reap the server.
wire_soak() {
  local threads=$1 sock=$2 load_tree=$3 tag=$4
  READDUO_THREADS=$threads "$load_tree/tools/readduo_serve" --oneshot \
    --seed=7 --listen="$sock" > "$net_dir/serve_$tag.log" 2>&1 &
  local serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "READDUO_SERVE listening" "$net_dir/serve_$tag.log" 2>/dev/null \
      && break
    sleep 0.1
  done
  "$BUILD/tools/readduo_load" --connect="$sock" --clients=3 \
    --requests=100000 --report-every=0 --seed=7 \
    --summary="$net_dir/wire_$tag.json" > /dev/null \
    || failures=$((failures + 1))
  wait "$serve_pid" || failures=$((failures + 1))
}

echo "-- readduo_load 100k requests (in-process reference)"
"$BUILD/tools/readduo_load" --requests=100000 --report-every=0 --seed=7 \
  --summary="$net_dir/inproc.json" > /dev/null || failures=$((failures + 1))
for t in 1 4; do
  echo "-- readduo_serve + 3 wire clients, 100k requests (READDUO_THREADS=$t)"
  wire_soak "$t" "unix:$net_dir/serve_$t.sock" "$BUILD" "$t"
done
# Virtual-time metrics must be bit-identical across server thread counts
# AND against the in-process path: only wall-clock, backpressure, and the
# wire transport counters may differ (DESIGN.md §12).
wire_filter='wall|spins|rejected|threads|wire'
for pair in "wire_1:wire_4" "inproc:wire_1"; do
  a=${pair%%:*}; b=${pair#*:}
  if ! diff <(grep -Ev "$wire_filter" "$net_dir/$a.json") \
            <(grep -Ev "$wire_filter" "$net_dir/$b.json"); then
    echo "socket soak: $a and $b metrics diverge"
    failures=$((failures + 1))
  fi
done
if [ "${READDUO_TSAN_SOAK:-1}" != "0" ]; then
  cmake -B build-tsan -S . -DREADDUO_SANITIZE=thread > /dev/null \
    && cmake --build build-tsan --target readduo_serve -j \
    || failures=$((failures + 1))
  echo "-- readduo_serve (TSan build) + 3 wire clients (READDUO_THREADS=4)"
  wire_soak 4 "unix:$net_dir/serve_tsan.sock" build-tsan tsan
  if ! diff <(grep -Ev "$wire_filter" "$net_dir/wire_4.json") \
            <(grep -Ev "$wire_filter" "$net_dir/wire_tsan.json"); then
    echo "socket soak: TSan server metrics diverge from plain build"
    failures=$((failures + 1))
  fi
else
  skip "READDUO_TSAN_SOAK=0 — skipping the TSan socket soak"
fi
rm -rf "$net_dir"

step "device-config equivalence: READDUO_DEVICE=configs/pcm_readduo_t1.cfg"
# The golden config is the builtin device externalized; goldens and the
# service soak must not be able to tell the difference (DESIGN.md §13).
dev_cfg=configs/pcm_readduo_t1.cfg
for bin in test_golden test_config; do
  if [ ! -x "$BUILD/tests/$bin" ]; then
    cmake --build "$BUILD" --target "$bin" -j || exit 1
  fi
  echo "-- $bin (READDUO_DEVICE=$dev_cfg)"
  READDUO_DEVICE=$dev_cfg "$BUILD/tests/$bin" --gtest_brief=1 \
    || failures=$((failures + 1))
done
dev_dir=$(mktemp -d)
echo "-- readduo_load 100k requests (default device)"
"$BUILD/tools/readduo_load" --requests=100000 --report-every=0 --seed=7 \
  --summary="$dev_dir/default.json" > /dev/null || failures=$((failures + 1))
echo "-- readduo_load 100k requests (READDUO_DEVICE=$dev_cfg)"
READDUO_DEVICE=$dev_cfg "$BUILD/tools/readduo_load" --requests=100000 \
  --report-every=0 --seed=7 --summary="$dev_dir/golden_cfg.json" \
  > /dev/null || failures=$((failures + 1))
# builtin and t1 share one device name, so even the summaries' device
# fields agree: the runs must be bit-identical outside host weather.
if ! diff <(grep -Ev 'wall|spins|rejected|threads' "$dev_dir/default.json") \
          <(grep -Ev 'wall|spins|rejected|threads' "$dev_dir/golden_cfg.json")
then
  echo "device equivalence: $dev_cfg diverges from the builtin device"
  failures=$((failures + 1))
fi
rm -rf "$dev_dir"

step "test sweep: $failures failing, $skipped skipped stage(s)"
exit "$((failures > 0))"
