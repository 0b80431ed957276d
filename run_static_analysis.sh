#!/usr/bin/env bash
# Single-command static-analysis gate. Stages, in order:
#
#   1. readduo_lint repo scan + fixture self-test (determinism, units,
#      env-registry, and the concurrency-discipline rules: no-bare-mutex,
#      guarded-field, atomic-order, no-detach — DESIGN.md §8).
#   2. clang-tidy (bugprone-*, performance-*, plus concurrency-* for the
#      service/stats TUs via subdirectory .clang-tidy files). Configures
#      its own build-tidy/ tree so the user's main build cache is never
#      mutated under them.
#   3. Clang thread-safety annotation build: the whole tree compiled with
#      clang++ -DREADDUO_THREAD_SAFETY=ON (-Werror=thread-safety), plus
#      two probe TUs — tests/annotation_probes/ok_guarded.cpp must
#      compile and bad_guarded.cpp must FAIL, proving the analysis is
#      armed, not silently inert. Skipped (with a notice) when the host
#      has no clang++; the annotations themselves still compile under GCC
#      as no-ops in every other stage.
#   4. Sanitizer matrix: the fixed-seed readduo_load service soak under
#      TSan (100k requests), with its virtual-time metrics diffed
#      bit-for-bit against the plain build's run — instrumentation must
#      not change results — and the sampler-cache race test
#      (Schemes.ConcurrentSamplerBuildsFinishAndAgree: a plain thread and
#      pool shards build one sampler at once) under TSan.
#      READDUO_TSAN_SOAK=0 skips just these TSan runs (e.g. on hosts where
#      TSan is unavailable); the UBSan bench smoke then still runs.
#
# CI and the verify skill both run exactly this.
#
# Usage: ./run_static_analysis.sh [build-dir]          (default: build)
#   SKIP_SANITIZER_SMOKE=1   skip the whole sanitizer matrix (e.g. when
#                            the caller already ran a sanitized suite)
#   READDUO_TSAN_SOAK=0      skip only the TSan service soak and race test
set -u
cd "$(dirname "$0")"
BUILD=${1:-build}
failures=0
skipped=0

step() { printf '\n== %s\n' "$*"; }
# Print why a stage did not run and count it; skips never fail the gate.
skip() { printf '%s\n' "$@"; skipped=$((skipped + 1)); }

step "readduo_lint: repo-wide invariant scan"
if [ ! -x "$BUILD/tools/readduo_lint" ]; then
  cmake -B "$BUILD" -S . && cmake --build "$BUILD" --target readduo_lint -j || exit 1
fi
"$BUILD/tools/readduo_lint" . || failures=$((failures + 1))

step "readduo_lint: fixture self-test"
"$BUILD/tools/readduo_lint" --selftest tests/lint_fixtures \
  || failures=$((failures + 1))

step "clang-tidy (bugprone-*, performance-*; warnings-as-errors)"
TIDY=$(command -v clang-tidy || true)
if [ -n "$TIDY" ]; then
  # A dedicated configure: exporting compile commands must not rewrite
  # the cache of whatever build tree the user is working in.
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null \
    || failures=$((failures + 1))
  # Library + harness sources only; tests inherit their quality from these.
  if ! find src bench/harness.cpp tools -name '*.cpp' -print0 \
      | xargs -0 -n 8 "$TIDY" -p build-tidy --quiet; then
    failures=$((failures + 1))
  fi
else
  skip "clang-tidy not installed — skipping (lint + annotations still run)"
fi

step "clang thread-safety analysis (-Werror=thread-safety)"
CLANGXX=$(command -v clang++ || true)
if [ -n "$CLANGXX" ]; then
  if cmake -B build-annotate -S . -DCMAKE_CXX_COMPILER="$CLANGXX" \
       -DREADDUO_THREAD_SAFETY=ON > /dev/null \
     && cmake --build build-annotate -j; then
    echo "-- annotated tree compiles clean under -Werror=thread-safety"
  else
    echo "thread-safety: annotated build failed"
    failures=$((failures + 1))
  fi
  probe_flags=(-fsyntax-only -std=c++20 -Isrc
               -Wthread-safety -Werror=thread-safety)
  if "$CLANGXX" "${probe_flags[@]}" tests/annotation_probes/ok_guarded.cpp
  then
    echo "-- positive probe ok_guarded.cpp compiles"
  else
    echo "thread-safety: positive probe failed to compile"
    failures=$((failures + 1))
  fi
  if "$CLANGXX" "${probe_flags[@]}" tests/annotation_probes/bad_guarded.cpp \
       2> /dev/null; then
    echo "thread-safety: negative probe bad_guarded.cpp COMPILED — the"
    echo "analysis is not armed (annotations ignored?)"
    failures=$((failures + 1))
  else
    echo "-- negative probe bad_guarded.cpp rejected, as it must be"
  fi
else
  skip "clang++ not installed — skipping (annotations compile as no-ops" \
    "under GCC; the TSan soak below still checks the locking at runtime)"
fi

if [ "${SKIP_SANITIZER_SMOKE:-0}" != "1" ]; then
  if [ "${READDUO_TSAN_SOAK:-1}" != "0" ]; then
    step "sanitizer matrix: TSan service soak (readduo_load, fixed seed)"
    soak_dir=$(mktemp -d)
    if [ ! -x "$BUILD/tools/readduo_load" ]; then
      cmake --build "$BUILD" --target readduo_load -j || exit 1
    fi
    cmake -B build-tsan -S . -DREADDUO_SANITIZE=thread > /dev/null \
      && cmake --build build-tsan --target readduo_load test_readduo -j \
      || failures=$((failures + 1))
    for run in plain:"$BUILD" tsan:build-tsan; do
      name=${run%%:*}; tree=${run#*:}
      echo "-- readduo_load 100k requests ($name build)"
      READDUO_THREADS=4 "$tree/tools/readduo_load" --requests=100000 \
        --report-every=0 --seed=7 --summary="$soak_dir/soak_$name.json" \
        > /dev/null || failures=$((failures + 1))
    done
    # Virtual-time metrics must be bit-identical with TSan on: the
    # instrumentation may only change wall-clock and backpressure fields.
    if ! diff \
        <(grep -Ev 'wall|spins|rejected|threads' "$soak_dir/soak_plain.json") \
        <(grep -Ev 'wall|spins|rejected|threads' "$soak_dir/soak_tsan.json")
    then
      echo "TSan soak: instrumented metrics diverge from plain build"
      failures=$((failures + 1))
    fi
    rm -rf "$soak_dir"

    step "sanitizer matrix: TSan sampler-cache race (test_readduo)"
    # The timeout turns a deadlock into a failure instead of a hang.
    timeout 600 ./build-tsan/tests/test_readduo --gtest_brief=1 \
      --gtest_filter=Schemes.ConcurrentSamplerBuildsFinishAndAgree \
      || failures=$((failures + 1))
  else
    skip "READDUO_TSAN_SOAK=0 — skipping the TSan service soak and race test"
  fi

  step "sanitizer smoke: UBSan bench_paper at a small instruction budget"
  cmake -B build-ubsan -S . -DREADDUO_SANITIZE=undefined > /dev/null \
    && cmake --build build-ubsan --target bench_paper -j \
    && READDUO_INSTR=50000 ./build-ubsan/bench/bench_paper \
       > /dev/null \
    || failures=$((failures + 1))

  # The wire codec parses attacker-shaped bytes (length fields, offsets,
  # CRCs), so its round-trip + malformed-frame corpus runs under UBSan
  # too: any shift/overflow/OOB in the framing layer trips here.
  step "sanitizer smoke: UBSan test_wire (frame codec corpus)"
  cmake --build build-ubsan --target test_wire -j \
    && ./build-ubsan/tests/test_wire --gtest_brief=1 \
    || failures=$((failures + 1))
else
  step "sanitizer matrix"
  skip "SKIP_SANITIZER_SMOKE=1 — skipping the TSan soak and both UBSan smokes"
  skipped=$((skipped + 2))
fi

step "static analysis: $failures failing, $skipped skipped stage(s)"
exit "$((failures > 0))"
