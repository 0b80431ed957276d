#!/bin/sh
# Regenerate every table and figure of the paper, in order: bench_paper
# prints them all, with the ablations and extensions, computing its
# full-system runs fresh as one batch that simulates each distinct run once
# over the READDUO_THREADS pool (default: all cores; =1 forces serial
# execution). Per-bench and total wall-clock are printed so perf changes
# have a trajectory to cite, and the per-bench "== harness:" self-metrics
# lines (runs, simulated wall-clock) are aggregated into a final summary.
#
# READDUO_BENCH_JSON=path additionally runs bench_micro (the kernel
# micro-benchmarks; skipped otherwise) and writes a machine-readable
# summary: per-bench wall-clock, the Kernel_*_{ref,opt} pairs bench_micro
# times for every rewritten hot-path kernel (DESIGN.md §10) with their
# serial speedups, the process-wide kernel tier, host core count, a
# thread-scaling curve (bench_paper
# wall-clock at READDUO_THREADS in {1,2,4,8}, capped at the host core
# count, scheme and sampler builds included), a service thread-scaling
# curve (readduo_load --requests=2000000 --seed=7 wall-clock at
# READDUO_THREADS in {1,2,4}, same cap), and a "service" section: the
# READDUO_METRICS summary of one fixed-seed readduo_load run (service-level
# p50/p95/p99, DESIGN.md §11).
# BENCH_pr24.json was produced this way; it is the perf gate's baseline.
#
# READDUO_BENCH_COMPARE=<baseline.json> gates the run on the perf budget:
# after writing READDUO_BENCH_JSON (required), the kernels_ns sections of
# baseline and fresh summary are diffed with tools/bench_compare, and any
# kernel metric more than 10% slower fails the script.
set -e
cd "$(dirname "$0")"

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

json_out=${READDUO_BENCH_JSON:-}
compare_base=${READDUO_BENCH_COMPARE:-}
if [ -n "$compare_base" ]; then
  if [ -z "$json_out" ]; then
    echo "READDUO_BENCH_COMPARE needs READDUO_BENCH_JSON=<path> set too" >&2
    exit 1
  fi
  if [ ! -f "$compare_base" ]; then
    echo "READDUO_BENCH_COMPARE baseline not found: $compare_base" >&2
    exit 1
  fi
fi

harness_log=$(mktemp)
bench_times=$(mktemp)
kernel_json=$(mktemp)
scaling_times=$(mktemp)
service_scaling_times=$(mktemp)
service_json=$(mktemp)
service_net_json=$(mktemp)
trap 'rm -f "$harness_log" "$bench_times" "$kernel_json" "$scaling_times" \
            "$service_scaling_times" "$service_json" "$service_net_json"' EXIT

benches="bench_paper"
# bench_micro times the hot-path kernels and regenerates no paper
# artefact, so it runs only when the JSON summary asks for kernel numbers.
if [ -n "$json_out" ]; then
  benches="$benches bench_micro"
fi

total_start=$(now_ms)
for b in $benches; do
  echo "##### $b #####"
  bench_start=$(now_ms)
  if [ "$b" = bench_micro ] && [ -n "$json_out" ]; then
    # Ask google-benchmark for its JSON report so the kernel ref/opt
    # pairs can be extracted mechanically below.
    "./build/bench/$b" --benchmark_out="$kernel_json" \
        --benchmark_out_format=json | tee -a "$harness_log"
  else
    "./build/bench/$b" | tee -a "$harness_log"
  fi
  bench_end=$(now_ms)
  echo "----- $b: $(( bench_end - bench_start )) ms"
  echo "$b $(( bench_end - bench_start ))" >> "$bench_times"
  echo
done
total_end=$(now_ms)
echo "===== total wall-clock: $(( total_end - total_start )) ms" \
     "(READDUO_THREADS=${READDUO_THREADS:-auto})"

# Thread-scaling curve for the JSON summary: re-run one representative
# full-system sweep at fixed widths: bench_paper's 248-run batch. It also
# builds the Scrubbing and M-metric steady-state samplers, so a build that
# does not scale shows here. Every point pays the whole simulation and
# every build; widths above the core count are skipped (they would measure
# oversubscription noise, not scaling).
if [ -n "$json_out" ]; then
  scaling_bench=bench_paper
  for t in 1 2 4 8; do
    if [ "$t" -gt "$(nproc)" ]; then continue; fi
    echo "##### thread scaling: $scaling_bench READDUO_THREADS=$t #####"
    scale_start=$(now_ms)
    READDUO_THREADS=$t "./build/bench/$scaling_bench" > /dev/null
    scale_end=$(now_ms)
    echo "----- $scaling_bench threads=$t: $(( scale_end - scale_start )) ms"
    echo "$t $(( scale_end - scale_start ))" >> "$scaling_times"
  done
fi

# Service thread-scaling curve: the in-process service at fixed worker
# counts, one 2M-request run each (widths above the core count skipped).
# The service's wake path is what grows with the worker count, so a wake
# that reaches more workers than the one with work shows as a rising curve.
if [ -n "$json_out" ]; then
  if [ ! -x ./build/tools/readduo_load ]; then
    cmake --build build --target readduo_load -j
  fi
  for t in 1 2 4; do
    if [ "$t" -gt "$(nproc)" ]; then continue; fi
    echo "##### service thread scaling: readduo_load READDUO_THREADS=$t #####"
    scale_start=$(now_ms)
    READDUO_THREADS=$t ./build/tools/readduo_load --requests=2000000 \
        --seed=7 --report-every=0 > /dev/null
    scale_end=$(now_ms)
    echo "----- readduo_load threads=$t: $(( scale_end - scale_start )) ms"
    echo "$t $(( scale_end - scale_start ))" >> "$service_scaling_times"
  done
fi

# Service-level latency sample for the JSON summary: one fixed-seed
# readduo_load run. The virtual-time percentiles are deterministic for
# the (seed, flags) pair; only the wall-clock fields vary per host.
if [ -n "$json_out" ]; then
  echo "##### service: readduo_load #####"
  svc_start=$(now_ms)
  ./build/tools/readduo_load --requests=200000 --report-every=0 --seed=7 \
      --summary="$service_json" > /dev/null
  svc_end=$(now_ms)
  echo "----- readduo_load: $(( svc_end - svc_start )) ms"
fi

# Wire-path latency sample: the same fixed-seed run served over a socket
# (readduo_serve --oneshot, three readduo_load --connect clients). Its
# virtual-time percentiles must match the in-process "service" section
# bit-for-bit (DESIGN.md §12); only wall-clock and the wire transport
# counters differ.
if [ -n "$json_out" ]; then
  if [ ! -x ./build/tools/readduo_serve ]; then
    cmake --build build --target readduo_serve -j
  fi
  echo "##### service_net: readduo_serve + readduo_load --connect #####"
  net_start=$(now_ms)
  serve_sock="unix:$(mktemp -u)"
  serve_log=$(mktemp)
  ./build/tools/readduo_serve --oneshot --seed=7 \
      --listen="$serve_sock" > "$serve_log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "READDUO_SERVE listening" "$serve_log" 2>/dev/null && break
    sleep 0.1
  done
  ./build/tools/readduo_load --connect="$serve_sock" --clients=3 \
      --requests=200000 --report-every=0 --seed=7 \
      --summary="$service_net_json" > /dev/null
  wait "$serve_pid"
  rm -f "$serve_log"
  net_end=$(now_ms)
  echo "----- readduo_serve + readduo_load --connect:" \
       "$(( net_end - net_start )) ms"
fi

# Roll up the harness self-metrics every bench printed at exit.
awk '
  /^== harness:/ {
    for (i = 3; i <= NF; ++i) {
      split($i, kv, "=")
      if (kv[1] == "runs")        runs   += kv[2]
      if (kv[1] == "sim_wall_ms") simms  += kv[2]
      if (kv[1] == "threads")     threads = kv[2]
    }
    benches += 1
  }
  END {
    printf "===== harness totals: benches=%d runs=%d sim_wall_ms=%d threads=%d\n", \
           benches, runs, simms, threads
  }
' "$harness_log"

# Optional machine-readable summary (see header).
if [ -n "$json_out" ]; then
  # The active device name: read from the READDUO_DEVICE config when the
  # sweep ran against one, else the builtin (DESIGN.md §13). Every run in
  # the summary used this device: each bench computes its runs fresh.
  if [ -n "${READDUO_DEVICE:-}" ]; then
    device_name=$(sed -n 's/^name[[:space:]]*=[[:space:]]*//p' \
                  "$READDUO_DEVICE" | head -1)
    device_name=${device_name:-unknown}
  else
    device_name=pcm-readduo-t1
  fi
  awk -v total_ms="$(( total_end - total_start ))" \
      -v cores="$(nproc)" \
      -v device="$device_name" \
      -v threads="${READDUO_THREADS:-auto}" \
      -v instr="${READDUO_INSTR:-default}" \
      -v date="$(date +%Y-%m-%d)" \
      -v benchfile="$bench_times" \
      -v kernelfile="$kernel_json" \
      -v scalingfile="$scaling_times" \
      -v scalingbench="$scaling_bench" \
      -v servicescalingfile="$service_scaling_times" \
      -v servicefile="$service_json" \
      -v servicenetfile="$service_net_json" '
  BEGIN {
    # Per-bench wall-clock, in run order.
    npb = 0
    while ((getline line < benchfile) > 0) {
      split(line, a, " ")
      pb[++npb] = a[1]
      pbms[a[1]] = a[2]
    }
    # Thread-scaling wall-clock points (threads, ms), in run order.
    nsc = 0
    while ((getline line < scalingfile) > 0) {
      split(line, a, " ")
      sct[++nsc] = a[1]
      scms[a[1]] = a[2]
    }
    # The same for the readduo_load points.
    nss = 0
    while ((getline line < servicescalingfile) > 0) {
      split(line, a, " ")
      sst[++nss] = a[1]
      ssms[a[1]] = a[2]
    }
    # The readduo_load summary is already a JSON object (one key per
    # line); it is inlined verbatim under "service" with re-indentation.
    nsv = 0
    while ((getline line < servicefile) > 0) svc[++nsv] = line
    # Same for the wire-path run ("service_net").
    nsn = 0
    while ((getline line < servicenetfile) > 0) svn[++nsn] = line
    # Kernel_<name>_{ref,opt} real_time entries plus the custom context
    # key (active tier) from the google-benchmark JSON report. bench_micro
    # registers one pair per rewritten kernel.
    name = ""; nk = 0; tier = "unknown"
    while ((getline line < kernelfile) > 0) {
      if (line ~ /"readduo_kernels":/) {
        gsub(/.*"readduo_kernels": "/, "", line); gsub(/".*/, "", line)
        tier = line
      } else if (line ~ /^ *"name":/) {
        gsub(/.*"name": "/, "", line); gsub(/".*/, "", line)
        name = line
      } else if (line ~ /^ *"real_time":/ && name ~ /^Kernel_/) {
        gsub(/.*"real_time": /, "", line); gsub(/,.*/, "", line)
        k = substr(name, 8, length(name) - 11)
        if (name ~ /_ref$/) { ref[k] = line + 0 }
        else if (name ~ /_opt$/) {
          opt[k] = line + 0
          if (!(k in seen)) { seen[k] = 1; order[++nk] = k }
        }
        name = ""
      }
    }
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"device\": \"%s\",\n", device
    printf "  \"host\": {\"cores\": %d, \"os\": \"linux\"},\n", cores
    printf "  \"env\": {\"READDUO_THREADS\": \"%s\", \"READDUO_INSTR\": \"%s\"},\n", threads, instr
    printf "  \"total_wall_ms\": %d,\n", total_ms
    printf "  \"per_bench_ms\": {\n"
    for (i = 1; i <= npb; ++i) {
      printf "    \"%s\": %d%s\n", pb[i], pbms[pb[i]], i < npb ? "," : ""
    }
    printf "  },\n"
    printf "  \"thread_scaling\": {\n"
    printf "    \"bench\": \"%s\",\n", scalingbench
    printf "    \"wall_ms\": {"
    for (i = 1; i <= nsc; ++i) {
      printf "\"%s\": %d%s", sct[i], scms[sct[i]], i < nsc ? ", " : ""
    }
    printf "}\n"
    printf "  },\n"
    printf "  \"service_thread_scaling\": {\n"
    printf "    \"run\": \"readduo_load --requests=2000000 --seed=7\",\n"
    printf "    \"wall_ms\": {"
    for (i = 1; i <= nss; ++i) {
      printf "\"%s\": %d%s", sst[i], ssms[sst[i]], i < nss ? ", " : ""
    }
    printf "}\n"
    printf "  },\n"
    if (nsv > 0) {
      printf "  \"service\": "
      for (i = 1; i <= nsv; ++i) {
        line = svc[i]
        if (i == 1)        printf "%s\n", line          # "{"
        else if (i == nsv) printf "  %s,\n", line       # "}" -> "  },"
        else               printf "  %s\n", line
      }
    }
    if (nsn > 0) {
      printf "  \"service_net\": "
      for (i = 1; i <= nsn; ++i) {
        line = svn[i]
        if (i == 1)        printf "%s\n", line          # "{"
        else if (i == nsn) printf "  %s,\n", line       # "}" -> "  },"
        else               printf "  %s\n", line
      }
    }
    printf "  \"kernel_env\": {\"tier\": \"%s\"},\n", tier
    printf "  \"kernels_ns\": {\n"
    for (i = 1; i <= nk; ++i) {
      k = order[i]
      printf "    \"%s\": {\"ref\": %.0f, \"opt\": %.0f", k, ref[k], opt[k]
      printf ", \"speedup\": %.2f}%s\n", ref[k] / opt[k], i < nk ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
  }' > "$json_out"
  echo "===== wrote $json_out"
fi

# Opt-in perf gate: fail the sweep if any kernel metric regressed by more
# than 10% against the named baseline summary.
if [ -n "$compare_base" ]; then
  echo "===== perf gate: comparing $json_out against $compare_base"
  if ! ./build/tools/bench_compare "$compare_base" "$json_out"; then
    echo "===== perf gate FAILED (see bench_compare output above)" >&2
    exit 1
  fi
fi
