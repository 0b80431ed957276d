#!/usr/bin/env bash
# Fixed-seed service soak. Every run pushes the same 100k-request stream
# (seed 7) through a ReadDuo-Select memory service, and each run's
# virtual-time metrics must be bit-identical to the first run's: across
# worker-thread counts (DESIGN.md §11), socket interleavings (§12),
# devices that describe the same hardware (§13) and sanitizer builds.
# Only the fields in IGNORED may differ.
#
# Usage: tests/soak.sh <tools-dir> <run>...
#   <run> = <mode>[@<dir>][,VAR=VALUE...]
#     inproc  readduo_load from <dir> runs the service in its own process.
#     wire    readduo_serve --oneshot from <dir> listens on a loopback TCP
#             port; three readduo_load --connect clients from <tools-dir>
#             drive it.
#   <dir> defaults to <tools-dir>. VAR=VALUE pairs go to the run's
#   environment (both server and clients for a wire run).
#
# Examples:
#   tests/soak.sh build/tools inproc,READDUO_THREADS=1 inproc,READDUO_THREADS=4
#   tests/soak.sh build/tools inproc wire,READDUO_THREADS=1 wire,READDUO_THREADS=4
#   tests/soak.sh build/tools inproc \
#     inproc,READDUO_DEVICE=configs/pcm_readduo_t1.cfg
#
# Every process runs under `timeout`, and a server is killed and reaped on
# every exit path, so a client that cannot connect fails the soak instead
# of leaving a --oneshot server waiting forever.
set -u
if [ $# -lt 2 ]; then
  echo "usage: $0 <tools-dir> <run>..." >&2
  exit 2
fi
TOOLS=$1
shift

# Summary fields that may differ between runs: wall-clock, backpressure,
# the server's worker-thread count and the wire transport counters.
IGNORED='"(wall_ms|throughput_rps_wall|rejected_submissions|backpressure_spins|threads|wire_[a-z_]+)":'
# Select, not the tools' default Hybrid: at this length Hybrid's metrics
# do not depend on the shards' simulator seeds, so a seed that followed
# the worker thread would go unseen.
SERVICE_ARGS=(--scheme=Select --seed=7)
LOAD_ARGS=("${SERVICE_ARGS[@]}" --requests=100000 --report-every=0)
# Seconds any one process may take. A run takes under 4 s on a 4-core
# host even against a TSan build; the bound stays below the ctest
# TIMEOUT, so a hung run is killed and reaped here, not by ctest.
LIMIT=20

work=$(mktemp -d)
serve_pid=
cleanup() {
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2> /dev/null
    wait "$serve_pid" 2> /dev/null
  fi
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM HUP

# Start a oneshot server, wait for its listening line, drive it with three
# wire clients, then reap it. $1 = server dir, $2 = summary file, rest =
# environment.
wire_run() {
  local dir=$1 out=$2
  shift 2
  env "$@" timeout "$LIMIT" "$dir/readduo_serve" --oneshot \
    "${SERVICE_ARGS[@]}" --listen=tcp:127.0.0.1:0 > "$work/serve.log" 2>&1 &
  serve_pid=$!
  local addr=
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^READDUO_SERVE listening //p' "$work/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2> /dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "readduo_serve did not start listening:"
    cat "$work/serve.log"
    return 1
  fi
  local rc=0
  env "$@" timeout "$LIMIT" "$TOOLS/readduo_load" --connect="$addr" \
    --clients=3 "${LOAD_ARGS[@]}" --summary="$out" > /dev/null || rc=$?
  if [ "$rc" -eq 0 ]; then
    wait "$serve_pid" || rc=$?
    serve_pid=
  fi
  if [ "$rc" -ne 0 ]; then
    echo "exit $rc; readduo_serve log:"
    cat "$work/serve.log"
    return 1
  fi
}

failures=0
n=0
for run in "$@"; do
  IFS=, read -r -a parts <<< "$run"
  mode=${parts[0]%%@*}
  vars=("${parts[@]:1}")
  dir=$TOOLS
  if [ "${parts[0]}" != "$mode" ]; then dir=${parts[0]#*@}; fi
  out="$work/run_$n.json"
  echo "-- $run"
  case $mode in
    inproc)
      env "${vars[@]}" timeout "$LIMIT" "$dir/readduo_load" \
        "${LOAD_ARGS[@]}" --summary="$out" > /dev/null \
        || { echo "$run: readduo_load failed"; exit 1; }
      ;;
    wire)
      wire_run "$dir" "$out" "${vars[@]}" \
        || { echo "$run: wire soak failed"; exit 1; }
      ;;
    *)
      echo "$run: unknown mode '$mode' (inproc or wire)" >&2
      exit 2
      ;;
  esac
  if [ "$n" -gt 0 ] && ! diff <(grep -Ev "$IGNORED" "$work/run_0.json") \
              <(grep -Ev "$IGNORED" "$out"); then
    echo "$run: virtual-time metrics diverge from $1"
    failures=$((failures + 1))
  fi
  n=$((n + 1))
done
exit "$((failures > 0))"
