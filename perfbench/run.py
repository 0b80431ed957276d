#!/usr/bin/env python3
"""Run one workload of the ReadDuo benchmark and print its result line.

    python3 perfbench/run.py --workload <sweep|service|wire|chip> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds perfbench/ (which compiles
the repository's libraries from src/) into .bench_build/, repeats the
workload's set-up in separate processes, runs the timed part once, checks
the outputs, and prints one JSON object as its last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
FINGERPRINTS = BUILD / "fingerprints.json"

WORKLOADS = ("sweep", "service", "wire", "chip")
# Set-up is repeated in this many processes in all (the timed one
# included), one after another, and reported as the median. Sweep set-up
# is ~15 s, so it gets the fewest that still give a median.
SETUPS = {"sweep": 3, "service": 5, "wire": 5, "chip": 5}
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 100
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT}; cannot build", 2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)


def clean_env():
    # READDUO_* knobs (threads, kernel tier, faults, device...) would make
    # runs incomparable; the program runs on its defaults.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("READDUO_")}


def run_binary(args, timeout):
    """Run the benchmark binary; return (other stdout lines, result)."""
    p = subprocess.Popen([str(BINARY)] + args, cwd=ROOT, env=clean_env(),
                         stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out = p.communicate(timeout=timeout)[0]
    finally:
        if p.poll() is None:
            p.kill()
        p.wait()
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        fail(f"perfbench {' '.join(args)} exited {p.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparseable result line: {lines[-1]!r}")


def binary_digest():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


def fingerprint_seen(workload, seed, fingerprint):
    """Record the run's virtual-time fingerprint. Return "first", "same",
    or "differs" if the same binary printed another one for the same
    workload and seed before."""
    key = f"{binary_digest()}:{workload}:{seed}"
    seen = {}
    if FINGERPRINTS.is_file():
        seen = json.loads(FINGERPRINTS.read_text())
    if key in seen:
        return "same" if seen[key] == fingerprint else "differs"
    seen[key] = fingerprint
    tmp = FINGERPRINTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(FINGERPRINTS)
    return "first"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing", 2)
    spec = json.loads(spec_path.read_text())
    build()

    def args_for(i):
        # The socket (wire, and the traced sweep's wire probe) is relative
        # to the checkout root, which is the binary's cwd.
        return ["--workload", a.workload, "--seed", str(a.seed),
                "--socket", f".bench_build/pb-{os.getpid()}-{i}.sock"]

    setups = []
    if not a.trace:
        for i in range(1, SETUPS[a.workload]):
            _, res = run_binary(args_for(i) + ["--setup-only"],
                                SETUP_TIMEOUT_S)
            setups.append(res["setup_s"])
    args = args_for(0) + ["--seconds", str(a.seconds),
                          "--trace", str(a.trace)]
    lines, res = run_binary(args, a.seconds + RUN_GRACE_S)
    setups.append(res["setup_s"])
    for line in lines:
        print(line)

    seen = fingerprint_seen(a.workload, a.seed, res["fingerprint"])
    print(f"[perfbench] fingerprint={res['fingerprint']} ({seen}: "
          f"against earlier runs of this binary, workload and seed)")
    if not a.trace:
        print(f"[perfbench] setup_s over {len(setups)} set-ups: "
              + " ".join(f"{s:.4f}" for s in setups))
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = res["checks_ok"] and seen != "differs" and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
