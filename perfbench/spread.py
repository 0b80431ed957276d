#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload chip --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, for every end-to-end metric, the median of the
runs and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in a.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(a.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: run not correct: {out}", file=sys.stderr)
            sys.exit(1)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        b = bounds.get(name)
        limit = f" (bound/3 {b / 3:.4f})" if b else ""
        print(f"{a.workload:8s} {name:28s} median={med:.6g} "
              f"spread={share:.4f}{limit}")


if __name__ == "__main__":
    main()
