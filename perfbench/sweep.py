#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 10] [--sets 1]

Runs ``run.py`` as ``BENCHMARK.json`` says, one process at a time, never in
parallel, for seeds 0 to ``--seeds`` - 1 of every chosen workload.  For each
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the interquartile
distance as a share of the median, which must stay within the metric's
bound.  With ``--sets 2`` the same seeds run twice; the second set's median
must lie within the bound of the first, in either direction, and each
seed's answer and work-count digests must be identical in both sets.  Exits
1 if any run fails or any of these checks does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ("answers_digest", "counts_digest")


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"sweep: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    digests = {}
    for line in lines:
        key, _, rest = line.partition(": ")
        if key in DIGESTS:
            digests[key] = rest.split()[0]
    return result, digests


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    declared = spec["end_to_end"]
    ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(args.seeds):
                result, digests = run_once(spec, workload, seed)
                ok &= result["correct"] and result["failed"] == 0
                runs.append((seed, result, digests))
                print(f"{workload} set {s} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v}" for k, v in digests.items()) + " "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in declared), flush=True)
            sets.append(runs)
        for s in range(1, len(sets)):
            for (seed, _, a), (_, _, b) in zip(sets[0], sets[s]):
                if a != b:
                    ok = False
                    print(f"{workload} seed {seed}: digests differ between sets: {a} vs {b}")
        print(f"{workload}: metric bound, then per set: median q1 q3 spread")
        for m in declared:
            bound = m["bound"]
            first = None
            line = f"  {m['name']} {bound}"
            for runs in sets:
                med, q1, q3, spread = summarize(
                    [r["metrics"][m["name"]]["value"] for _, r, _ in runs])
                line += f" | {med:.6g} {q1:.6g} {q3:.6g} {spread:.3f}"
                if spread > bound:
                    ok = False
                    line += " SPREAD ABOVE BOUND"
                elif spread > bound / 3:
                    line += " (above a third of the bound)"
                if first is None:
                    first = med
                elif abs(med - first) / first > bound:
                    ok = False
                    line += " MEDIAN DIFFERS FROM SET 1 BY MORE THAN THE BOUND"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
