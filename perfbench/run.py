#!/usr/bin/env python3
"""nashflow benchmark: verified exact solves per second on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
One workload runs per process, in a closed loop from one thread: each
``solve`` starts when the previous one has returned.  The seed fixes the pool
of instances (see ``workloads.py``); the program receives them only as JSON.

``--trace 0`` solves the pool round-robin until ``--seconds`` of solve time
have passed, and at least once per instance.  Solve and check rates and the
median latency are taken over the pool, each instance timed by its mean, so
a partial last pass does not change the mix.  It reports the end-to-end
metrics: solves per second, the median solve latency, independent checks per
second, set-up time (median over fresh interpreters importing the package
and parsing the pool) and peak RSS.  Times and rates are scaled to the
reference host speed measured by ``HostSpeed``; the figures as measured are
printed beside them.  ``--trace 1`` solves each instance once untraced
and once traced, back to back, and reports the per-layer metrics and the
tracing overhead; the spans go to ``perfbench/out/``.

Outside the timed region every distinct answer is re-checked the way
``nashflow check`` does it.  A solve that raised, an answer the checker
rejects, or a repeat solve whose answer or work counts differ from the first
counts as failed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# Check time measured per run: short windows swing by a third on a shared host.
CHECK_SECONDS = 5.0

# Run in a fresh interpreter to time set-up: import, then parse the pool.
SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import nashflow
insts = [nashflow.parse_instance(d) for d in json.load(sys.stdin)]
print(len(insts), flush=True)
"""


def load_program():
    """Import nashflow from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "nashflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nashflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nashflow

    if Path(nashflow.__file__).resolve().parent != SRC / "nashflow":
        raise SystemExit(f"perfbench: imported nashflow from {nashflow.__file__}")
    return nashflow


def measure_setup(payload: str, count: int) -> float:
    """Seconds from spawning an interpreter until it has parsed the pool."""
    env = {k: v for k, v in os.environ.items() if k != "NASHFLOW_DEBUG"}
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    ) as proc:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != str(count):
        raise RuntimeError(f"set-up child failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def work_counts(sol) -> tuple:
    """The solver's own counts for one solve, from the public ``Solution.stats``."""
    stats = sol.stats
    detail = stats.get("detail", {})
    return (
        stats["phases"],
        stats["iterations"],
        stats["maxflows"],
        detail.get("fisher_phases", 0),
        detail.get("end_reasons", []).count("isolated"),
    )


COUNT_NAMES = ("solver.phases", "solver.iterations", "solver.maxflows",
               "solver.fisher_phases", "solver.freezes")


def _kernel():
    """Fixed pure-Python work of the solver's kind: Fractions, dicts, lcm."""
    acc, sums, total = Fraction(0), {}, 0
    for i in range(1, 3000):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc = acc + f if acc < 50 else acc - f
        key = (i % 31, i % 17)
        sums[key] = sums.get(key, 0) + i
        total += lcm(i % 60 + 1, i % 45 + 1)
    return acc, total


class HostSpeed:
    """How much slower than the reference speed the host runs during a run.

    On a shared 2-core host the speed of the same single-threaded Python
    code drifts by 20-50% between runs a minute apart, and a small kernel
    follows most of that drift.  A fixed kernel runs after each ``EVERY_S`` seconds
    of timed work, never inside a timed region, and ``slowdown`` is the
    ratio of its mean time to ``REFERENCE_S``, its time on the reference
    host.  Each phase of a run keeps its own, so that it follows the drift.

    The kernel runs with the cyclic garbage collector off, so that its time
    does not depend on how many objects the program keeps alive: a
    collection it triggered would walk the program's heap.  Everything it
    allocates is freed by reference counting when it returns.  No
    ``gc.collect()`` goes with it, since that would take collection work
    off the program's timed solves.
    """

    REFERENCE_S = 0.015
    EVERY_S = 0.25

    def __init__(self):
        self._due = self._time = 0.0
        self._runs = 0
        self.sample()

    def after(self, elapsed: float):
        self._due += elapsed
        if self._due >= self.EVERY_S:
            self._due = 0.0
            self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _kernel()
            self._time += perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self._runs += 1

    @property
    def slowdown(self) -> float:
        return self._time / self._runs / self.REFERENCE_S


def per_instance(times, counts) -> list:
    """Mean time per instance, so that a partial last pass weighs nothing extra."""
    return [t / n for t, n in zip(times, counts)]


class Pass:
    """Solve a pool round-robin; keep the first answer per instance."""

    def __init__(self, solver, insts):
        self.solver, self.insts = solver, insts
        self.first = [None] * len(insts)
        self.time = [0.0] * len(insts)
        self.count = [0] * len(insts)
        self.ok = [0] * len(insts)
        self.attempted = 0
        self.solve_time = 0.0

    def run(self, seconds: float, tick=None):
        """Solve round-robin until ``seconds`` of solve time, each instance at least once."""
        n = len(self.insts)
        while self.attempted < n or self.solve_time < seconds:
            dt = self.solve(self.attempted % n)
            if tick:
                tick(dt)
        return self

    def solve(self, idx: int) -> float:
        """Solve instance ``idx`` once; return its wall time."""
        t0 = perf_counter()
        try:
            sol = self.solver.solve(self.insts[idx])
        except Exception:
            sol = None
            traceback.print_exc(file=sys.stderr)
        dt = perf_counter() - t0
        self.attempted += 1
        self.solve_time += dt
        self.time[idx] += dt
        self.count[idx] += 1
        if sol is not None:
            if self.first[idx] is None:
                self.first[idx] = sol
                self.ok[idx] += 1
            elif same_answer(sol, self.first[idx]):
                self.ok[idx] += 1
        return dt


def same_answer(a, b) -> bool:
    return (a.verdict, a.p, a.v, work_counts(a)) == (b.verdict, b.p, b.v, work_counts(b))


def check_answers(solver, cli, insts, first, seconds=0.0, tick=None):
    """Emit each answer as JSON and re-check it as ``nashflow check`` does.

    The checks go round the answers until ``seconds`` of check time have
    passed, and check every answer at least once.  Returns the JSON texts,
    the indices of rejected answers, and the checks per second when each
    answer is checked once in its mean time.
    """
    docs = [None if sol is None else json.dumps(solver.solution_to_json(sol), sort_keys=True)
            for sol in first]
    claims = [(idx, json.loads(text)) for idx, text in enumerate(docs) if text is not None]
    rejected, check_time, checks = set(), 0.0, 0
    times, counts = [0.0] * len(claims), [0] * len(claims)
    while claims and (checks < len(claims) or check_time < seconds):
        pos = checks % len(claims)
        idx, claim = claims[pos]
        checks += 1
        t0 = perf_counter()
        ok, why = cli._check_claim(insts[idx], claim)
        dt = perf_counter() - t0
        check_time += dt
        times[pos] += dt
        counts[pos] += 1
        if tick:
            tick(dt)
        if not ok and idx not in rejected:
            rejected.add(idx)
            print(f"instance {idx}: answer rejected: {why}", file=sys.stderr)
    rate = len(claims) / sum(per_instance(times, counts)) if claims else 0.0
    return docs, rejected, rate


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def report_answers(pool_pass, docs):
    """Print verdict counts and digests; return the per-instance work counts."""
    verdicts = {}
    canon, counts = [], []
    for sol, text in zip(pool_pass.first, docs):
        if sol is None:
            canon.append("raised")
            counts.append(None)
            continue
        verdicts[sol.verdict] = verdicts.get(sol.verdict, 0) + 1
        doc = json.loads(text)
        canon.append(json.dumps([doc["verdict"], doc["p"], doc["v"]]))
        counts.append(work_counts(sol))
    print("verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(verdicts.items())))
    print(f"answers_digest: {digest(canon)}  (verdict, p, v per instance)")
    print(f"counts_digest: {digest(map(repr, counts))}  (solver work counts per instance)")
    print(f"json_digest: {digest(t or 'raised' for t in docs)}  (full solution_to_json; information only)")
    totals = [sum(c[i] for c in counts if c) for i in range(len(COUNT_NAMES))]
    for name, total in zip(COUNT_NAMES, totals):
        print(f"{name}: {total}")
    return counts


def failures(pool_pass, rejected) -> int:
    good = sum(n for idx, n in enumerate(pool_pass.ok) if idx not in rejected)
    return pool_pass.attempted - good


def timed_run(args, program, insts, payload):
    solver, cli = program.solver, program.cli
    speed = {phase: HostSpeed() for phase in ("setup", "solve", "check")}
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(measure_setup(payload, len(insts)))
        speed["setup"].sample()
    gc.collect()
    run = Pass(solver, insts).run(args.seconds, speed["solve"].after)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    docs, rejected, checks_per_s = check_answers(
        solver, cli, insts, run.first, CHECK_SECONDS, speed["check"].after
    )
    report_answers(run, docs)

    failed = failures(run, rejected)
    lat = sorted(per_instance(run.time, run.count))
    raw = {
        "solves_per_s": len(lat) / sum(lat),
        "solve_s.p50": statistics.median(lat),
        "checks_per_s": checks_per_s,
        "setup_s": statistics.median(setups),
    }
    # Times shrink and rates grow by the slowdown: figures at reference speed.
    slow = {phase: probe.slowdown for phase, probe in speed.items()}
    metrics = {
        "solves_per_s": (raw["solves_per_s"] * slow["solve"], "1/s"),
        "solve_s.p50": (raw["solve_s.p50"] / slow["solve"], "s"),
        "checks_per_s": (raw["checks_per_s"] * slow["check"], "1/s"),
        "setup_s": (raw["setup_s"] / slow["setup"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print("host slowdown: " + ", ".join(f"{k} {v:.4f}" for k, v in slow.items())
          + "; as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    beyond = sum(t > p90 for t in lat)
    print(f"solves: {run.attempted} in {run.solve_time:.3f} s of solve time; "
          f"solves_per_s and solve_s.p50 use the mean time of each of the "
          f"{len(lat)} instances")
    if beyond >= 10:
        print(f"solve_s.p90: {p90:.6g} s  (n={len(lat)}, {beyond} beyond)")
    else:
        print(f"solve_s.p90: not reported  (n={len(lat)}, {beyond} beyond, 10 needed)")
    print(f"fail_rate: {failed / run.attempted:.6g}  ({failed} of {run.attempted})")
    return metrics, run.attempted, failed


def required_layers(first) -> set:
    """Traced names the pool must reach, judged from the solver's own stats."""
    need = {"instance.parse_instance", "instance.preprocess", "solver.solve",
            "solver.solution_to_json", "certify.check"}
    for sol in first:
        if "detail" in sol.stats:
            need |= {"solver.initialize", "solver.stage1", "balanced.balanced_flow",
                     "balanced.verify_property1", "flownet.max_flow"}
        if sol.verdict == "feasible":
            need |= {"solver.stage2", "certify.check_kkt", "certify.check_equilibrium"}
            if sol.stats["detail"]["stage2_phases"]:
                need.add("balanced.scale_flow")
        else:
            need |= {"certify.verify_lp_dual", "certify.verify_convex_dual"}
    return need


def traced_run(args, program, payload):
    solver, cli, instance = program.solver, program.cli, program.instance
    tracer = Tracer()
    with tracer:
        insts = [instance.parse_instance(d) for d in json.loads(payload)]
    plain, traced = Pass(solver, insts), Pass(solver, insts)
    gc.collect()
    # Each instance is solved once untraced and once traced, back to back and
    # in alternating order, so that the host's drift and the second solve's
    # warmer caches fall on both passes alike.
    for idx in range(len(insts)):
        if idx % 2:
            plain.solve(idx)
        with tracer:
            traced.solve(idx)
        if not idx % 2:
            plain.solve(idx)
    with tracer:
        docs, rejected, _ = check_answers(solver, cli, insts, traced.first)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    counts = report_answers(traced, docs)
    if any(sol is None for sol in plain.first + traced.first):
        raise TraceError("a solve raised; see the traceback above")
    if not all(same_answer(a, b) for a, b in zip(plain.first, traced.first)):
        raise TraceError("answers or work counts differ between the untraced and traced pass")
    missing = required_layers(traced.first) - tracer.called()
    if missing:
        raise TraceError(f"reached layers recorded no calls: {sorted(missing)}")

    metrics = tracer.metrics()
    for i, name in enumerate(COUNT_NAMES):
        metrics[name] = (sum(c[i] for c in counts), "count")
    traced_rate = len(insts) / traced.solve_time
    plain_rate = len(insts) / plain.solve_time
    metrics["trace.solves_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_solves_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate / traced_rate - 1), "%")
    print(f"tracing overhead: {metrics['trace.overhead_pct'][0]:.2f}% "
          f"({traced_rate:.4g} traced vs {plain_rate:.4g} untraced solves/s)")
    attempted = plain.attempted + traced.attempted
    failed = failures(plain, rejected) + failures(traced, rejected)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("NASHFLOW_DEBUG", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nashflow = load_program()
    import nashflow.cli  # noqa: F401  (the body of ``nashflow check``)

    workload = WORKLOADS[args.workload]
    payload = json.dumps(workload.instances(nashflow.gen_random, args.seed))
    print(f"workload {workload.name}, seed {args.seed}: {workload.pool} instances; "
          f"{workload.why}")
    if args.trace:
        metrics, attempted, failed = traced_run(args, nashflow, payload)
        expected = spec["per_layer"]
    else:
        insts = [nashflow.instance.parse_instance(d) for d in json.loads(payload)]
        metrics, attempted, failed = timed_run(args, nashflow, insts, payload)
        expected = spec["end_to_end"]

    declared = {m["name"]: m["unit"] for m in expected}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        raise SystemExit(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared.items()) ^ set(produced.items()))}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
