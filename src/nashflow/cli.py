"""Command-line interface.

Verbs:

- ``solve``      decide an instance and print the exact solution JSON
- ``check``      validate a solution file against its instance
- ``oracle``     run the exhaustive reference solver (small instances)
- ``gen``        generate instances (random, adversarial family, wireless)
- ``limit``      run the fixed-budget fixpoint iteration
- ``bench``      batch-solve random instances and print CSV statistics

``solve`` exits 0 on feasible, 2 on infeasible, 1 on errors; ``check``
exits 0 when the solution validates and 1 otherwise.  Every verb exits 3
when an internal invariant of the solver fails, a defect rather than a
property of the input.  Output is deterministic for a given input:
rationals are printed exactly, never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .balanced import BalanceError
from .certify import (
    check_feasibility_witness,
    check_kkt,
    verify_convex_dual,
    verify_lp_dual,
)
from .instance import (
    InstanceError,
    format_rational,
    gen_l1_adversarial,
    gen_random,
    parse_instance,
    parse_rational,
    to_json,
    wireless_adapter,
)
from .fisher import FisherError
from .oracle import OracleCapError, feasibility_lp, limit_algorithm, oracle_solve
from .solver import SolverError, solution_to_json, solve


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, out=None):
    text = json.dumps(to_json(obj), indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_solve(args) -> int:
    inst = parse_instance(_read_json(args.instance))
    sol = solve(inst, collect_trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in sol.trace:
                fh.write(json.dumps(to_json(entry)) + "\n")
    if args.cross_check:
        code = _cross_check(inst, sol)
        if code:
            return code
    _emit(solution_to_json(sol), args.output)
    return 0 if sol.verdict == "feasible" else 2


def _cross_check(inst, sol) -> int:
    try:
        ref = oracle_solve(inst)
    except OracleCapError as exc:
        print(f"cross-check skipped: {exc}", file=sys.stderr)
        return 0
    if ref.verdict != sol.verdict:
        print(
            f"cross-check failed: solver says {sol.verdict}, "
            f"reference says {ref.verdict}",
            file=sys.stderr,
        )
        return 1
    if sol.verdict == "feasible":
        if list(sol.p) != list(ref.p) or list(sol.v) != list(ref.v):
            print("cross-check failed: prices or utilities differ", file=sys.stderr)
            return 1
        limit = limit_algorithm(inst, eps=Fraction(1, 10**8))
        drift = max(abs(a - b) for a, b in zip(limit.p, sol.p))
        if drift > Fraction(1, 10**6):
            print("cross-check failed: fixpoint iteration diverges", file=sys.stderr)
            return 1
    margin = feasibility_lp(inst)
    if (margin > 0) != (sol.verdict == "feasible"):
        print("cross-check failed: margin program disagrees", file=sys.stderr)
        return 1
    print("cross-check passed", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    inst = parse_instance(_read_json(args.instance))
    claim = _read_json(args.solution)
    ok, why = _check_claim(inst, claim)
    _emit({"valid": ok, "reason": why})
    return 0 if ok else 1


def _object(value, what):
    if not isinstance(value, dict):
        raise InstanceError(f"{what} must be a JSON object")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a list")
    return value


def _rationals(value, what):
    return [parse_rational(v) for v in _list(value, what)]


def _index(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{what} must be an integer index, got {value!r}")
    return value


def _check_claim(inst, claim):
    verdict = _object(claim, "solution").get("verdict")
    if verdict == "feasible":
        if claim.get("p") is None or claim.get("x") is None:
            return False, "feasible claim lacks prices or allocation"
        p = _rationals(claim["p"], "p")
        x = [_rationals(row, "x row") for row in _list(claim["x"], "x")]
        ok, why = check_kkt(inst, p, x)
        if not ok:
            return False, why
        if claim.get("v") is not None:
            v = _rationals(claim["v"], "v")
            actual = [
                sum((inst.u[i][j] * x[i][j] for j in range(inst.g)), Fraction(0))
                for i in range(inst.n)
            ]
            if v != actual:
                return False, "claimed utilities do not match the allocation"
        if claim.get("feasible_prices") is not None:
            w = _rationals(claim["feasible_prices"], "feasible_prices")
            ok, why = check_feasibility_witness(inst, w)
            if not ok:
                return False, f"witness prices rejected: {why}"
        return True, "ok"
    if verdict == "infeasible":
        cert = _object(claim.get("certificate") or {}, "certificate")
        seen = False
        if "lp_dual" in cert:
            seen = True
            lp = _object(cert["lp_dual"], "lp_dual")
            y = _rationals(lp["y"], "lp_dual.y")
            z = _rationals(lp["z"], "lp_dual.z")
            if not verify_lp_dual(inst, y, z):
                return False, "dual certificate rejected"
        if "convex_dual" in cert:
            seen = True
            cx = _object(cert["convex_dual"], "convex_dual")
            if cx.get("zero_row") is not None:
                row = _index(cx["zero_row"], "zero_row")
                if not verify_convex_dual(inst, zero_row=row):
                    return False, "zero-row certificate rejected"
            else:
                p = _rationals(cx["p"], "convex_dual.p")
                if not verify_convex_dual(
                    inst,
                    buyers=[_index(b, "buyer") for b in _list(cx["buyers"], "buyers")],
                    goods=[_index(j, "good") for j in _list(cx["goods"], "goods")],
                    p=p,
                ):
                    return False, "partition certificate rejected"
        if not seen:
            return False, "infeasible claim carries no certificate"
        return True, "ok"
    return False, f"unknown verdict {verdict!r}"


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read_json(args.instance))
    result = oracle_solve(inst, max_pairs=args.cap)
    out = {"verdict": result.verdict}
    if result.verdict == "feasible":
        out.update(p=result.p, v=result.v)
    _emit(out, args.output)
    return 0 if result.verdict == "feasible" else 2


def _cmd_gen(args) -> int:
    if args.kind == "random":
        inst = gen_random(args.n, args.g, args.u_max, args.c_max, args.seed)
        _emit(inst.to_json_dict(), args.output)
        return 0
    if args.kind == "l1adv":
        u, money, prices = gen_l1_adversarial(
            args.n, delta=parse_rational(args.delta), big=args.big
        )
        _emit({"u": u, "money": money, "prices": prices}, args.output)
        return 0
    payload = _object(_read_json(args.input), "wireless payload")
    inst, scale = wireless_adapter(payload["pi"], payload["rates"], payload["c"])
    print(f"money scale: {format_rational(scale)}", file=sys.stderr)
    _emit(inst.to_json_dict(), args.output)
    return 0


def _cmd_limit(args) -> int:
    inst = parse_instance(_read_json(args.instance))
    result = limit_algorithm(
        inst, eps=parse_rational(args.eps), max_iter=args.max_iter
    )
    _emit(
        {
            "p": result.p,
            "m": result.m,
            "iterations": result.iterations,
            "converged": result.converged,
            "reason": result.reason,
        },
        args.output,
    )
    return 0


def _cmd_bench(args) -> int:
    writer = sys.stdout
    writer.write("seed,n,g,verdict,phases,iterations,maxflows,budget,within_budget\n")
    for k in range(args.count):
        seed = args.seed + k
        inst = gen_random(args.n, args.g, args.u_max, args.c_max, seed)
        sol = solve(inst)
        budget = sol.stats.get("budget", 0)
        flows = sol.stats.get("maxflows", 0)
        within = bool(budget and flows <= 4 * budget)
        writer.write(
            f"{seed},{inst.n},{inst.g},{sol.verdict},{sol.stats.get('phases', 0)},"
            f"{sol.stats.get('iterations', 0)},{flows},{budget},{int(within)}\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashflow",
        description="Exact solver for the bargaining market game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance exactly")
    ps.add_argument("instance", help="instance JSON path, or - for stdin")
    ps.add_argument("--output", help="write the solution JSON here")
    ps.add_argument("--trace", help="write line-delimited run events here")
    ps.add_argument(
        "--cross-check", action="store_true",
        help="also run the reference solver and margin program",
    )
    ps.set_defaults(func=_cmd_solve)

    pc = sub.add_parser("check", help="validate a solution file")
    pc.add_argument("instance", help="instance JSON path, or - for stdin")
    pc.add_argument("solution", help="solution JSON path")
    pc.set_defaults(func=_cmd_check)

    po = sub.add_parser("oracle", help="run the exhaustive reference solver")
    po.add_argument("instance", help="instance JSON path, or - for stdin")
    po.add_argument("--cap", type=int, default=12, help="positive-pair cap")
    po.add_argument("--output")
    po.set_defaults(func=_cmd_oracle)

    pg = sub.add_parser("gen", help="generate instances")
    pg.add_argument("kind", choices=["random", "l1adv", "wireless"])
    pg.add_argument("--n", type=int, default=3)
    pg.add_argument("--g", type=int, default=3)
    pg.add_argument("--u-max", type=int, default=10)
    pg.add_argument("--c-max", type=int, default=3)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--delta", default="1", help="adversarial gap parameter")
    pg.add_argument("--big", type=int, default=None, help="heavy price scale")
    pg.add_argument("--input", default="-", help="wireless payload JSON")
    pg.add_argument("--output")
    pg.set_defaults(func=_cmd_gen)

    pl = sub.add_parser("limit", help="fixed-budget fixpoint iteration")
    pl.add_argument("instance", help="instance JSON path, or - for stdin")
    pl.add_argument("--eps", default="1/1000000")
    pl.add_argument("--max-iter", type=int, default=1000)
    pl.add_argument("--output")
    pl.set_defaults(func=_cmd_limit)

    pb = sub.add_parser("bench", help="batch-solve random instances (CSV)")
    pb.add_argument("--count", type=int, default=20)
    pb.add_argument("--n", type=int, default=5)
    pb.add_argument("--g", type=int, default=5)
    pb.add_argument("--u-max", type=int, default=10)
    pb.add_argument("--c-max", type=int, default=3)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 1
    except (InstanceError, OracleCapError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, BalanceError, FisherError) as exc:
        source = getattr(args, "instance", None)
        where = f" (instance: {source})" if source else ""
        print(f"internal error: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
