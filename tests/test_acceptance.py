"""Acceptance suite: one test per shipped guarantee.

Each test prints a single pass/fail line under ``pytest -v``.  The two heavy
batches (the tiny-instance sweep and the instrumented random runs) are built
once in module-scoped fixtures and shared by every test that audits them.
"""

import random
import time
from fractions import Fraction

import pytest

from nashflow import (
    MarketNetwork,
    balanced_flow,
    bang_per_buck,
    check_equilibrium,
    check_kkt,
    feasibility_lp,
    fisher_equilibrium,
    gen_random,
    limit_algorithm,
    max_flow,
    oracle_solve,
    solve,
    verify_convex_dual,
    verify_lp_dual,
    verify_property1,
)
from conftest import (
    balanced_values,
    exhaustive_small_instances,
    flow_value,
    in_units,
    measure_l1_vs_l2,
    random_network,
    reference_surpluses,
    scalar_feasible,
)


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive tiny instances plus 525 random ones, solved both ways."""
    t0 = time.monotonic()
    records = []
    for inst in exhaustive_small_instances():
        records.append((inst, solve(inst), oracle_solve(inst)))
    for seed in range(525):
        inst = gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed)
        records.append((inst, solve(inst), oracle_solve(inst)))
    return records, time.monotonic() - t0


@pytest.fixture(scope="module")
def instrumented():
    """200 fully logged solver runs with n, g <= 10 and U, C <= 10."""
    rng = random.Random(2026)
    runs = []
    for _ in range(200):
        n, g = rng.randint(1, 10), rng.randint(1, 10)
        inst = gen_random(n, g, 10, 10, rng.randint(0, 10**9))
        runs.append((inst, solve(inst)))
    return runs


def test_criterion_01_solver_matches_oracle_exactly(sweep):
    records, elapsed = sweep
    assert len(records) >= 3504 + 500
    for inst, sol, ref in records:
        assert sol.verdict == ref.verdict, (inst.u, inst.c)
        if ref.verdict == "feasible":
            assert list(sol.p) == list(ref.p), (inst.u, inst.c)
            assert list(sol.v) == list(ref.v), (inst.u, inst.c)
    assert elapsed < 300.0


def test_criterion_02_feasibility_lp_sign_matches_verdict(sweep):
    records, _ = sweep
    for inst, sol, _ref in records:
        assert (feasibility_lp(inst) > 0) == (sol.verdict == "feasible"), (
            inst.u,
            inst.c,
        )


def test_criterion_03_every_run_is_independently_certified(sweep):
    records, _ = sweep
    infeasible = 0
    for inst, sol, _ref in records:
        if sol.verdict == "infeasible":
            infeasible += 1
            cert = sol.certificate
            assert verify_lp_dual(
                inst, cert["lp_dual"]["y"], cert["lp_dual"]["z"]
            ), (inst.u, inst.c)
            cx = cert["convex_dual"]
            if cx.get("zero_row") is not None:
                assert verify_convex_dual(inst, zero_row=cx["zero_row"])
            else:
                assert verify_convex_dual(
                    inst, buyers=cx["buyers"], goods=cx["goods"], p=cx["p"]
                ), (inst.u, inst.c)
        else:
            ok, why = check_equilibrium(inst, list(sol.p))
            assert ok is True, (inst.u, inst.c, why)
            ok, why = check_kkt(inst, list(sol.p), sol.x, sol.v)
            assert ok, (inst.u, inst.c, why)
            assert all(vi > ci for vi, ci in zip(sol.v, inst.c)), (inst.u, inst.c)
    assert infeasible > 0


def test_criterion_04_per_phase_potential_drops(instrumented):
    stage1_phases = stage2_phases = 0
    for inst, sol in instrumented:
        detail = sol.stats["detail"]
        factor1 = 1 - Fraction(1, inst.n**2 * inst.g)
        factor2 = 1 - Fraction(1, inst.n**2)
        for ph in detail["stage1_phases"]:
            stage1_phases += 1
            assert ph["phi_end"] <= ph["phi_start"] * factor1, (inst.u, inst.c, ph)
        for ph in detail["stage2_phases"]:
            stage2_phases += 1
            assert ph["phi_end"] <= ph["phi_start"] * factor2, (inst.u, inst.c, ph)
    assert len(instrumented) >= 200
    assert stage1_phases > 0 and stage2_phases > 0


def test_criterion_05_iteration_caps_flow_budget_and_denominators(instrumented):
    denominator_violations = []
    for inst, sol in instrumented:
        detail = sol.stats["detail"]
        for ph in detail["stage1_phases"]:
            assert ph["iterations"] <= inst.n * inst.g, (inst.u, inst.c, ph)
        for ph in detail["stage2_phases"]:
            assert ph["iterations"] <= inst.g, (inst.u, inst.c, ph)
        assert sol.stats["maxflows"] <= 4 * sol.stats["budget"], (
            inst.u,
            inst.c,
            sol.stats["maxflows"],
            sol.stats["budget"],
        )
        bound = inst.n * max(inst.c_max, 1) * inst.u_max**inst.n
        for den in detail["tight_denominators"]:
            if den > bound:
                denominator_violations.append((inst.u, inst.c, den, bound))
    assert not denominator_violations, (
        f"{len(denominator_violations)} runs broke the claimed phase-end "
        f"tight-set denominator bound n*C*U^n.  The bound itself is "
        f"unattainable: u=[[2, 2]], c=[1] forces equilibrium prices "
        f"(2/3, 2/3) (v=4, gain 3, p=u/3), so its final tight set has "
        f"denominator 3 > 1*1*2^1 = 2.  Violations (u, c, denominator, "
        f"bound): {denominator_violations!r}"
    )


def test_criterion_06_balanced_flow_on_a_thousand_networks():
    rng = random.Random(606)
    small = 0
    for _ in range(1000):
        net = random_network(rng, max_buyers=6, max_goods=6)
        flow, theta = balanced_flow(net)
        assert flow_value(flow) == flow_value(max_flow(net))
        assert verify_property1(in_units(net, flow.scale), flow)
        theta = balanced_values(flow, theta).theta
        perm = list(range(net.n))
        rng.shuffle(perm)
        permuted = MarketNetwork(
            net.p,
            tuple(net.m[perm[i]] for i in range(net.n)),
            frozenset((perm.index(i), j) for (i, j) in net.edges),
            net.scale,
        )
        ptheta = balanced_values(*balanced_flow(permuted)).theta
        assert all(ptheta[i] == theta[perm[i]] for i in range(net.n))
        if net.n <= 4:
            small += 1
            assert list(theta) == list(reference_surpluses(net)), (net.p, net.m)
    assert small >= 400


def test_criterion_07_limit_iteration_converges_from_below():
    rng = random.Random(707)
    cases = []
    while len(cases) < 50:
        n, g = rng.randint(1, 3), rng.randint(1, 3)
        inst = gen_random(n, g, 6, 2, rng.randint(0, 10**9))
        sol = solve(inst)
        if sol.verdict == "feasible":
            cases.append((inst, sol))
    for inst, sol in cases:
        res = limit_algorithm(inst, eps=Fraction(1, 10**8))
        assert res.converged and res.iterations <= 1000, (inst.u, inst.c)
        pstar = list(sol.p)
        gamma, _ = bang_per_buck(inst.u, pstar)
        mstar = [1 + inst.c[i] / gamma[i] for i in range(inst.n)]
        assert max(abs(a - b) for a, b in zip(res.p, pstar)) <= Fraction(1, 10**6)
        history = res.history
        for t in range(1, len(history)):
            assert all(
                history[t][0][j] >= history[t - 1][0][j] for j in range(inst.g)
            ), (inst.u, inst.c)
            assert all(
                history[t][1][i] >= history[t - 1][1][i] for i in range(inst.n)
            ), (inst.u, inst.c)
        for pt, mt in history:
            assert all(pt[j] <= pstar[j] for j in range(inst.g)), (inst.u, inst.c)
            assert all(mt[i] <= mstar[i] for i in range(inst.n)), (inst.u, inst.c)
    # One buyer, one good, utility 2, fallback 1: each round halves the gap
    # to the fixed point, so consecutive budgets obey m' = 1 + m/2 exactly.
    res = limit_algorithm(scalar_feasible(), eps=Fraction(1, 10**6))
    assert res.history[0][1] == [Fraction(1)]
    for t in range(1, len(res.history)):
        assert res.history[t][1][0] == 1 + res.history[t - 1][1][0] / 2


def test_criterion_08_l1_surplus_stalls_while_l2_potential_drops():
    t0 = time.monotonic()
    for n in (10, 15, 20):
        measured = measure_l1_vs_l2(n, Fraction(1), None)
        assert measured["l1_drop"] > 0
        assert measured["l1_drop"] <= Fraction(1, 2 ** (n - 2))
        # The family has n + 1 buyers, so the guaranteed per-phase factor
        # for the squared-norm potential is 1 - 1/(n+1)^2.
        assert measured["l2_drop_factor"] <= 1 - Fraction(1, (n + 1) ** 2)
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_zero_disagreement_reduces_to_unit_money_market():
    rng = random.Random(909)
    for _ in range(40):
        n, g = rng.randint(1, 5), rng.randint(1, 5)
        inst = gen_random(n, g, 8, 0, rng.randint(0, 10**9))
        assert all(ci == 0 for ci in inst.c)
        sol = solve(inst)
        assert sol.verdict == "feasible"
        fp, fx, _ = fisher_equilibrium(inst.u, [Fraction(1)] * inst.n)
        assert list(sol.p) == list(fp), (inst.u,)
        fv = [
            sum(inst.u[i][j] * fx[i][j] for j in range(inst.g))
            for i in range(inst.n)
        ]
        assert list(sol.v) == fv, (inst.u,)


def test_criterion_10_twenty_by_twenty_solves_in_seconds():
    feasible = 0
    for seed in (0, 1, 2):
        inst = gen_random(20, 20, 10, 10, seed)
        t0 = time.monotonic()
        sol = solve(inst)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"seed {seed} took {elapsed:.2f}s"
        if sol.verdict == "feasible":
            feasible += 1
    assert feasible >= 3
