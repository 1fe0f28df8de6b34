"""Reference solvers: support enumeration, margin program, fixpoint iteration."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from nashflow import (
    OracleCapError,
    feasibility_lp,
    gen_random,
    limit_algorithm,
    make_instance,
    oracle_solve,
    solve,
)
from nashflow.oracle import SimplexError, _solve_linear, maximize
from conftest import (
    reference_solve_linear,
    scalar_feasible,
    scalar_infeasible,
    symmetric_pair,
    unit_game,
)


# ---------------------------------------------------------------------------
# Support-enumeration solver


def test_oracle_trio():
    ref = oracle_solve(unit_game())
    assert (ref.verdict, ref.p, ref.v) == ("feasible", [Fraction(1)], [Fraction(1)])
    assert oracle_solve(scalar_infeasible()).verdict == "infeasible"
    ref3 = oracle_solve(symmetric_pair())
    assert (ref3.verdict, ref3.p, ref3.v) == (
        "feasible",
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(2)],
    )


def test_solve_linear_matches_the_reference_elimination():
    # Unique, underdetermined and inconsistent systems, square or not.  An
    # appended multiple of a row, its rhs sometimes off by one, forces a
    # dependent or an inconsistent row.
    rng = random.Random(29)
    seen = Counter()
    for _ in range(10000):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(ncols + 1)] for _ in range(nrows)]
        if rng.random() < 0.4:
            k, base = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)), rng.choice(rows)
            rows.append([k * v for v in base[:-1]] + [k * base[-1] + rng.choice((0, 0, 1))])
        free = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        want = reference_solve_linear(rows, ncols, free)
        assert _solve_linear(rows, ncols, free) == want
        if want is None:
            seen["inconsistent"] += 1
        elif reference_solve_linear(rows, ncols, [d + 1 for d in free]) != want:
            seen["underdetermined"] += 1
        else:
            seen["unique"] += 1
    assert len(seen) == 3 and min(seen.values()) > 1000, seen


def test_oracle_allocation_is_consistent():
    ref = oracle_solve(symmetric_pair())
    for i in range(2):
        assert sum(symmetric_pair().u[i][j] * ref.x[i][j] for j in range(2)) == ref.v[i]


def test_oracle_enforces_the_enumeration_cap():
    at_cap = make_instance([[1] * 4] * 3, [0] * 3)      # 12 positive pairs
    assert oracle_solve(at_cap).verdict == "feasible"
    over_cap = make_instance([[1] * 4] * 3 + [[1, 0, 0, 0]], [0] * 4)  # 13 pairs
    with pytest.raises(OracleCapError):
        oracle_solve(over_cap)
    # The cap is adjustable.
    assert oracle_solve(over_cap, max_pairs=13).verdict == "feasible"


# ---------------------------------------------------------------------------
# Margin program (the best uniform slack over the disagreement point)


def test_feasibility_lp_trio():
    assert feasibility_lp(scalar_infeasible()) == Fraction(0)
    assert feasibility_lp(scalar_feasible()) == Fraction(1)
    assert feasibility_lp(make_instance([[1], [1]], [0, 0])) == Fraction(1, 2)


def test_feasibility_lp_sign_decides_the_game():
    rng = random.Random(47)
    for _ in range(50):
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 3), 3, 2, rng.randint(0, 10**6))
        assert (feasibility_lp(inst) > 0) == (oracle_solve(inst).verdict == "feasible")


def test_feasibility_lp_from_a_degenerate_or_trivial_start():
    # Equal utilities; equal disagreement payoffs start every buyer row at
    # bound 0, a degenerate slack basis.
    assert feasibility_lp(make_instance([[2] * 3] * 2, [1, 1])) == 2
    assert feasibility_lp(make_instance([[1, 1], [1, 1]], [0, 1])) == Fraction(1, 2)
    # Without payoffs the margin is the worst disagreement point.
    assert feasibility_lp(make_instance([[0, 0], [0, 0]], [0, 0])) == 0
    assert feasibility_lp(make_instance([[0, 0], [0, 0]], [1, 2])) == -2
    # One buyer takes every good.
    assert feasibility_lp(make_instance([[3, 0, 5]], [2])) == 6
    assert feasibility_lp(make_instance([[1, 1]], [Fraction(7, 3)])) == Fraction(-1, 3)
    # A good no one values changes nothing.
    rng = random.Random(53)
    for _ in range(20):
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 3), 3, 2, rng.randint(0, 10**6))
        k = rng.randint(0, inst.g)
        wider = make_instance([row[:k] + (0,) + row[k:] for row in inst.u], inst.c)
        assert feasibility_lp(wider) == feasibility_lp(inst)


def test_simplex_requires_nonnegative_bounds_and_a_bounded_objective():
    with pytest.raises(SimplexError):
        maximize([1], [[1]], [-1])
    with pytest.raises(SimplexError):
        maximize([1, 0], [[-1, 1]], [0])
    with pytest.raises(ValueError):
        maximize([1, 0], [[1]], [1])
    assert maximize([1, 1], [[1, 2], [3, 1]], [4, 6]) == (
        Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)])


def test_feasibility_lp_bounds_every_answer_by_weak_duality():
    # A feasible answer's least gain is a point of the margin program, and
    # an infeasibility certificate's ``sum(z) - sum(c y)`` bounds it above.
    verdicts = Counter()
    for seed in range(525):
        inst = gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed)
        sol, margin = solve(inst), feasibility_lp(inst)
        verdicts[sol.verdict] += 1
        if sol.verdict == "feasible":
            assert 0 < min(v - c for v, c in zip(sol.v, inst.c)) <= margin
        else:
            dual = sol.certificate["lp_dual"]
            bound = sum(dual["z"]) - sum(c * y for c, y in zip(inst.c, dual["y"]))
            assert margin <= bound <= 0
    assert min(verdicts.values()) > 100, verdicts


# ---------------------------------------------------------------------------
# Fixpoint iteration (repeated fixed-budget solves)


def test_limit_iteration_pins_on_the_scalar_game():
    result = limit_algorithm(scalar_feasible())
    assert result.iterations == 20
    assert result.converged is True
    assert result.reason == "eps"
    assert result.p == [Fraction(1048575, 524288)]
    assert result.m == [Fraction(2097151, 1048576)]


def test_limit_iteration_follows_the_closed_form():
    # Money updates as m' = 1 + m/2 on this game, halving the gap to 2.
    result = limit_algorithm(scalar_feasible())
    money = [entry[1] for entry in result.history]
    assert money[:4] == [[Fraction(1)], [Fraction(3, 2)], [Fraction(7, 4)], [Fraction(15, 8)]]
    assert all(
        after == [1 + before[0] / 2] for before, after in zip(money, money[1:])
    )


def test_limit_iteration_detects_exact_fixpoints():
    result = limit_algorithm(symmetric_pair())
    assert result.iterations == 1
    assert result.reason == "exact"
    assert result.p == [Fraction(1), Fraction(1)]
    assert result.m == [Fraction(1), Fraction(1)]


def test_limit_iteration_diverges_on_infeasible_games():
    result = limit_algorithm(scalar_infeasible(), max_iter=30)
    assert result.iterations == 30
    assert result.converged is False
    assert result.reason == "max_iter"
    assert result.m == [Fraction(31)]   # grows by one per round, unbounded


def test_limit_iteration_approaches_the_exact_equilibrium():
    rng = random.Random(61)
    checked = 0
    while checked < 8:
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 3), 3, 1, rng.randint(0, 10**6))
        sol = solve(inst)
        if sol.verdict != "feasible":
            continue
        checked += 1
        result = limit_algorithm(inst, eps=Fraction(1, 10**8))
        assert result.converged is True
        assert max(abs(a - b) for a, b in zip(result.p, sol.p)) <= Fraction(1, 10**6)
        # Prices and budgets climb monotonically and never overshoot.
        prices = [entry[0] for entry in result.history]
        moneys = [entry[1] for entry in result.history]
        for before, after in zip(prices, prices[1:]):
            assert all(a >= b for a, b in zip(after, before))
        for before, after in zip(moneys, moneys[1:]):
            assert all(a >= b for a, b in zip(after, before))
        money_star = [1 + ci / gi for ci, gi in zip(inst.c, _gammas(inst, sol.p))]
        for step in prices:
            assert all(a <= b for a, b in zip(step, sol.p))
        for step in moneys:
            assert all(a <= b for a, b in zip(step, money_star))


def _gammas(inst, p):
    return [
        max(Fraction(inst.u[i][j]) / p[j] for j in range(inst.g) if p[j] > 0)
        for i in range(inst.n)
    ]


def test_limit_rejects_games_with_a_zero_row():
    with pytest.raises(ValueError):
        limit_algorithm(make_instance([[0], [1]], [0, 0]))
