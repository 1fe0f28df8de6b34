"""Independent checkers: equilibrium, optimality, witnesses, dual certificates."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

import nashflow.certify as certify
from nashflow import (
    balanced_flow,
    build_network,
    check_equilibrium,
    check_feasibility_witness,
    check_kkt,
    counting,
    gen_random,
    lp_dual_for_zero_row,
    make_instance,
    max_flow,
    solve,
    verify_convex_dual,
    verify_lp_dual,
)
from conftest import (
    reference_check_kkt,
    scalar_feasible,
    scalar_infeasible,
    split_infeasible,
    symmetric_pair,
    unit_game,
)
from test_golden import _instances


# ---------------------------------------------------------------------------
# Equilibrium test (both cuts minimum) and allocation extraction


def test_check_equilibrium_accepts_the_equilibrium():
    assert check_equilibrium(scalar_feasible(), [Fraction(2)]) == (True, "ok")
    assert check_equilibrium(unit_game(), [Fraction(1)]) == (True, "ok")


def test_check_equilibrium_rejects_low_prices_with_a_reason():
    ok, reason = check_equilibrium(scalar_feasible(), [Fraction(1)])
    assert ok is False
    assert reason == "some budget cannot be spent at these prices"


def test_check_equilibrium_rejects_high_prices():
    ok, reason = check_equilibrium(unit_game(), [Fraction(2)])
    assert ok is False
    assert isinstance(reason, str) and reason


# ---------------------------------------------------------------------------
# Optimality conditions on explicit (p, x, v)


def test_check_kkt_accepts_the_equilibrium():
    one = [[Fraction(1)]]
    assert check_kkt(scalar_feasible(), [Fraction(2)], one, [Fraction(2)]) == (True, "ok")
    assert check_kkt(unit_game(), [Fraction(1)], one, [Fraction(1)]) == (True, "ok")


def test_check_kkt_rejects_utilities_that_disagree_with_the_allocation():
    for v in ([Fraction(3)], [], [Fraction(2), Fraction(2)]):
        ok, reason = check_kkt(scalar_feasible(), [Fraction(2)], [[Fraction(1)]], v)
        assert (ok, reason) == (False, "claimed utilities do not match the allocation")
    # Compared last: an earlier rejection keeps its reason.
    ok, reason = check_kkt(scalar_feasible(), [Fraction(2)], [[Fraction(1, 2)]], [])
    assert reason == "good 0 priced but not sold out"


def test_check_kkt_rejects_unsold_priced_good():
    ok, reason = check_kkt(scalar_feasible(), [Fraction(2)], [[Fraction(1, 2)]], [Fraction(1)])
    assert ok is False
    assert reason == "good 0 priced but not sold out"


def test_check_kkt_rejects_wrong_prices():
    ok, _ = check_kkt(scalar_feasible(), [Fraction(1)], [[Fraction(1)]], [Fraction(2)])
    assert ok is False


def test_check_kkt_rejects_oversold_good():
    ok, _ = check_kkt(
        symmetric_pair(),
        [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]],
        [Fraction(2), Fraction(3)],
    )
    assert ok is False



def test_check_kkt_rejects_a_valueless_good_sold_half_again_over():
    # An unpriced good adds no stationarity term, so only the supply bound
    # sees it sold beyond its one unit.
    inst = make_instance([[1, 0]], [0])
    assert check_kkt(inst, [1, 0], [[1, 0]], [1]) == (True, "ok")
    assert check_kkt(inst, [1, 0], [[1, Fraction(3, 2)]], [1]) == (False, "good 1 oversold")


def test_check_kkt_rejects_a_buyer_left_at_the_disagreement_payoff():
    # Buyer 1 values nothing and gains exactly 0: each of its stationarity
    # terms reads 0 >= 0, so only the gain check rejects the answer.
    inst = make_instance([[1], [0]], [0, 0])
    assert check_kkt(inst, [1], [[1], [0]], [1, 0]) == (
        False, "buyer 1 does not improve on the disagreement payoff")

def test_check_kkt_rejects_a_tight_price_nudged_by_two_to_the_minus_200():
    # A golden deep instance: its equilibrium prices carry ~100-bit
    # denominators, and a nudge far below them must still break exactness.
    inst = gen_random(12, 12, 1000, 1500, 0)
    sol = solve(inst)
    assert check_kkt(inst, sol.p, sol.x, sol.v) == (True, "ok")
    j = 0
    i = min(i for i in range(inst.n) if sol.x[i][j] > 0)
    for eps in (Fraction(1, 2**200), -Fraction(1, 2**200)):
        p = list(sol.p)
        p[j] += eps
        ok, reason = check_kkt(inst, p, sol.x, sol.v)
        assert not ok
        if eps > 0:
            assert reason == f"allocation ({i},{j}) is not on a tight pair"
        else:
            assert reason.startswith("stationarity violated at (")
            assert reason.endswith(f",{j})")


def _reason_kind(reason):
    """A check's reason with its buyer and good indices left out."""
    return re.sub(r"\d+", "#", reason)


def _changes(value):
    """Values one entry of an answer is changed to, an ``int`` among them."""
    q = Fraction(value)
    return [Fraction(0), q + 1, q - 1, q / 2, 2 * q, -q, q + Fraction(1, 7), int(q)]


def test_check_kkt_matches_the_pair_by_pair_check_on_single_changes():
    # Every single-value change (one price, one share or one utility) to the
    # feasible answers of the small golden games: the row-wise check gives
    # the pair-by-pair check's verdict and reason.
    kinds = Counter()
    for _, inst in islice(_instances(), 150):
        sol = solve(inst)
        if sol.verdict != "feasible":
            continue
        claims = [(sol.p, sol.x, sol.v)]
        for j in range(inst.g):
            claims += [(sol.p[:j] + (q,) + sol.p[j + 1:], sol.x, sol.v) for q in _changes(sol.p[j])]
        for i in range(inst.n):
            claims += [(sol.p, sol.x, sol.v[:i] + (q,) + sol.v[i + 1:]) for q in _changes(sol.v[i])]
            for j in range(inst.g):
                for q in _changes(sol.x[i][j]):
                    x = [list(row) for row in sol.x]
                    x[i][j] = q
                    claims.append((sol.p, x, sol.v))
        for p, x, v in claims:
            got = check_kkt(inst, p, x, v)
            assert got == reference_check_kkt(inst, p, x, v), (inst, p, x, v)
            kinds[_reason_kind(got[1])] += 1
    assert min(kinds.values()) > 20 and len(kinds) == 8, kinds


def test_check_kkt_matches_the_pair_by_pair_check_on_a_perturbed_20x20_answer():
    # Random changes to one 20x20 answer: shares moved onto other buyers'
    # pairs (most of them not tight), negative shares, zero and rescaled
    # prices, changed utilities, and integral entries handed in as ints.
    # Half the claims carry the utilities of their changed allocation, so
    # the checks before the utilities decide.
    inst = gen_random(20, 20, 10, 10, 0)
    sol = solve(inst)
    assert sol.verdict == "feasible"
    rng = random.Random(31)
    kinds = Counter()
    for _ in range(1500):
        p, x, v = list(sol.p), [list(row) for row in sol.x], list(sol.v)
        for _ in range(rng.randint(0, 3)):
            i, j, move = rng.randrange(inst.n), rng.randrange(inst.g), rng.randrange(6)
            if move == 0:
                owner = rng.choice([k for k in range(inst.n) if x[k][j]] or [i])
                part = x[owner][j] * Fraction(rng.randint(1, 4), 4)
                x[owner][j] -= part
                x[i][j] += part
            elif move == 1:
                x[i][j] = -Fraction(rng.randint(1, 3), rng.randint(1, 3))
            elif move == 2:
                p[j] = Fraction(0)
            elif move == 3:
                p[j] *= Fraction(rng.randint(1, 4), rng.randint(1, 4))
            elif move == 4:
                v[i] += Fraction(1, rng.randint(1, 5))
            else:
                x = [[int(s) if Fraction(s).denominator == 1 else s for s in row] for row in x]
                p = [int(q) if q.denominator == 1 else q for q in map(Fraction, p)]
        if rng.random() < 0.5:
            v = [sum(w * Fraction(s) for w, s in zip(row, shares)) for row, shares in zip(inst.u, x)]
        got = check_kkt(inst, p, x, v)
        assert got == reference_check_kkt(inst, p, x, v), (p, x, v)
        kinds[_reason_kind(got[1])] += 1
    assert len(kinds) == 6 and min(kinds.values()) > 10, kinds


# ---------------------------------------------------------------------------
# Feasibility witness (every surplus strictly under one unit)


def test_witness_trio():
    assert check_feasibility_witness(scalar_feasible(), [Fraction(1)]) == (True, "ok")
    ok, reason = check_feasibility_witness(scalar_infeasible(), [Fraction(1)])
    assert ok is False
    assert reason == "a buyer's surplus reaches its full unit of money"
    assert check_feasibility_witness(unit_game(), [Fraction(1, 2)]) == (True, "ok")



def test_witness_rejects_a_priced_valueless_good():
    inst = make_instance([[2, 0]], [1])
    assert check_feasibility_witness(inst, [1, 0]) == (True, "ok")
    assert check_feasibility_witness(inst, [1, 1]) == (False, "valueless good 1 must be priced 0")

# ---------------------------------------------------------------------------
# Infeasibility certificates


def test_verify_lp_dual_accepts_the_tight_instance():
    assert verify_lp_dual(scalar_infeasible(), [Fraction(1)], [Fraction(1)]) is True


def test_verify_lp_dual_rejects_feasible_instances_and_bad_weights():
    assert verify_lp_dual(scalar_feasible(), [Fraction(1, 2)], [Fraction(1)]) is False
    # Dual weights must sum to one.
    assert verify_lp_dual(scalar_infeasible(), [Fraction(1, 2)], [Fraction(1)]) is False



def test_verify_lp_dual_rejects_weights_that_do_not_sum_to_one():
    # All-zero weights meet every other condition, with a zero gap.
    assert verify_lp_dual(scalar_feasible(), [0], [0]) is False


def test_verify_lp_dual_rejects_a_good_priced_below_a_weighted_utility():
    # Without u_ij y_i <= z_j, y = e_0 and z = 0 would prove any game infeasible.
    for inst in (scalar_feasible(), unit_game(), symmetric_pair()):
        assert verify_lp_dual(inst, [1] + [0] * (inst.n - 1), [0] * inst.g) is False


def test_verify_lp_dual_rejects_a_negative_gap():
    # y = 1 and z = 2 meet every constraint of the feasible scalar game,
    # whose gap c y - z is then -1.
    assert verify_lp_dual(scalar_feasible(), [1], [2]) is False
    assert verify_lp_dual(make_instance([[1]], [Fraction(1, 2)]), [1], [1]) is False

def test_verify_convex_dual_accepts_valid_splits():
    inst = split_infeasible()
    assert verify_convex_dual(inst, buyers=[1], goods=[1], p=[Fraction(1), Fraction(1)]) is True
    assert verify_convex_dual(inst, buyers=[], goods=[], p=[Fraction(1), Fraction(1)]) is True


def test_verify_convex_dual_rejects_cross_interest_and_feasible_sides():
    # Buyer 1 inside the split still values a good outside it.
    leaky = make_instance([[1, 1], [0, 1]], [2, 0])
    assert verify_convex_dual(leaky, buyers=[1], goods=[1], p=[Fraction(1), Fraction(1)]) is False
    # A feasible game admits no valid split at these prices.
    assert verify_convex_dual(scalar_feasible(), buyers=[], goods=[], p=[Fraction(1)]) is False


def test_verify_convex_dual_runs_one_max_flow_on_every_golden_certificate(monkeypatch):
    # No best-ratio edge crosses the split, so any one max-flow shows what
    # the rest buyers are left with; no balanced flow is needed.
    def no_balanced_flow(*args):
        raise AssertionError("verify_convex_dual ran a balanced flow")

    certs = [(inst, sol.certificate["convex_dual"]) for _, inst in _instances()
             for sol in [solve(inst)] if sol.verdict == "infeasible"]
    monkeypatch.setattr(certify, "balanced_flow", no_balanced_flow)
    for inst, cert in certs:
        with counting() as tally:
            assert verify_convex_dual(inst, **cert)
        assert tally["maxflows"] == 1
    assert len(certs) > 100


def test_verify_convex_dual_zero_row_form():
    inst = make_instance([[0], [1]], [0, 0])
    assert verify_convex_dual(inst, zero_row=0) is True
    assert verify_convex_dual(inst, zero_row=1) is False


def test_lp_dual_for_zero_row_is_verifiable():
    inst = make_instance([[0], [1]], [0, 0])
    cert = lp_dual_for_zero_row(inst, 0)
    assert verify_lp_dual(inst, cert["y"], cert["z"]) is True


# ---------------------------------------------------------------------------
# Partition certificate against a transcription of its definition


def _partition_by_definition(inst, buyers, goods, p):
    """Conditions (1)-(4) of ``verify_convex_dual``, each derived on its own."""
    split_b, split_g = set(buyers), set(goods)
    p = [Fraction(v) for v in p]
    if len(p) != inst.g or any(v <= 0 for v in p):
        return False
    if not (split_b <= set(range(inst.n)) and split_g <= set(range(inst.g))):
        return False
    rest_b = [i for i in range(inst.n) if i not in split_b]
    if not rest_b:
        return False
    for i in rest_b:
        for j in split_g:
            if inst.u[i][j] != 0:
                return False
    for i in split_b:
        inside = max(
            (Fraction(inst.u[i][j]) / p[j] for j in split_g if inst.u[i][j] > 0),
            default=Fraction(0),
        )
        if inside <= 0:
            return False
        for j in range(inst.g):
            if j not in split_g and inst.u[i][j] > 0:
                if Fraction(inst.u[i][j]) / p[j] >= inside:
                    return False
    try:
        net = build_network(inst, p)
    except ValueError:
        return False
    flow = max_flow(net)
    for j in range(inst.g):
        sold = Fraction(sum(f for (_, jj), f in flow.pair_flow.items() if jj == j), flow.scale)
        if j not in split_g and sold != p[j]:
            return False
    flow, theta = balanced_flow(net)
    return sum(theta[i] - flow.scale for i in rest_b) >= 0


def _partition_claims(rng, count):
    """Random instance/partition/price triples, many of them near a certificate."""
    while count > 0:
        n, g = rng.randint(1, 4), rng.randint(1, 4)
        u = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(g)] for _ in range(n)]
        c = [Fraction(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(n)]
        inst = make_instance(u, c)
        sol = solve(inst) if all(any(row) for row in u) else None
        cert = sol.certificate["convex_dual"] if sol and sol.verdict == "infeasible" else None
        for _ in range(8):
            if cert is not None and rng.random() < 0.75:
                buyers, goods, p = set(cert["buyers"]), set(cert["goods"]), list(cert["p"])
                move = rng.randrange(4)
                if move == 1:
                    buyers ^= {rng.randrange(n)}
                elif move == 2:
                    goods ^= {rng.randrange(g)}
                elif move == 3:
                    p[rng.randrange(g)] *= Fraction(rng.randint(1, 4), rng.randint(1, 4))
            else:
                buyers = {i for i in range(n) if rng.random() < 0.4}
                goods = {j for j in range(g) if rng.random() < 0.4}
                p = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(g)]
            yield inst, sorted(buyers), sorted(goods), p
            count -= 1


def test_verify_convex_dual_matches_its_definition():
    verdicts = []
    for inst, buyers, goods, p in _partition_claims(random.Random(5), 3200):
        ok = verify_convex_dual(inst, buyers=buyers, goods=goods, p=p)
        assert ok == _partition_by_definition(inst, buyers, goods, p), (inst, buyers, goods, p)
        verdicts.append(ok)
    assert len(verdicts) >= 3000
    assert verdicts.count(True) >= 300
    assert verdicts.count(False) >= 300
