"""Fixed-budget market equilibria and the one-phase norm instrumentation."""

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashflow import (
    FisherError,
    check_kkt,
    counting,
    fisher_equilibrium,
    gen_random,
    make_instance,
    solve,
)
from nashflow import fisher
from nashflow.fisher import _FixedBudgets, _next_tie, _rebuild
from nashflow.flownet import max_flow, maximal_cut
from conftest import (
    measure_l1_vs_l2,
    random_ratio_case,
    reference_first_tight,
    reference_next_tie,
    symmetric_pair,
)


# ---------------------------------------------------------------------------
# Pinned equilibria


def test_single_buyer_single_good():
    p, x, trace = fisher_equilibrium(((1,),), (Fraction(1),))
    assert tuple(p) == (Fraction(1),)
    assert x == [[Fraction(1)]]
    # The start prices are already the equilibrium: one state, no events.
    assert [(e["kind"], e["phase"], e["theta"]) for e in trace] == [("state", 0, (0,))]


def test_rebalance_rejects_an_active_good_that_no_longer_sells():
    # No one values good 1, yet it is active at price 1: the balanced flow
    # routes 1 of the active price mass 2.
    market = _FixedBudgets(((1, 0),), (Fraction(1),), [Fraction(1), Fraction(1)], True)
    with pytest.raises(FisherError, match="active goods can no longer fully sell"):
        _rebuild(market)


def test_two_buyers_split_one_good():
    p, x, _ = fisher_equilibrium(((1,), (1,)), (Fraction(1), Fraction(1)))
    assert tuple(p) == (Fraction(2),)
    assert x == [[Fraction(1, 2)], [Fraction(1, 2)]]


def test_symmetric_pair_settles_on_own_goods():
    p, x, _ = fisher_equilibrium(symmetric_pair().u, (Fraction(1), Fraction(1)))
    assert tuple(p) == (Fraction(1), Fraction(1))
    assert x == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_equilibria_spend_every_budget_and_sell_every_good():
    rng = random.Random(5)
    for _ in range(40):
        n, g = rng.randint(1, 4), rng.randint(1, 4)
        inst = gen_random(n, g, 5, 0, rng.randint(0, 10**6))
        money = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        p, x, _ = fisher_equilibrium(inst.u, money)
        assert sum(p) == sum(money)
        for j in range(g):
            assert sum(x[i][j] for i in range(n)) == Fraction(1)
        for i in range(n):
            assert sum(x[i][j] * p[j] for j in range(g)) == money[i]
        # Buyers only receive goods of maximal utility per unit of money.
        for i in range(n):
            best = max(Fraction(inst.u[i][j], 1) / p[j] for j in range(g) if p[j] > 0)
            for j in range(g):
                if x[i][j] > 0:
                    assert Fraction(inst.u[i][j], 1) / p[j] == best


def test_prices_never_decrease_during_a_run():
    rng = random.Random(13)
    for _ in range(15):
        inst = gen_random(3, 3, 5, 0, rng.randint(0, 10**6))
        money = tuple(Fraction(rng.randint(1, 4)) for _ in range(3))
        _, _, trace = fisher_equilibrium(inst.u, money)
        states = [e for e in trace if e["kind"] == "state"]
        for before, after in zip(states, states[1:]):
            assert all(a >= b for a, b in zip(after["p"], before["p"]))


def test_unit_money_equilibrium_matches_zero_disagreement_solve():
    inst = make_instance([[3, 1, 2], [1, 4, 1], [2, 2, 5]], [0, 0, 0])
    p, x, _ = fisher_equilibrium(inst.u, (Fraction(1),) * 3)
    sol = solve(inst)
    assert sol.verdict == "feasible"
    assert list(sol.p) == list(p)
    ok, why = check_kkt(inst, list(p), x, sol.v)
    assert ok, why


# ---------------------------------------------------------------------------
# One-phase norm instrumentation on the surplus-ladder family


def test_ladder_phase_event_schedule_smallest_family():
    report = measure_l1_vs_l2(2, Fraction(1), Fraction(2))
    events = report["events"]
    assert [(e["type"], e["iteration"]) for e in events] == [
        ("edge", 1),
        ("edge", 2),
        ("tight", 3),
    ]
    # Each edge event hands the active block the next rung of the ladder.
    assert events[0]["pairs"] == [(0, 1)]
    assert events[0]["x"] == Fraction(3841, 3840)
    assert events[1]["pairs"] == [(1, 2)]
    assert events[1]["x"] == Fraction(3842, 3841)
    # The phase ends when the heavy last good goes tight.
    assert events[2]["tight_goods"] == [2]
    assert events[2]["tight_buyers"] == [1, 2]
    assert events[2]["x"] == Fraction(11521, 9600)


def test_ladder_phase_event_schedule_scales_with_n():
    report = measure_l1_vs_l2(4)
    events = report["events"]
    assert [e["type"] for e in events] == ["edge"] * 4 + ["tight"]
    assert [e["pairs"] for e in events[:-1]] == [[(k - 1, k)] for k in range(1, 5)]
    assert events[-1]["tight_goods"] == [4]
    assert events[-1]["tight_buyers"] == [3, 4]


def test_ladder_phase_l1_barely_moves_before_the_tight_event():
    report = measure_l1_vs_l2(2, Fraction(1), Fraction(2))
    assert report["l1_start"] == Fraction(3841, 3840)
    pre_tight_drop = report["l1_start"] - report["l1_after_edges"]
    assert pre_tight_drop == Fraction(4801, 7374720)
    assert pre_tight_drop <= Fraction(1, 2)  # delta/2


def test_ladder_phase_whole_phase_norms_pinned():
    report = measure_l1_vs_l2(2, Fraction(1), Fraction(2))
    assert report["l1_drop"] == Fraction(56722660801, 70797312000)
    assert report["l2_drop_factor"] == Fraction(
        198615129347557824001, 5012259726340938240000
    )


def test_ladder_phase_l1_progress_is_inverse_exponential():
    for n in (6, 8):
        report = measure_l1_vs_l2(n)
        assert report["l1_drop"] <= Fraction(1, 2 ** (n - 2))
        buyers = n + 1
        assert report["l2_drop_factor"] <= 1 - Fraction(1, buyers**2)


# ---------------------------------------------------------------------------
# Edge-event search


def test_next_tie_matches_the_fraction_reference():
    # Same factor and the same tying pairs in the same order, rising and
    # falling, or the same ZeroDivisionError when a zero price ties first
    # while prices fall.
    rng = random.Random(12)
    tied = raised = deep = 0
    for _ in range(5000):
        u, p, gamma = random_ratio_case(rng)
        n, g = len(u), len(p)
        market = SimpleNamespace(
            u=u, p=p, gamma=gamma,
            active_buyers={i for i in range(n) if rng.random() < 0.8},
            active_goods={j for j in range(g) if rng.random() < 0.8},
        )
        block = {i for i in market.active_buyers if rng.random() < 0.5}
        goods = {j for j in market.active_goods if rng.random() < 0.5}
        ascending = rng.random() < 0.5
        try:
            want = reference_next_tie(market, block, goods, ascending)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _next_tie(market, block, goods, ascending)
            raised += 1
            continue
        assert _next_tie(market, block, goods, ascending) == want
        tied += len(want[1]) > 1
        deep += want[0] is not None and want[0].denominator.bit_length() > 150
    assert tied > 150 and raised > 150 and deep > 200


# ---------------------------------------------------------------------------
# Tight search


def test_tight_search_matches_the_reference_descent(monkeypatch):
    # Every turn of every fixed-budget phase asks the stop and the reference
    # descent at the same state.  The stop lets the edge event through
    # exactly when it comes before the reference's tight factor; otherwise it
    # logs the reference's factor and its maximal tight sets, ties included.
    # It runs no max-flow at equal budgets, and none for an edge event that
    # comes before L = min m_i / spent_i over the block (the block's flow
    # scaled to the edge factor still fits every budget).
    stop = _FixedBudgets.stop_at_tight
    seen = Counter()

    def checked(market, x_edge, block, goods, iteration):
        x_ref, buyers_ref, goods_ref = reference_first_tight(
            market.p, market.money, market.edges, goods
        )
        spent = Counter()
        for (i, j), f in market.flow.pair_flow.items():
            spent[i] += f
        certified = x_edge is not None and all(
            x_edge * spent[i] < market.money[i] for i in block
        )
        equal = len(set(market.money)) == 1
        with counting() as tally:
            ended = stop(market, x_edge, block, goods, iteration)
        if equal or certified:
            assert tally["maxflows"] == 0
        seen["descent"] += tally["maxflows"] > 0
        if not ended:
            assert x_edge is not None and x_edge < x_ref
            seen["edge"] += 1
            seen["certified"] += certified
            return False
        assert not certified
        assert x_edge is None or x_edge >= x_ref
        event = market.trace[-1]
        assert event["type"] == "tight" and event["x"] == x_ref
        assert event["tight_goods"] == sorted(goods_ref)
        assert event["tight_buyers"] == sorted(buyers_ref)
        seen["tight"] += 1
        seen["tie"] += x_edge == x_ref
        return True

    monkeypatch.setattr(_FixedBudgets, "stop_at_tight", checked)
    rng = random.Random(3)
    for k in range(600):
        n, g = rng.randint(1, 6), rng.randint(1, 6)
        inst = gen_random(n, g, rng.choice((3, 9, 50)), 0, rng.randint(0, 10**6))
        if k % 2:
            money = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n))
        else:
            money = (Fraction(1),) * n
        fisher_equilibrium(inst.u, money)
    assert seen["edge"] >= 800 and seen["tight"] >= 1200 and seen["tie"] >= 1, seen
    assert seen["certified"] >= 700 and seen["descent"] >= 1, seen


@st.composite
def fixed_budget_markets(draw):
    """Small markets in which every buyer values some good; goods may be valueless."""
    n, g = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 9), min_size=g, max_size=g).filter(any)
    u = draw(st.lists(row, min_size=n, max_size=n))
    budget = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
    if draw(st.booleans()):
        return u, (Fraction(1),) * n
    return u, tuple(draw(st.lists(budget, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@example(market=([[2, 0, 1], [1, 0, 3]], (Fraction(1), Fraction(2))))
@example(market=([[2, 0, 1], [1, 0, 3]], (Fraction(1), Fraction(1))))
@given(fixed_budget_markets())
def test_the_closed_form_cut_is_the_max_flow_cut(market):
    # At L = min m_i / spent_i the stop reads the maximal min cut off the
    # block's scaled flow.  It must be the far side a max-flow of that very
    # network reports, goods priced at 0 (no one values them) included.
    cuts = []

    def checked(net, support, room):
        far = maximal_cut(net, support, room)
        res = max_flow(net)
        assert res.value == sum(net.p)
        assert far == res.far_side
        cuts.append((net, far))
        return far

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "maximal_cut", checked)
        fisher_equilibrium(*market)
    for net, (_, goods) in cuts:
        assert {j for j, q in enumerate(net.p) if q == 0} <= goods
    if market[0] == [[2, 0, 1], [1, 0, 3]]:
        assert cuts and all(net.p[1] == 0 for net, _ in cuts)


def test_tight_descent_rejects_a_stale_cut(monkeypatch):
    # Under these unequal budgets the closed form misses and the descent
    # runs; its first max-flow leaves goods unsold.  A flow core that keeps
    # reporting that flow and its far side yields no smaller factor, which
    # the progress check must catch instead of running to the descent's cap.
    real, first = fisher.max_flow, []

    def stale(net):
        if not first:
            first.append(real(net))
        return first[0]

    monkeypatch.setattr(fisher, "max_flow", stale)
    with pytest.raises(FisherError, match="failed to make progress"):
        fisher_equilibrium(((2, 9), (1, 4)), (Fraction(3), Fraction(1)))
    assert first[0].value < sum(first[0].net.p)
