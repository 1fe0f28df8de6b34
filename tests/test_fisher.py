"""Fixed-budget market equilibria and the one-phase norm instrumentation."""

import random
from math import lcm
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nashflow import (
    FisherError,
    check_kkt,
    fisher_equilibrium,
    gen_random,
    initialize,
    limit_algorithm,
    make_instance,
    preprocess,
    solve,
)
from nashflow import fisher, solver
from nashflow.fisher import _FixedBudgets, _next_tie, _rebuild
from conftest import (
    budget_values,
    closed_edges,
    measure_l1_vs_l2,
    random_ratio_case,
    reference_bang_per_buck,
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
    market = _FixedBudgets(((1, 0),), (Fraction(1),), [Fraction(1), Fraction(1)])
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
    # while prices fall.  The kernel reads the market's integers: prices over
    # their least common denominator and each ratio as a reduced pair; the
    # reference reads the same values as ``Fraction``s.
    rng = random.Random(12)
    tied = raised = deep = 0
    for _ in range(5000):
        u, p, gamma = random_ratio_case(rng)
        n, g = len(u), len(p)
        scale = lcm(*[q.denominator for q in p])
        market = SimpleNamespace(
            u=u, p=p, gamma=gamma, price_scale=scale,
            price=[q.numerator * (scale // q.denominator) for q in p],
            ratio=[(r.numerator, r.denominator) for r in gamma],
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
    # An edge event that comes before L = min m_i / spent_i over the block is
    # "certified": the block's flow scaled to the edge factor still fits
    # every budget, so the tight factor cannot come first.  The reference
    # searches the network the move leaves: without the outside buyers'
    # edges into the block's goods.
    stop = _FixedBudgets.stop_at_tight
    seen = Counter()

    def checked(market, x_edge, block, goods, iteration):
        money = budget_values(market)
        x_ref, buyers_ref, goods_ref = reference_first_tight(
            market.p, money, closed_edges(market.edges, block, goods), goods
        )
        spent = Counter()
        for (i, j), f in market.flow.pair_flow.items():
            spent[i] += f
        certified = x_edge is not None and all(
            x_edge * Fraction(spent[i], market.flow.scale) < money[i] for i in block
        )
        ended = stop(market, x_edge, block, goods, iteration)
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
    assert seen["certified"] >= 700, seen


def test_stage0_reaches_the_fixed_budget_equilibrium_by_its_tight_events(monkeypatch):
    # Stage 0 of the solver and ``fisher_equilibrium`` share no tight logic:
    # the first reads each tight factor off the flow, the second descends
    # over min cuts.  At unit money both must reach the same prices in the
    # same number of phases, and every stage-0 tight event must sit at the
    # reference descent's factor with its tight sets inside the maximal ones.
    # The move is checked as it starts, so the reference leaves out the edges
    # it drops, and the tight buyers are those whose surplus it takes to 0.
    scale, seen = solver._scale, Counter()

    def checked(state, block, goods, x):
        assert set(budget_values(state)) == {1}
        x_ref, buyers_ref, goods_ref = reference_first_tight(
            state.p, budget_values(state), closed_edges(state.edges, block, goods), goods
        )
        assert x == x_ref
        tight = {i for i in block if x * (Fraction(state.theta[i], state.flow.scale) - 1) == -1}
        assert tight and tight <= buyers_ref
        assert {j for (i, j) in state.flow.pair_flow if i in tight and j in goods} <= goods_ref
        seen["tight"] += 1
        seen["tie"] += _next_tie(state, block, goods, True)[0] == x
        scale(state, block, goods, x)

    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    for shape in shapes:
        reduced, report = preprocess(gen_random(*shape))
        if report.verdict == "infeasible":
            continue
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_scale", checked)
            state = initialize(reduced)
        p, _, trace = fisher_equilibrium(reduced.u, (Fraction(1),) * reduced.n)
        assert tuple(state.p) == p, shape
        phases = sum(e["kind"] == "state" for e in trace) - 1
        assert state.stats["fisher_phases"] == phases, shape
        seen["phases"] += phases
    assert seen["tight"] == seen["phases"] > 500 and seen["tie"] >= 1, seen


def test_phase_ends_rederive_only_the_buyers_left_without_an_edge(monkeypatch):
    # The kernel keeps every ratio and edge exact, but for a buyer that a
    # rising move left with no edge.  So re-deriving those buyers alone at a
    # fixed-budget phase end must give the ratios and edges that
    # ``reference_bang_per_buck`` finds for every buyer.  Checked at every
    # phase end of the golden digest's fixed-budget runs (the first
    # limit-iteration rounds of four 4x4 games) and of the limit iterations
    # that visit them.
    rebuild, seen = fisher._rebuild, Counter()

    def checked(market, buyers=None):
        rebuild(market, buyers)
        if buyers is not None:
            gamma, edges = reference_bang_per_buck(market.u, market.p)
            assert market.gamma == gamma and market.edges == set(edges)
            seen["phase ends"] += 1
            seen["stripped"] += bool(buyers)

    monkeypatch.setattr(fisher, "_rebuild", checked)
    for seed in range(4):
        inst = gen_random(4, 4, 10, 10, seed)
        reduced, _ = preprocess(inst)
        for _, money in limit_algorithm(inst, max_iter=3).history[1:]:
            fisher_equilibrium(reduced.u, money)
    assert seen["phase ends"] > 60 and seen["stripped"] > 10, seen


def test_tight_search_builds_a_fraction_for_each_factor_alone(monkeypatch):
    # The descent sums ints: the market's prices and budgets for the first
    # factor, each trial network's for every step after it.  So the only
    # ``Fraction``s it builds are its factors, one per trial network.
    stop, real_max_flow = _FixedBudgets.stop_at_tight, fisher.max_flow
    seen, inside = Counter(), []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        seen["fractions"] += bool(inside)
        return new(cls, *args, **kwargs)

    def trial(net):
        seen["networks"] += bool(inside)
        return real_max_flow(net)

    def watched(market, *args):
        inside.append(True)
        try:
            return stop(market, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(_FixedBudgets, "stop_at_tight", watched)
    monkeypatch.setattr(fisher, "max_flow", trial)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for seed in range(4):
        limit_algorithm(gen_random(4, 4, 10, 10, seed), max_iter=3)
    monkeypatch.undo()
    assert seen["networks"] > 80 and seen["fractions"] == seen["networks"], seen


def test_tight_descent_rejects_a_stale_cut(monkeypatch):
    # Under these unequal budgets some max-flow of the descent leaves goods
    # unsold.  A flow core that keeps reporting the first such flow and its
    # far side yields no smaller factor, which the progress check must catch
    # instead of running to the descent's cap.
    real, first = fisher.max_flow, []

    def stale(net):
        if first:
            return first[0]
        res = real(net)
        if res.value < sum(res.net.p):
            first.append(res)
        return res

    monkeypatch.setattr(fisher, "max_flow", stale)
    with pytest.raises(FisherError, match="failed to make progress"):
        fisher_equilibrium(((2, 9), (1, 4)), (Fraction(3), Fraction(1)))
    assert first[0].value < sum(first[0].net.p)
