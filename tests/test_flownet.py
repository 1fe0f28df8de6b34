"""Market sale network: construction, exact max flow, cuts, reachability."""

import random
from dataclasses import replace
from itertools import combinations
from fractions import Fraction

import pytest

from nashflow import (
    FlowResult,
    MarketNetwork,
    bang_per_buck,
    build_network,
    counting,
    gen_random,
    make_instance,
    max_flow,
    solve,
)
from conftest import (
    random_network,
    random_ratio_case,
    reference_bang_per_buck,
    scalar_feasible,
    symmetric_pair,
    unit_game,
)


# ---------------------------------------------------------------------------
# Best-ratio edges


def test_bang_per_buck_symmetric_pair_picks_own_good():
    gamma, edges = bang_per_buck(symmetric_pair().u, [Fraction(1), Fraction(1)])
    assert tuple(gamma) == (Fraction(2), Fraction(2))
    assert set(edges) == {(0, 0), (1, 1)}


def test_bang_per_buck_reports_ties():
    gamma, edges = bang_per_buck(((1, 1),), [Fraction(1), Fraction(1)])
    assert tuple(gamma) == (Fraction(1),)
    assert set(edges) == {(0, 0), (0, 1)}


def test_bang_per_buck_rejects_buyer_with_no_priced_interest():
    with pytest.raises(ValueError):
        bang_per_buck(((0, 1),), [Fraction(1), Fraction(0)])


# ---------------------------------------------------------------------------
# Network construction (flexible budgets: m_i = 1 + c_i/gamma_i)


def test_bang_per_buck_matches_the_fraction_reference():
    # The integer search returns the reference's gammas and the same edges in
    # the same order, or the same rejection.
    rng = random.Random(11)
    tied = rejected = deep = 0
    for _ in range(5000):
        u, p, _ = random_ratio_case(rng)
        try:
            want = reference_bang_per_buck(u, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                bang_per_buck(u, p)
            assert str(got.value) == str(exc)
            rejected += 1
            continue
        assert bang_per_buck(u, p) == want
        tied += len(want[1]) > len(want[0])
        deep += max(gamma.denominator for gamma in want[0]).bit_length() > 150
    assert tied > 400 and rejected > 400 and deep > 500


def test_build_network_unit():
    net = build_network(unit_game(), [Fraction(1)])
    assert net.p == (Fraction(1),)
    assert net.m == (Fraction(1),)
    assert bang_per_buck(unit_game().u, net.p)[0] == [Fraction(1)]
    assert set(net.edges) == {(0, 0)}


def test_build_network_adds_disagreement_money():
    net = build_network(scalar_feasible(), [Fraction(2)])
    # gamma = 2/2 = 1, so the buyer carries 1 + c/gamma = 2.
    assert bang_per_buck(scalar_feasible().u, net.p)[0] == [Fraction(1)]
    assert net.m == (Fraction(2),)


def test_build_network_symmetric_pair():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    assert net.m == (Fraction(1), Fraction(1))
    assert bang_per_buck(symmetric_pair().u, net.p)[0] == [Fraction(2), Fraction(2)]
    assert set(net.edges) == {(0, 0), (1, 1)}


# ---------------------------------------------------------------------------
# Exact max flow and its maximal min cut


def test_max_flow_saturates_single_edge():
    flow = max_flow(MarketNetwork((Fraction(1),), (Fraction(1),), frozenset({(0, 0)})))
    assert flow.value == Fraction(1)
    assert flow.pair_flow == {(0, 0): Fraction(1)}
    # The maximal cut absorbs both nodes.
    assert flow.far_side == (frozenset({0}), frozenset({0}))


def test_max_flow_money_short_cuts_agree():
    flow = max_flow(MarketNetwork((Fraction(1),), (Fraction(1, 2),), frozenset({(0, 0)})))
    assert flow.value == Fraction(1, 2)
    assert flow.far_side == (frozenset({0}), frozenset({0}))


def test_max_flow_symmetric_pair_moves_all_money():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    assert max_flow(net).value == Fraction(2)


def test_max_flow_respects_custom_money_caps():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow = max_flow(replace(net, m=(Fraction(1, 4), Fraction(1))))
    assert flow.value == Fraction(5, 4)
    assert flow.pair_flow == {(0, 0): Fraction(1, 4), (1, 1): Fraction(1)}


def test_max_flow_interior_edges_never_bind():
    # One buyer funnels more than any single good's price through one edge:
    # the good->buyer arc must not cap the flow.
    net = MarketNetwork(
        (Fraction(3, 2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(5, 2)),
        frozenset({(2, 0)}),
    )
    flow = max_flow(net)
    assert flow.value == Fraction(3, 2)
    # The good sells out and its buyer still has slack, so both stay on the
    # sink-reaching side of the maximal cut.
    assert 0 not in flow.far_side[1]
    assert 2 not in flow.far_side[0]


def test_max_flow_conservation_and_caps_random():
    rng = random.Random(9)
    for _ in range(150):
        net = random_network(rng)
        flow = max_flow(net)
        assert all(q > 0 for q in flow.pair_flow.values())
        for j in range(net.g):
            assert sum(q for (i, jj), q in flow.pair_flow.items() if jj == j) <= net.p[j]
        for i in range(net.n):
            assert sum(q for (ii, j), q in flow.pair_flow.items() if ii == i) <= net.m[i]
        assert all((i, j) in net.edges for (i, j) in flow.pair_flow)
        assert flow.value == sum(flow.pair_flow.values(), Fraction(0))
        # The cut's capacity certifies maximality.
        buyers, goods = flow.far_side
        cap = sum(
            (net.p[j] for j in range(net.g) if j not in goods), Fraction(0)
        ) + sum((net.m[i] for i in buyers), Fraction(0))
        assert cap == flow.value


def test_max_flow_equals_the_min_cut_at_180_bit_denominators():
    # Capacities are cleared by an lcm of about a thousand bits; the value
    # must still equal the least cut, found here by trying every set of goods
    # on the source side (their buyers must then be cut from the sink).
    rng = random.Random(13)

    def big():
        return Fraction(rng.getrandbits(182) + 1, rng.getrandbits(180) | 1 << 179)

    for _ in range(200):
        n, g = rng.randint(1, 3), rng.randint(1, 3)
        p = tuple(big() for _ in range(g))
        m = tuple(big() for _ in range(n))
        edges = frozenset((i, j) for i in range(n) for j in range(g) if rng.random() < 0.6)
        net = MarketNetwork(p, m, edges)
        least = min(
            sum((p[j] for j in range(g) if j not in side), Fraction(0))
            + sum((m[i] for i in range(n) if any((i, j) in edges for j in side)), Fraction(0))
            for k in range(g + 1)
            for side in combinations(range(g), k)
        )
        flow = max_flow(net)
        assert flow.value == least
        assert flow.value == sum(flow.pair_flow.values(), Fraction(0))
        for j in range(g):
            assert sum(q for (_, jj), q in flow.pair_flow.items() if jj == j) <= p[j]
        for i in range(n):
            assert sum(q for (ii, _), q in flow.pair_flow.items() if ii == i) <= m[i]


def test_counting_tallies_each_block_and_adds_nested_blocks_outward():
    net = MarketNetwork((Fraction(1),), (Fraction(1),), frozenset({(0, 0)}))
    max_flow(net)  # outside every block: counted nowhere
    with counting() as outer:
        max_flow(net)
        assert outer == {"maxflows": 1}
        with counting() as inner:
            max_flow(net)
            max_flow(net)
            assert inner == {"maxflows": 2}
            assert outer == {"maxflows": 1}
        assert outer == {"maxflows": 3}
    max_flow(net)
    assert (outer, inner) == ({"maxflows": 3}, {"maxflows": 2})


def test_counting_starts_afresh_for_every_solve():
    inst = gen_random(3, 3, 5, 3, 1)
    first = solve(inst)
    with counting() as tally:
        second = solve(inst)
    assert first.verdict == "feasible"
    assert first.stats["maxflows"] == second.stats["maxflows"] > 0
    assert first.stats["detail"]["guess"] == second.stats["detail"]["guess"]
    # The enclosing block also sees the self-check's one max-flow, which
    # the solve's own count leaves out.
    assert tally["maxflows"] == second.stats["maxflows"] + 1


# ---------------------------------------------------------------------------
# Residual reachability over interior nodes


def test_residual_reachable_balanced_buyers_are_separated():
    from nashflow import balanced_flow

    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow, _ = balanced_flow(net)
    assert flow.residual_reach({0}) == {0}


def test_residual_reachable_zero_flow_follows_interest_edges_only():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    zero = FlowResult(
        value=Fraction(0),
        pair_flow={},
        far_side=(frozenset(), frozenset()),
        net=net,
    )
    # A buyer receiving no flow has no residual arc back into any good.
    assert zero.residual_reach({0}) == {0}
