"""Market sale network: construction, exact max flow, cuts, reachability."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nashflow import (
    FlowResult,
    MarketNetwork,
    bang_per_buck,
    build_network,
    make_instance,
    max_flow,
    maxflow_call_count,
)
from conftest import random_network, scalar_feasible, symmetric_pair, unit_game


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


def test_maxflow_call_count_increases():
    before = maxflow_call_count()
    max_flow(MarketNetwork((Fraction(1),), (Fraction(1),), frozenset({(0, 0)})))
    assert maxflow_call_count() == before + 1


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
