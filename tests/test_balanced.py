"""Balanced flows: l2-minimal surpluses, their characterization, scaling."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nashflow import (
    FlowResult,
    MarketNetwork,
    balanced_flow,
    build_network,
    max_flow,
    scale_flow,
    surpluses,
    verify_property1,
)
from conftest import (
    random_network,
    reference_surpluses,
    scalar_feasible,
    scaled_network,
    symmetric_pair,
)


def _unbalanced_shared_good():
    """One good two buyers could split, sold entirely to buyer 1."""
    net = MarketNetwork(
        (Fraction(1),), (Fraction(1), Fraction(1)), frozenset({(0, 0), (1, 0)})
    )
    flow = FlowResult(
        value=Fraction(1),
        pair_flow={(1, 0): Fraction(1)},
        far_side=(frozenset(), frozenset()),
        net=net,
    )
    return net, flow


# ---------------------------------------------------------------------------
# Pinned small networks


def test_balanced_flow_splits_contested_good_evenly():
    net = MarketNetwork(
        (Fraction(1),), (Fraction(1), Fraction(1)), frozenset({(0, 0), (1, 0)})
    )
    flow, theta = balanced_flow(net)
    assert theta == (Fraction(1, 2), Fraction(1, 2))
    assert flow.pair_flow == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)}


def test_balanced_flow_disconnected_market_has_no_surplus():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow, theta = balanced_flow(net)
    assert theta == (Fraction(0), Fraction(0))
    assert flow.value == Fraction(2)


def test_balanced_flow_cannot_spend_past_the_prices():
    net = MarketNetwork(
        (Fraction(1),), (Fraction(2), Fraction(1)), frozenset({(0, 0), (1, 0)})
    )
    _, theta = balanced_flow(net)
    assert theta == (Fraction(1), Fraction(1))


def test_balanced_flow_is_a_max_flow():
    rng = random.Random(21)
    for _ in range(60):
        net = random_network(rng)
        flow, theta = balanced_flow(net)
        assert flow.value == max_flow(net).value
        assert surpluses(net, flow) == theta


# ---------------------------------------------------------------------------
# The residual-order characterization


def test_verify_property1_accepts_balanced_flows():
    net = MarketNetwork(
        (Fraction(1),), (Fraction(1), Fraction(1)), frozenset({(0, 0), (1, 0)})
    )
    flow, _ = balanced_flow(net)
    assert verify_property1(net, flow) is True


def test_verify_property1_rejects_lopsided_split():
    net, flow = _unbalanced_shared_good()
    assert surpluses(net, flow) == (Fraction(1), Fraction(0))
    # Buyer 1 (no surplus) can reach buyer 0 (full surplus) in the residual
    # graph, so money could be rebalanced: the flow is not balanced.
    assert verify_property1(net, flow) is False


def test_verify_property1_matches_residual_search():
    # Edmonds-Karp flows are rarely balanced and balanced flows always are,
    # so both verdicts occur; sub-networks, zero prices and clamped budgets
    # are the shapes the balanced-flow recursion feeds the check.
    rng = random.Random(4)
    verdicts = []
    for _ in range(2400):
        net = random_network(rng, max_buyers=5, max_goods=4)
        if rng.random() < 0.3:
            net = replace(net, p=tuple(x if rng.random() < 0.7 else Fraction(0) for x in net.p))
        if rng.random() < 0.3:
            kept_b = {i for i in range(net.n) if rng.random() < 0.7}
            kept_g = {j for j in range(net.g) if rng.random() < 0.7}
            net = net.sub(kept_b, kept_g)
        if rng.random() < 0.3:
            delta = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            clamped = replace(net, m=tuple(max(x - delta, Fraction(0)) for x in net.m))
            flow = max_flow(clamped)
        elif rng.random() < 0.2:
            flow, _ = balanced_flow(net)
        else:
            flow = max_flow(net)
        # The characterization read literally: a residual search from every
        # buyer, which the reverse search must mirror.
        theta = surpluses(net, flow)
        buyers = range(net.n)
        reach = [flow.residual_reach({i}) for i in buyers]
        reached_by = [flow.residual_reach({k}, reverse=True) for k in buyers]
        assert all((k in reach[i]) == (i in reached_by[k]) for i in buyers for k in buyers)
        verdict = verify_property1(net, flow)
        assert verdict == all(theta[k] <= theta[i] for i in buyers for k in reach[i])
        verdicts.append(verdict)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 200


def test_surpluses_are_money_minus_spending():
    net, flow = _unbalanced_shared_good()
    assert surpluses(net, flow) == (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Agreement with the subset-enumeration reference


def test_balanced_flow_matches_reference_on_random_networks():
    rng = random.Random(42)
    for _ in range(300):
        net = random_network(rng)
        flow, theta = balanced_flow(net)
        assert theta == reference_surpluses(net)
        assert verify_property1(net, flow) is True


def test_surplus_vector_is_order_independent():
    # Relabeling buyers permutes the surplus vector and changes nothing else:
    # the balanced surpluses are unique, whatever order the search visits.
    rng = random.Random(99)
    for _ in range(80):
        net = random_network(rng, max_buyers=4, max_goods=3)
        perm = list(range(net.n))
        rng.shuffle(perm)
        permuted = MarketNetwork(
            net.p,
            tuple(net.m[perm[i]] for i in range(net.n)),
            frozenset((perm.index(i), j) for (i, j) in net.edges),
        )
        _, theta = balanced_flow(net)
        _, theta_p = balanced_flow(permuted)
        assert theta_p == tuple(theta[perm[i]] for i in range(net.n))


# ---------------------------------------------------------------------------
# Uniform block scaling


def test_scale_flow_up_reaches_the_equilibrium():
    net = build_network(scalar_feasible(), [Fraction(1)])
    _, theta = balanced_flow(net)
    assert theta == (Fraction(1, 2),)
    stheta = scale_flow(net.edges, theta, Fraction(2), {0}, {0})
    assert stheta == (Fraction(0),)
    # The scaled network is the market at the doubled price.
    scaled = scaled_network(net, Fraction(2), {0}, {0})
    assert scaled == build_network(scalar_feasible(), [Fraction(2)])
    assert (scaled.p, scaled.m) == ((Fraction(2),), (Fraction(2),))
    assert balanced_flow(scaled)[1] == stheta


def test_scale_flow_down_grows_the_surplus():
    net = build_network(scalar_feasible(), [Fraction(1)])
    _, theta = balanced_flow(net)
    stheta = scale_flow(net.edges, theta, Fraction(1, 2), {0}, {0})
    assert stheta == (Fraction(3, 4),)
    scaled = scaled_network(net, Fraction(1, 2), {0}, {0})
    assert (scaled.p, scaled.m) == ((Fraction(1, 2),), (Fraction(5, 4),))


def test_scale_flow_scaled_result_is_balanced_for_the_new_network():
    net = build_network(scalar_feasible(), [Fraction(1)])
    _, theta = balanced_flow(net)
    for x in (Fraction(3, 2), Fraction(2), Fraction(1, 3)):
        stheta = scale_flow(net.edges, theta, x, {0}, {0})
        _, direct = balanced_flow(scaled_network(net, x, {0}, {0}))
        assert stheta == direct


def test_scale_flow_rejects_edges_crossing_the_block():
    # Scaling only part of a connected block would break flow consistency.
    net = MarketNetwork(
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
        frozenset({(0, 0), (0, 1), (1, 1)}),
    )
    _, theta = balanced_flow(net)
    with pytest.raises(ValueError):
        scale_flow(net.edges, theta, Fraction(2), {0}, {0})
