"""Balanced flows: l2-minimal surpluses, their characterization, scaling."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import nashflow.balanced as balanced
from nashflow import (
    FlowResult,
    MarketNetwork,
    balanced_flow,
    build_network,
    counting,
    gen_random,
    max_flow,
    scale_flow,
    solve,
    surpluses,
    verify_property1,
)
from conftest import (
    random_network,
    reference_balanced_flow,
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
# The recursion: values passed down, at most 2n + 1 max-flows


def _restricted(rng, net):
    """``net``, sometimes cut to a block and with some buyers' money zeroed."""
    if rng.random() < 0.3:
        kept_b = {i for i in range(net.n) if rng.random() < 0.7}
        kept_g = {j for j in range(net.g) if rng.random() < 0.7}
        net = net.sub(kept_b, kept_g)
    if rng.random() < 0.3:
        net = replace(net, m=tuple(Fraction(0) if rng.random() < 0.3 else x for x in net.m))
    return net


@pytest.fixture
def flows_per_call(monkeypatch):
    """``(n, max-flows, outcome)`` of every ``balanced_flow`` call, wherever it is bound.

    ``outcome`` is None for a call without a hint, else ``"hits"`` or
    ``"misses"``, read from a ``counting()`` block around the call; the
    enclosing tally still receives it.
    """
    count, calls = [0], []
    real_max_flow, real_balanced_flow = balanced.max_flow, balanced.balanced_flow

    def counted_max_flow(net):
        count[0] += 1
        return real_max_flow(net)

    def counted_balanced_flow(net, hint=None):
        count[0] = 0
        with counting() as mine:
            result = real_balanced_flow(net, hint)
        outcome = None if hint is None else "hits" if mine["hits"] else "misses"
        calls.append((net.n, count[0], outcome))
        return result

    monkeypatch.setattr(balanced, "max_flow", counted_max_flow)
    for module in ("balanced", "fisher", "solver", "certify"):
        monkeypatch.setattr(f"nashflow.{module}.balanced_flow", counted_balanced_flow)
    return calls


def test_balanced_flow_runs_at_most_2n_plus_1_max_flows(flows_per_call):
    rng = random.Random(7)
    thetas = [
        balanced.balanced_flow(_restricted(rng, random_network(rng, 6, 6)))[1]
        for _ in range(3000)
    ]
    assert len(flows_per_call) == 3000
    assert all(flows <= 2 * n + 1 for n, flows, _ in flows_per_call)
    split = [len(set(theta)) > 1 for theta in thetas]
    # A root that does not split has already run the reassembly's max-flow.
    assert all(flows <= 2 for (_, flows, _), s in zip(flows_per_call, split) if not s)
    # The bound is tight: a full split tree whose every leaf runs its trial.
    tight = {n for (n, flows, _), s in zip(flows_per_call, split) if s and flows == 2 * n + 1}
    assert tight >= {2, 3, 4, 5}


def test_solver_balanced_flows_stay_within_2n_plus_1_max_flows(flows_per_call):
    # A hinted miss may cost 2n + 2 (the guess, then the recursion); none
    # of these solves' misses does, and every hit costs one max-flow.
    for seed in range(3):
        solve(gen_random(12, 12, 1000, 1500, seed))
    assert len(flows_per_call) > 50
    assert all(flows <= 2 * n + 1 for n, flows, _ in flows_per_call)
    assert all(flows == 1 for _, flows, outcome in flows_per_call if outcome == "hits")


def test_guess_counters_count_every_hinted_call(flows_per_call):
    sol = solve(gen_random(12, 12, 1000, 1500, 0))
    outcomes = [outcome for _, _, outcome in flows_per_call if outcome is not None]
    guess = sol.stats["detail"]["guess"]
    assert guess["hits"] + guess["misses"] == len(outcomes)
    assert guess["hits"] == outcomes.count("hits") > 0


def test_balanced_flow_matches_the_plain_recursion():
    # Sizes beyond ``reference_surpluses``; the plain recursion runs a
    # max-flow for each block's value and checks that a split keeps it.
    rng = random.Random(8)
    split = 0
    for _ in range(3000):
        net = _restricted(rng, random_network(rng, 8, 8))
        flow, theta = balanced_flow(net)
        ref_flow, ref_theta = reference_balanced_flow(net)
        assert theta == ref_theta
        assert flow.pair_flow == ref_flow.pair_flow
        assert (flow.value, flow.far_side) == (ref_flow.value, ref_flow.far_side)
        split += len(set(theta)) >= 3
    assert split > 300


# ---------------------------------------------------------------------------
# The guess: surpluses from a previous balanced flow, proved by one max-flow


def _hinted_cases(rng, count):
    """``(kind, net, hint)`` for ``count`` random networks, six hints each.

    ``own`` is the network's balanced flow; ``other`` a balanced flow of an
    earlier network with as many buyers; ``moved`` the network's own flow
    after some prices scale and an edge is added or dropped, as between two
    rebalances of a market; ``permuted`` the own flow with its surpluses
    shuffled across buyers; ``one level`` the own flow with every buyer at
    one level, which lifts a poor buyer's guessed level above its money;
    ``sub`` the own flow on a restriction, which leaves zero-money buyers
    with stale levels.
    """
    earlier = {}
    for _ in range(count):
        net = _restricted(rng, random_network(rng, 6, 6))
        own = balanced.balanced_flow(net)
        flow, theta = own
        yield "own", net, own
        if net.n in earlier:
            yield "other", net, earlier[net.n]
        earlier[net.n] = own
        shuffled = list(theta)
        rng.shuffle(shuffled)
        yield "permuted", net, (flow, tuple(shuffled))
        yield "one level", net, (flow, (Fraction(0),) * net.n)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        p = tuple(x * factor if rng.random() < 0.5 else x for x in net.p)
        pair = (rng.randrange(net.n), rng.randrange(net.g))
        yield "moved", MarketNetwork(p, net.m, net.edges ^ {pair}), own
        kept_b = {i for i in range(net.n) if rng.random() < 0.7}
        kept_g = {j for j in range(net.g) if rng.random() < 0.7}
        yield "sub", net.sub(kept_b, kept_g), own


def test_hinted_balanced_flow_matches_the_plain_recursion():
    rng = random.Random(11)
    outcomes = {}
    ref_net = None
    for kind, net, hint in _hinted_cases(rng, 2000):
        with counting() as tally:
            flow, theta = balanced_flow(net, hint)
        if net is not ref_net:  # the cases on one network come in a row
            ref_net, (ref_flow, ref_theta) = net, reference_balanced_flow(net)
        assert theta == ref_theta
        assert flow.pair_flow == ref_flow.pair_flow
        assert (flow.value, flow.far_side) == (ref_flow.value, ref_flow.far_side)
        outcome = (tally["hits"], tally["misses"])
        hit = outcome == (1, 0)
        assert hit or outcome == (0, 1)
        if kind == "own":
            # Its own classes give every surplus; the gate then needs only
            # the whole price mass to sell.
            assert hit == (ref_flow.value == sum(net.p, Fraction(0)))
        outcomes.setdefault(kind, []).append(hit)
    for kind, hits in outcomes.items():
        assert 0 < hits.count(True) < len(hits), kind


def test_hinted_balanced_flow_costs_one_max_flow_on_a_hit(flows_per_call):
    rng = random.Random(12)
    cases = list(_hinted_cases(rng, 500))
    del flows_per_call[:]
    for _, net, hint in cases:
        balanced.balanced_flow(net, hint)
    assert len(flows_per_call) == len(cases)
    # A miss adds the guess's max-flow to the recursion's 2n + 1.
    assert all(flows <= 2 * n + 2 for n, flows, _ in flows_per_call)
    assert all(flows == 1 for _, flows, outcome in flows_per_call if outcome == "hits")
    assert any(flows == 2 * n + 2 for n, flows, _ in flows_per_call)


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
