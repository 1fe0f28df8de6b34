"""Market sale network: construction, exact max flow, cuts, reachability."""

import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nashflow.balanced
import nashflow.certify
import nashflow.fisher
import nashflow.oracle
import nashflow.solver
from nashflow import (
    FlowError,
    FlowResult,
    MarketNetwork,
    balanced_flow,
    build_network,
    counting,
    gen_random,
    limit_algorithm,
    make_instance,
    max_flow,
    solution_to_json,
    solve,
)
from nashflow.cli import _check_claim
from nashflow.fisher import _FixedBudgets
from conftest import (
    GOLDEN_SHAPES,
    balanced_values,
    closed_edges,
    flow_value,
    in_units,
    integer_network,
    network_values,
    random_network,
    random_ratio_case,
    reference_bang_per_buck,
    reference_build_network,
    reference_max_flow,
    reference_residual_reach,
    restrict,
    scalar_feasible,
    symmetric_pair,
    unit_game,
)


# ---------------------------------------------------------------------------
# Best-ratio (bang-per-buck) edges, as ``build_network`` finds them with
# ``best_ratio``.  A budget ``1 + c_i/gamma_i`` shows each best ratio.


def test_bang_per_buck_symmetric_pair_picks_own_good():
    inst = make_instance(symmetric_pair().u, [2, 2])
    net = build_network(inst, [Fraction(1), Fraction(1)])
    assert reference_bang_per_buck(inst.u, [Fraction(1), Fraction(1)])[0] == [2, 2]
    assert net.m == (2, 2) and net.scale == 1  # gamma = 2, so 1 + 2/2
    assert set(net.edges) == {(0, 0), (1, 1)}


def test_bang_per_buck_reports_ties():
    net = build_network(make_instance([[1, 1]], [1]), [Fraction(1), Fraction(1)])
    assert net.m == (2,)  # gamma = 1 at both goods
    assert set(net.edges) == {(0, 0), (0, 1)}


def test_bang_per_buck_rejects_buyer_with_no_priced_interest():
    with pytest.raises(ValueError, match="^buyer 0 values no positively priced good$"):
        build_network(make_instance([[0, 1]], [0]), [Fraction(1), Fraction(0)])


# ---------------------------------------------------------------------------
# Network construction (flexible budgets: m_i = 1 + c_i/gamma_i)


def _same_network_or_rejection(inst, p):
    """``build_network(inst, p)`` is ``reference_build_network``'s, or both reject alike.

    Returns ``"rejected"``, ``"tied"`` (some buyer has several best-ratio
    edges) or ``"plain"``.
    """
    try:
        want = reference_build_network(inst, p)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_network(inst, p)
        assert str(got.value) == str(exc)
        return "rejected"
    assert build_network(inst, p) == want, (inst, p)
    return "tied" if len(want.edges) > inst.n else "plain"


def test_bang_per_buck_matches_the_fraction_reference():
    # The integer search gives the reference's network: the same edges and
    # the budgets of the same best ratios, over the same scale, or the same
    # rejection.
    rng = random.Random(11)
    seen, deep = Counter(), 0
    for _ in range(5000):
        u, p, _ = random_ratio_case(rng)
        c = [rng.choice((0, 0, Fraction(rng.randint(1, 9), rng.randint(1, 9)))) for _ in u]
        seen[_same_network_or_rejection(make_instance(u, c), p)] += 1
        deep += max(x.denominator for x in p).bit_length() > 150
    assert seen["tied"] > 400 and seen["rejected"] > 400 and deep > 500, (seen, deep)


def test_build_network_is_the_fraction_reference_on_the_golden_shapes():
    # Each golden instance at prices all 1 (ties wherever a row repeats its
    # best utility), at small random rationals and at 180-bit ones, some of
    # them 0.
    rng = random.Random(35)
    seen = Counter()
    for shape in GOLDEN_SHAPES:
        inst = gen_random(*shape)
        for bits in (0, 4, 180):
            p = [Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1) if bits else
                 Fraction(1) for _ in range(inst.g)]
            if bits and rng.random() < 0.2:
                p[rng.randrange(inst.g)] = Fraction(0)
            seen[_same_network_or_rejection(inst, p)] += 1
    assert seen["tied"] > 100 and seen["plain"] > 100 and seen["rejected"] > 10, seen


@st.composite
def priced_instances(draw):
    """An instance and prices: zero payoffs, tied rows, 180-bit prices, unpriced goods."""
    n, g = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    u = draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 2, 3, 6]), min_size=g, max_size=g),
                      min_size=n, max_size=n))
    c = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2),
                                       Fraction(2**90 + 1, 3**50)]), min_size=n, max_size=n))
    bits = draw(st.sampled_from([1, 8, 180]))
    unit = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 2**bits)))
    p = [k * unit for k in draw(st.lists(st.sampled_from([0, 1, 2, 3, 6]), min_size=g,
                                         max_size=g))]
    return make_instance(u, c), p


@given(priced_instances())
@settings(max_examples=300)
def test_build_network_is_the_fraction_reference_on_drawn_instances(case):
    _same_network_or_rejection(*case)


def test_build_network_unit():
    net = build_network(unit_game(), [Fraction(1)])
    assert net.p == (Fraction(1),)
    assert net.m == (Fraction(1),)
    assert reference_bang_per_buck(unit_game().u, [Fraction(1)])[0] == [Fraction(1)]
    assert set(net.edges) == {(0, 0)}


def test_build_network_adds_disagreement_money():
    net = build_network(scalar_feasible(), [Fraction(2)])
    # gamma = 2/2 = 1, so the buyer carries 1 + c/gamma = 2.
    assert reference_bang_per_buck(scalar_feasible().u, [Fraction(2)])[0] == [Fraction(1)]
    assert net.m == (Fraction(2),)


def test_build_network_symmetric_pair():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    assert net.m == (Fraction(1), Fraction(1))
    assert reference_bang_per_buck(symmetric_pair().u, [1, 1])[0] == [Fraction(2), Fraction(2)]
    assert set(net.edges) == {(0, 0), (1, 1)}


def test_networks_hold_ints_and_checker_and_tight_ones_are_the_converters(monkeypatch):
    # Over the golden instances, their answers' external checks and the
    # fixed-budget runs of the limit iteration, every network handed to
    # ``max_flow`` or ``balanced_flow`` holds ints over an int scale.  Each
    # checker's network is the converter's network of the claimed prices and
    # the budgets ``1 + c_i/gamma_i``, and each trial network of the tight
    # search is the converter's network of the block's prices times one
    # factor, the fixed budgets and the closed edges: scale included.
    seen, tight = Counter(), []

    def ints(net):
        assert all(type(x) is int for x in (*net.p, *net.m, net.scale)), net
        seen["networks"] += 1

    def watched(module, name):
        real = getattr(module, name)

        def call(net, *args):
            ints(net)
            if name == "max_flow" and module is nashflow.fisher:
                market, block, goods = tight[-1]
                p = market.p
                j = next(j for j in goods if p[j])
                x = Fraction(net.p[j], net.scale) / p[j]
                prices = [q * x if k in goods else q for k, q in enumerate(p)]
                assert net == integer_network(prices, market.money,
                                              closed_edges(market.edges, block, goods))
                seen["tight"] += 1
            return real(net, *args)

        monkeypatch.setattr(module, name, call)

    def checked_build_network(module):
        real = module.build_network

        def call(inst, p):
            net = real(inst, p)
            assert net == reference_build_network(inst, p)
            seen["checker"] += 1
            return net

        monkeypatch.setattr(module, "build_network", call)

    stop_at_tight = _FixedBudgets.stop_at_tight

    def searched(market, x_edge, block, goods, iteration):
        tight.append((market, block, goods))
        try:
            return stop_at_tight(market, x_edge, block, goods, iteration)
        finally:
            tight.pop()

    for module in (nashflow.balanced, nashflow.fisher, nashflow.certify):
        watched(module, "max_flow")
    for module in (nashflow.fisher, nashflow.solver, nashflow.certify):
        watched(module, "balanced_flow")
    for module in (nashflow.certify, nashflow.oracle):
        checked_build_network(module)
    monkeypatch.setattr(_FixedBudgets, "stop_at_tight", searched)
    for shape in GOLDEN_SHAPES:
        inst = gen_random(*shape)
        doc = json.loads(json.dumps(solution_to_json(solve(inst))))
        assert _check_claim(inst, doc) == (True, "ok")
    for seed in range(4):
        limit_algorithm(gen_random(4, 4, 10, 10, seed), max_iter=3)
    assert seen["networks"] > 4000 and seen["checker"] > 1000 and seen["tight"] > 50, seen


# ---------------------------------------------------------------------------
# Exact max flow and its maximal min cut


def test_max_flow_saturates_single_edge():
    flow = max_flow(integer_network((Fraction(1),), (Fraction(1),), {(0, 0)}))
    assert flow.value == Fraction(1)
    assert flow.pair_flow == {(0, 0): Fraction(1)}
    # The maximal cut absorbs both nodes.
    assert flow.far_side == (frozenset({0}), frozenset({0}))


def test_max_flow_money_short_cuts_agree():
    flow = max_flow(integer_network((Fraction(1),), (Fraction(1, 2),), {(0, 0)}))
    assert flow_value(flow) == Fraction(1, 2)
    assert flow.far_side == (frozenset({0}), frozenset({0}))


def test_max_flow_symmetric_pair_moves_all_money():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    assert flow_value(max_flow(net)) == Fraction(2)


def test_max_flow_respects_custom_money_caps():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow = max_flow(integer_network((1, 1), (Fraction(1, 4), Fraction(1)), net.edges))
    # Ints over the network's scale, the lcm of its denominators, the network included.
    assert (flow.scale, flow.value, flow.pair_flow) == (4, 5, {(0, 0): 1, (1, 1): 4})
    assert (flow.net.p, flow.net.m) == ((4, 4), (1, 4))
    values = balanced_values(flow)
    assert values.value == Fraction(5, 4)
    assert values.pair_flow == {(0, 0): Fraction(1, 4), (1, 1): Fraction(1)}


def test_max_flow_interior_edges_never_bind():
    # One buyer funnels more than any single good's price through one edge:
    # the good->buyer arc must not cap the flow.
    net = integer_network(
        (Fraction(3, 2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(5, 2)),
        {(2, 0)},
    )
    flow = max_flow(net)
    assert flow_value(flow) == Fraction(3, 2)
    # The good sells out and its buyer still has slack, so both stay on the
    # sink-reaching side of the maximal cut.
    assert 0 not in flow.far_side[1]
    assert 2 not in flow.far_side[0]


def test_max_flow_conservation_and_caps_random():
    rng = random.Random(9)
    for _ in range(150):
        net = random_network(rng)
        flow = max_flow(net)
        assert flow.net is net and flow.scale == net.scale
        flow = FlowResult(*balanced_values(flow)[:3], net)
        p, m = network_values(net)
        assert all(q > 0 for q in flow.pair_flow.values())
        for j in range(net.g):
            assert sum(q for (i, jj), q in flow.pair_flow.items() if jj == j) <= p[j]
        for i in range(net.n):
            assert sum(q for (ii, j), q in flow.pair_flow.items() if ii == i) <= m[i]
        assert all((i, j) in net.edges for (i, j) in flow.pair_flow)
        assert flow.value == sum(flow.pair_flow.values(), Fraction(0))
        # The cut's capacity certifies maximality.
        buyers, goods = flow.far_side
        cap = sum(
            (p[j] for j in range(net.g) if j not in goods), Fraction(0)
        ) + sum((m[i] for i in buyers), Fraction(0))
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
        net = integer_network(p, m, edges)
        least = min(
            sum((p[j] for j in range(g) if j not in side), Fraction(0))
            + sum((m[i] for i in range(n) if any((i, j) in edges for j in side)), Fraction(0))
            for k in range(g + 1)
            for side in combinations(range(g), k)
        )
        flow = FlowResult(*balanced_values(max_flow(net))[:3], net)
        assert flow.value == least
        assert flow.value == sum(flow.pair_flow.values(), Fraction(0))
        for j in range(g):
            assert sum(q for (_, jj), q in flow.pair_flow.items() if jj == j) <= p[j]
        for i in range(n):
            assert sum(q for (ii, _), q in flow.pair_flow.items() if ii == i) <= m[i]


# ---------------------------------------------------------------------------
# The same augmenting paths as the search that runs on to the sink


def _same_flow(got, want):
    """Equal value, the same pair flows in the same order, and the same cut.

    ``got`` is in ints over its scale, ``want`` (the reference) in ``Fraction``s.
    """
    value, pair_flow, far_side, _ = balanced_values(got)
    return (value, list(pair_flow.items()), far_side) == (
        want.value, list(want.pair_flow.items()), want.far_side
    )


def _varied_network(rng):
    """A seeded network with what the flow core meets inside a solve.

    A third of the networks have denominators of at least 180 bits.  Some
    prices are zero, half the networks lower every buyer's money by one
    ``delta`` clamped at zero, ``max(m_i - delta, 0)``, as a balanced-flow
    trial does, and edge densities run from sparse, with edgeless buyers
    and goods, to complete.
    """
    n, g = rng.randint(1, 8), rng.randint(1, 8)
    deep = rng.random() < 1 / 3

    def amount():
        if deep:
            return Fraction(rng.getrandbits(182) + 1, rng.getrandbits(180) | 1 << 179)
        return Fraction(rng.randint(1, 12), rng.randint(1, 6))

    p = tuple(Fraction(0) if rng.random() < 0.1 else amount() for _ in range(g))
    m = [amount() for _ in range(n)]
    if rng.random() < 0.5:
        delta = rng.choice(m) * Fraction(rng.randint(1, 8), 8)
        m = [max(x - delta, Fraction(0)) for x in m]
    density = rng.random()
    edges = frozenset((i, j) for i in range(n) for j in range(g) if rng.random() < density)
    return integer_network(p, m, edges)


def test_max_flow_finds_the_reference_paths_on_seeded_networks():
    rng = random.Random(17)
    seen = Counter()
    for _ in range(4000):
        net = _varied_network(rng)
        if rng.random() < 1 / 3:
            net = restrict(net, rng.sample(range(net.n), rng.randint(0, net.n)),
                           rng.sample(range(net.g), rng.randint(0, net.g)))
            seen["restricted"] += 1
        with counting() as tally:
            flow = max_flow(net)
        assert _same_flow(flow, reference_max_flow(net))
        # The Edmonds-Karp bound V*A/2, V nodes with source and sink, A arcs
        # with reverse arcs: half the cap past which max_flow raises.
        arcs = 2 * (sum(x > 0 for x in net.p + net.m) + sum(net.p[j] > 0 for _, j in net.edges))
        assert tally["augments"] <= (net.g + net.n + 2) * arcs // 2
        seen["zero money"] += 0 in net.m
        seen["zero price"] += 0 in net.p
        seen["edgeless buyer"] += len({i for i, _ in net.edges}) < net.n
        seen["edgeless good"] += len({j for _, j in net.edges}) < net.g
        seen["180 bits"] += net.scale.bit_length() >= 180
        seen["flow on 4+ pairs"] += len(flow.pair_flow) >= 4
    assert len(seen) == 7 and min(seen.values()) > 400, seen


def test_max_flow_finds_the_reference_paths_on_networks_from_solves(monkeypatch):
    # Every max-flow of small solves of the benchmark's three shapes:
    # n,g <= 3 at U=3, 12x12 at U=1000 and 80x80 at U=10.
    import nashflow.balanced
    import nashflow.certify
    import nashflow.fisher

    recorded = []

    def recording(net):
        with counting() as tally:
            flow = max_flow(net)
        recorded.append((net, flow, tally["peels"]))
        return flow

    for module in (nashflow.balanced, nashflow.certify, nashflow.fisher):
        monkeypatch.setattr(module, "max_flow", recording)
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(162)]
    shapes += [(12, 12, 1000, 1500, 0), (12, 12, 1000, 1500, 1), (80, 80, 10, 10, 0)]
    for n, g, u_max, c_max, seed in shapes:
        solve(gen_random(n, g, u_max, c_max, seed))
    monkeypatch.undo()
    assert len(recorded) > 500
    for net, flow, _ in recorded:
        assert _same_flow(flow, reference_max_flow(net))
        for i in range(net.n):
            for reverse in (False, True):
                assert flow.residual_reach({i}, reverse) == reference_residual_reach(
                    flow, {i}, reverse)
    # Generic utilities give forests, and most rounds saturate theirs.
    assert sum(peeled for _, _, peeled in recorded) > 400


@st.composite
def near_forests(draw):
    """A market network on a random forest, with what can stop its peel.

    Amounts are sums of random pair flows over the forest's edges, so a
    network left alone is a forest that saturates.  Draws may shift some of
    one good's price to another good (or one buyer's money to another
    buyer), which keeps the masses equal but may leave no saturating flow,
    add a few edges (cycles), unbalance one amount, zero one price or
    restrict the network to some buyers and goods.  Amounts are ints, or
    ``Fraction``s over one denominator.
    """
    n, g = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    order = draw(st.permutations([(0, j) for j in range(g)] + [(1, i) for i in range(n)]))
    edges, flow = set(), {}
    for k, (side, x) in enumerate(order):
        others = [y for s, y in order[:k] if s != side]
        if others and draw(st.integers(0, 3)):
            y = draw(st.sampled_from(others))
            e = (x, y) if side else (y, x)
            edges.add(e)
            flow[e] = draw(st.integers(0, 6))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, g - 1)), max_size=3))
    edges |= set(extra)
    p, m = [0] * g, [0] * n
    for (i, j), f in flow.items():
        p[j] += f
        m[i] += f
    amounts = draw(st.sampled_from([p, m]))
    give, take = draw(st.integers(0, len(amounts) - 1)), draw(st.integers(0, len(amounts) - 1))
    shift = min(draw(st.integers(0, 3)), amounts[give])
    amounts[give] -= shift  # equal masses, perhaps no saturating flow
    amounts[take] += shift
    if draw(st.booleans()):
        k = draw(st.integers(0, len(amounts) - 1))
        amounts[k] = max(amounts[k] + draw(st.integers(-3, 3)), 0)
    if draw(st.integers(0, 4)) == 0:
        p[draw(st.integers(0, g - 1))] = 0
    d = draw(st.sampled_from([None, 1, 2, 3, 6]))
    if d is not None:
        p, m = [Fraction(x, d) for x in p], [Fraction(x, d) for x in m]
    net = integer_network(p, m, edges)
    if draw(st.integers(0, 4)) == 0:
        net = restrict(net, draw(st.sets(st.integers(0, n - 1))),
                       draw(st.sets(st.integers(0, g - 1))))
    return net


def _saturating_forest(net):
    """Whether the priced pairs form a forest and some flow sells and spends all."""
    parent = list(range(net.g + net.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for (i, j) in net.edges:
        if net.p[j] > 0:
            a, b = find(j), find(net.g + i)
            if a == b:
                return False
            parent[a] = b
    p, m = network_values(net)
    return reference_max_flow(net).value == sum(p, Fraction(0)) == sum(m, Fraction(0))


@given(near_forests())
@settings(max_examples=600)
def test_max_flow_peels_exactly_the_saturating_forests(net):
    # A peeled flow is Edmonds-Karp's: the same value, pair flows in the same
    # order, cut and residual graph, read from every buyer both ways.
    with counting() as tally:
        flow = max_flow(net)
    assert _same_flow(flow, reference_max_flow(net))
    for i in range(net.n):
        for reverse in (False, True):
            assert flow.residual_reach({i}, reverse) == reference_residual_reach(flow, {i}, reverse)
    if _saturating_forest(net):
        assert tally == {"maxflows": 1, "peels": 1}
    else:
        assert tally["maxflows"] == 1 and "peels" not in tally


@st.composite
def crowded_networks(draw):
    """A market network whose direct pairs compete, tie and close cycles.

    Edges are any set of pairs, so goods share buyers, cycles are common and
    many paths run through a reverse arc.  Rooms are small, so a push often
    empties a good and its buyer at once.  Each amount is an int or a
    ``Fraction`` over one denominator, some prices and budgets are zero, and
    some networks are restricted to some buyers and goods.
    """
    n, g = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(g)]
    edges = [e for e, kept in zip(pairs, draw(st.lists(st.booleans(), min_size=n * g,
                                                       max_size=n * g))) if kept]
    d = draw(st.sampled_from([1, 2, 3]))
    amounts = st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=n + g, max_size=n + g)
    caps = [Fraction(k, d) if rational else k for k, rational in draw(amounts)]
    net = integer_network(caps[:g], caps[g:], edges)
    if draw(st.integers(0, 3)) == 0:
        net = restrict(net, draw(st.sets(st.integers(0, n - 1))),
                       draw(st.sets(st.integers(0, g - 1))))
    return net


@given(crowded_networks())
@settings(max_examples=600)
def test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them(net):
    # The sweep's pushes and the searches after it are the reference's
    # augmenting paths: the same flow, cut and residual graph, read from
    # every buyer both ways, and one counted augment per path.
    paths = []
    want = reference_max_flow(net, paths)
    with counting() as tally:
        flow = max_flow(net)
    assert _same_flow(flow, want)
    for i in range(net.n):
        for reverse in (False, True):
            assert flow.residual_reach({i}, reverse) == reference_residual_reach(flow, {i}, reverse)
    if tally["peels"]:
        assert tally == {"maxflows": 1, "peels": 1}
    else:
        assert tally == {"maxflows": 1, "augments": len(paths)}


def test_max_flow_augments_a_cycle_whose_leaves_sell_its_goods():
    # Buyers 0 and 1 and goods 0 and 1 form a cycle; buyers 2 and 3 hang off
    # goods 0 and 1 and can pay for them, and buyer 4 has no edge.  The
    # masses are equal and there are fewer pairs than nodes, and peeling
    # buyers 2 and 3 sells out both goods, but it leaves the cycle's pairs
    # unsettled: a cycle can carry flow either way round, so Edmonds-Karp runs.
    net = MarketNetwork((2, 3), (0, 0, 2, 3, 0),
                        frozenset({(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (3, 1)}), 1)
    with counting() as tally:
        flow = max_flow(net)
    assert tally == {"maxflows": 1, "augments": 2}
    assert flow.pair_flow == {(2, 0): 2, (3, 1): 3}
    assert _same_flow(flow, reference_max_flow(net))


def test_max_flow_of_a_network_scaled_to_integers_is_the_scaled_flow():
    # The flow core answers in ints over its network's scale, its network
    # included.  Every capacity and the scale times one positive integer:
    # the pair arcs never bind, so the paths are the same, and the flow is
    # over the larger scale, in its ints.
    rng = random.Random(29)
    seen = Counter()
    for _ in range(2000):
        net = _varied_network(rng)
        if rng.random() < 1 / 3:
            net = restrict(net, rng.sample(range(net.n), rng.randint(0, net.n)),
                           rng.sample(range(net.g), rng.randint(0, net.g)))
            seen["restricted"] += 1
        with counting() as tally:
            want = max_flow(net)
        scale = net.scale
        assert want.scale == scale and want.net is net
        assert all(type(x) is int for x in (want.value, *want.pair_flow.values()))
        for k in (1, 2, 6):
            ints = in_units(net, scale * k)
            with counting() as scaled_tally:
                got = max_flow(ints)
            assert got.scale == scale * k and got.net is ints
            assert type(got.value) is int and got.value == want.value * k
            assert all(type(f) is int for f in got.pair_flow.values())
            assert list(got.pair_flow.items()) == [(e, f * k) for e, f in want.pair_flow.items()]
            assert got.far_side == want.far_side
            assert scaled_tally == tally
            shares = got.allocation()
            assert shares == want.allocation()
            assert all(type(x) is Fraction for row in shares for x in row)
        seen["zero price"] += 0 in net.p
        seen["180 bits"] += scale.bit_length() >= 180
        seen["flow on 4+ pairs"] += len(want.pair_flow) >= 4
    assert len(seen) == 4 and min(seen.values()) > 150, seen


def test_max_flow_counts_its_augmenting_paths_once_per_call(monkeypatch):
    # Good 0 fills buyer 0 first.  Good 1 interests buyer 0 alone, so the
    # second path runs good 1 -> buyer 0 -> (reverse arc) good 0 -> buyer 1.
    # The money mass (3) exceeds the price mass (2), so Edmonds-Karp runs
    # rather than the peel.
    net = integer_network(
        (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)), {(0, 0), (1, 0), (0, 1)}
    )
    with counting() as tally:
        flow = max_flow(net)
    assert list(flow.pair_flow.items()) == [((1, 0), Fraction(1)), ((0, 1), Fraction(1))]
    assert tally == {"maxflows": 1, "augments": 2}
    calls = []
    monkeypatch.setattr("nashflow.flownet._count", lambda *args: calls.append(args))
    max_flow(net)
    max_flow(replace(net, edges=frozenset()))
    assert calls == [("maxflows",), ("augments", 2), ("maxflows",), ("augments", 0)]


def test_max_flow_whose_paths_ship_nothing_raises_at_the_path_bound(monkeypatch):
    # A broken flow core whose paths ship nothing (here every bottleneck
    # reads 0) would search for ever.  One good, one buyer and their pair
    # give 4 nodes with the source and sink, and 6 arcs with the reverse
    # arcs, so the bound is 4 * 6 = 24 paths and the 25th path raises.  The
    # first path is the direct-pair sweep's push, which reads the price and
    # money rooms; the 24 searches after it also read the pair arc's room.
    # The buyer's money exceeds the price, so the network is not peeled.
    paths = []

    def no_room(*rooms):
        paths.append(len(rooms))
        return 0

    monkeypatch.setattr("nashflow.flownet.min", no_room, raising=False)
    net = integer_network((Fraction(1),), (Fraction(2),), {(0, 0)})
    with pytest.raises(FlowError, match="within 24 augmenting paths"):
        max_flow(net)
    assert paths == [2] + [3] * 24


def test_solve_reports_augmenting_paths_in_its_detail_only():
    # A tied game: its equilibrium network holds a cycle, so the self-check's
    # max-flow augments rather than peels.
    inst = gen_random(3, 3, 5, 3, 11)
    first = solve(inst)
    with counting() as tally:
        second = solve(inst)
    augments = first.stats["detail"]["augments"]
    assert augments == second.stats["detail"]["augments"] > 0
    # The enclosing block also sees the self-check's paths.
    assert tally["augments"] > augments
    assert "augments" not in json.dumps(solution_to_json(first))


def test_solve_reports_peeled_forests_in_its_detail_only():
    # Generic utilities give forests: most of a 12x12 solve's max-flows
    # saturate one and are peeled, the rest augment.
    inst = gen_random(12, 12, 1000, 1500, 0)
    with counting() as tally:
        sol = solve(inst)
    detail = sol.stats["detail"]
    assert detail["peels"] > 0 and detail["augments"] > 0
    assert detail["peels"] < sol.stats["maxflows"]
    # The enclosing block also sees the self-check's max-flow, which peels
    # the equilibrium's forest.
    assert tally["peels"] == detail["peels"] + 1
    assert "peels" not in json.dumps(solution_to_json(sol))


def test_counting_tallies_each_block_and_adds_nested_blocks_outward():
    # Each max-flow of this network counts itself and its one augmenting path
    # (the buyer's money exceeds the price, so the network is not peeled).
    net = integer_network((Fraction(1),), (Fraction(2),), {(0, 0)})
    max_flow(net)  # outside every block: counted nowhere
    with counting() as outer:
        max_flow(net)
        assert outer == {"maxflows": 1, "augments": 1}
        with counting() as inner:
            max_flow(net)
            max_flow(net)
            assert inner == {"maxflows": 2, "augments": 2}
            assert outer == {"maxflows": 1, "augments": 1}
        assert outer == {"maxflows": 3, "augments": 3}
    max_flow(net)
    assert (outer, inner) == ({"maxflows": 3, "augments": 3}, {"maxflows": 2, "augments": 2})


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
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow, _ = balanced_flow(net)
    assert flow.residual_reach({0}) == {0}


def test_residual_reachable_zero_flow_follows_interest_edges_only():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    zero = max_flow(replace(net, m=(0, 0)))
    assert zero.pair_flow == {}
    # A buyer receiving no flow has no residual arc back into any good.
    assert zero.residual_reach({0}) == {0}


def test_residual_reach_matches_the_dict_adjacency_search():
    # The kept integer residual graph against adjacency rebuilt from
    # ``net.edges`` and ``pair_flow``, both ways, on the flows the phases
    # and the balanced-flow rounds read: zero prices, restrictions,
    # money clamped at zero, plain max-flows and balanced flows.
    rng = random.Random(23)
    seen = Counter()
    for _ in range(5000):
        net = random_network(rng, max_buyers=6, max_goods=5)
        if rng.random() < 0.3:
            net = replace(net, p=tuple(x if rng.random() < 0.7 else 0 for x in net.p))
        if rng.random() < 0.3:
            net = restrict(net, rng.sample(range(net.n), rng.randint(0, net.n)),
                           rng.sample(range(net.g), rng.randint(0, net.g)))
            seen["restricted"] += 1
        kind = rng.choice(("clamped", "balanced", "max-flow"))
        if kind == "clamped":
            delta = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            p, m = network_values(net)
            flow = max_flow(integer_network(p, [max(x - delta, 0) for x in m], net.edges))
        elif kind == "balanced":
            flow, _ = balanced_flow(net)
        else:
            flow = max_flow(net)
        seen[kind] += 1
        seen["zero price"] += 0 in net.p
        seen["zero money"] += 0 in flow.net.m
        for reverse in (False, True):
            start = set(rng.sample(range(net.n), rng.randint(1, net.n)))
            reach = flow.residual_reach(start, reverse)
            assert reach == reference_residual_reach(flow, start, reverse)
            seen[f"grew, reverse={reverse}"] += reach > start
    assert len(seen) == 8 and min(seen.values()) > 1000, seen
