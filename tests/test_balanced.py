"""Balanced flows: l2-minimal surpluses, their characterization, scaling."""

import gc
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

import nashflow.balanced as balanced
from nashflow.balanced import scale_flow
from nashflow import (
    FlowResult,
    MarketNetwork,
    balanced_flow,
    build_network,
    counting,
    gen_random,
    max_flow,
    solve,
    surpluses,
    verify_property1,
)
from conftest import (
    balanced_values,
    flow_value,
    in_units,
    integer_network,
    network_values,
    random_network,
    reference_balanced_flow,
    reference_guessing_balanced_flow,
    reference_surpluses,
    restrict,
    scalar_feasible,
    scaled_network,
    symmetric_pair,
)


def _unbalanced_shared_good():
    """One good two buyers could split, sold entirely to buyer 1."""
    net = integer_network((Fraction(1),), (Fraction(1), Fraction(1)), {(0, 0), (1, 0)})
    flow = FlowResult(
        value=1,
        pair_flow={(1, 0): 1},
        far_side=(frozenset(), frozenset()),
        net=net,
    )
    return net, flow


# ---------------------------------------------------------------------------
# Pinned small networks


def test_balanced_flow_splits_contested_good_evenly():
    net = integer_network((Fraction(1),), (Fraction(1), Fraction(1)), {(0, 0), (1, 0)})
    flow, theta = balanced_flow(net)
    assert (flow.scale, theta, flow.pair_flow) == (2, (1, 1), {(0, 0): 1, (1, 0): 1})
    got = balanced_values(flow, theta)
    assert got.theta == (Fraction(1, 2), Fraction(1, 2))
    assert got.pair_flow == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)}


def test_balanced_flow_without_a_hint_proves_one_level_per_component_at_once():
    # The contested good's buyers form one component at one level, and the
    # disconnected pair two components at level 0: each guess is a hit.
    contested = integer_network((Fraction(1),), (Fraction(1), Fraction(1)), {(0, 0), (1, 0)})
    for net in (contested, build_network(symmetric_pair(), [Fraction(1), Fraction(1)])):
        with counting() as tally:
            balanced_flow(net)
        assert (tally["maxflows"], tally["hits"], tally["repairs"], tally["misses"]) == (1, 1, 0, 0)


def test_balanced_flow_that_cannot_sell_runs_the_split_rounds():
    # One good priced 2 and one buyer with 1: the guessed class has a
    # negative level, so the guess misses before any max-flow.  The whole
    # max-flow charges the class the 1 it cannot sell, which puts its level
    # at 0, and the gate proves that level on the whole max-flow itself.
    net = integer_network((Fraction(2),), (Fraction(1),), {(0, 0)})
    with counting() as tally:
        flow, theta = balanced_flow(net)
    assert (tally["maxflows"], tally["hits"], tally["repairs"], tally["misses"]) == (1, 0, 0, 1)
    ref = reference_balanced_flow(net)
    assert balanced_values(flow, theta) == ref and ref.theta == (Fraction(0),)


def test_balanced_flow_without_a_hint_can_miss_on_a_sellable_network():
    # Everything sells, but buyer 0 holds no money and wants the good that
    # buyers 1 and 2 want: the one component's level lies above buyer 0's
    # money, and the repair runs out of its n + 1 = 5 rounds.  The split
    # rounds then answer with at most 2n + 3 max-flows in all.
    net = integer_network(
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(0), Fraction(9, 2), Fraction(3), Fraction(6)),
        {(0, 1), (1, 1), (2, 1), (2, 0), (3, 0)},
    )
    with counting() as tally:
        flow, theta = balanced_flow(net)
    assert (tally["hits"], tally["repairs"], tally["misses"]) == (0, 0, 1)
    assert tally["maxflows"] <= 2 * net.n + 3
    got = balanced_values(flow, theta)
    assert got.theta == (Fraction(0), Fraction(25, 6), Fraction(3), Fraction(11, 2))
    assert got.value == sum(network_values(net)[0])
    assert got == reference_balanced_flow(net)


FAR_SIDES = {
    "nothing": lambda net, k: (frozenset(), frozenset()),
    "everything": lambda net, k: (frozenset(range(net.n)), frozenset(range(net.g))),
    "a good more each time": lambda net, k: (frozenset(), frozenset(range(k))),
}


@pytest.mark.parametrize("far", FAR_SIDES)
def test_balanced_flow_over_a_broken_flow_core_raises_within_2n_plus_3_max_flows(monkeypatch, far):
    # Flows that report one less than they route never sell the mass and
    # never pass the gate.  A cut with nothing or everything on its far side
    # splits no class: the repair repeats its partition, the split rounds
    # split nothing, and the gate refuses their levels.  A cut that takes
    # one good more at every max-flow cuts goods off their buyers, a
    # degenerate split that the gate or the round cap ends.  The stub fails
    # the test past 2n + 3 max-flows, so a loop that spins cannot hide.
    real_max_flow, ran = balanced.max_flow, []

    def broken(net):
        ran.append(net)
        assert len(ran) <= 2 * net.n + 3
        flow = real_max_flow(net)
        return replace(flow, value=flow.value - 1, far_side=FAR_SIDES[far](net, len(ran)))

    rng = random.Random(13)
    cases = [(net, hint) for _, net, hint in _hinted_cases(rng, 40)]
    cases += [(random_network(rng, 6, 6), (None, ())) for _ in range(40)]
    monkeypatch.setattr(balanced, "max_flow", broken)
    for net, hint in cases:
        del ran[:]
        with pytest.raises(balanced.BalanceError):
            balanced_flow(net, hint)
        assert ran


def _stubbed_flow_core(monkeypatch, make_flow):
    """Route ``balanced.max_flow`` through ``make_flow(net, real_flow)``; returns the calls."""
    real_max_flow, ran = balanced.max_flow, []

    def stub(net):
        ran.append(net)
        assert len(ran) <= 2 * net.n + 3
        return make_flow(net, real_max_flow(net))

    monkeypatch.setattr(balanced, "max_flow", stub)
    return ran


def test_gate_rejects_a_round_flow_that_fails_property1(monkeypatch):
    # The guessed level 1/2 is right, and the stub's flow has the price
    # mass as its value and as the sum of the caps, but it pays the whole
    # good to buyer 1, past its cap (half the price).  Only property 1 sees
    # that.  The stub pays in the units of the network it receives.
    net, _ = _unbalanced_shared_good()
    ran = _stubbed_flow_core(monkeypatch,
                             lambda net, real: replace(real, pair_flow={(1, 0): net.p[0]}))
    with pytest.raises(balanced.BalanceError):
        balanced_flow(net)
    assert ran


def test_gate_rejects_a_split_round_level_below_zero(monkeypatch):
    # One buyer with 1 and one good priced 2: the guess misses, and the
    # whole max-flow reports the good sold out though it sells 1.  The
    # class's charge is then 0 and its level -1, below 0, while the caps
    # (2) and the value (2) still agree.  Only the levels' range sees that.
    net = integer_network((Fraction(2),), (Fraction(1),), {(0, 0)})

    def sold_out(net, real):
        return replace(real, value=net.p[0], pair_flow={(0, 0): net.p[0]})

    ran = _stubbed_flow_core(monkeypatch, sold_out)
    with pytest.raises(balanced.BalanceError):
        balanced_flow(net)
    assert ran[0] == net


def test_balanced_flow_disconnected_market_has_no_surplus():
    net = build_network(symmetric_pair(), [Fraction(1), Fraction(1)])
    flow, theta = balanced_flow(net)
    assert theta == (0, 0)
    assert flow_value(flow) == Fraction(2)


def test_balanced_flow_cannot_spend_past_the_prices():
    net = integer_network((Fraction(1),), (Fraction(2), Fraction(1)), {(0, 0), (1, 0)})
    flow, theta = balanced_flow(net)
    assert balanced_values(flow, theta).theta == (Fraction(1), Fraction(1))


@pytest.mark.parametrize("goods", [0, 1])
def test_balanced_flow_without_buyers_returns_the_root_flow(goods):
    net = integer_network((Fraction(1),) * goods, (), ())
    with counting() as tally:
        flow, theta = balanced_flow(net)
    assert theta == ()
    assert (flow.value, flow.pair_flow) == (0, {})
    # A good no buyer wants cannot reach the sink.
    assert flow.far_side == (frozenset(), frozenset(range(goods)))
    assert tally["maxflows"] == 1
    # A hint from that flow proves the same answer or falls back to it.
    assert balanced_flow(net, (flow, theta))[1] == ()


def test_balanced_flow_is_a_max_flow():
    rng = random.Random(21)
    for _ in range(60):
        net = random_network(rng)
        flow, theta = balanced_flow(net)
        assert flow_value(flow) == flow_value(max_flow(net))
        assert surpluses(in_units(net, flow.scale), flow) == theta


# ---------------------------------------------------------------------------
# The residual-order characterization


def test_verify_property1_accepts_balanced_flows():
    net = integer_network((Fraction(1),), (Fraction(1), Fraction(1)), {(0, 0), (1, 0)})
    flow, _ = balanced_flow(net)
    assert verify_property1(in_units(net, flow.scale), flow) is True


def test_verify_property1_rejects_lopsided_split():
    net, flow = _unbalanced_shared_good()
    assert surpluses(net, flow) == (Fraction(1), Fraction(0))
    # Buyer 1 (no surplus) can reach buyer 0 (full surplus) in the residual
    # graph, so money could be rebalanced: the flow is not balanced.
    assert verify_property1(net, flow) is False


def test_verify_property1_matches_residual_search():
    # Edmonds-Karp flows are rarely balanced and balanced flows always are,
    # so both verdicts occur; sub-networks, zero prices and clamped budgets
    # are the shapes a balanced flow's rounds feed the check.
    rng = random.Random(4)
    verdicts = []
    for _ in range(2400):
        net = random_network(rng, max_buyers=5, max_goods=4)
        if rng.random() < 0.3:
            net = replace(net, p=tuple(x if rng.random() < 0.7 else 0 for x in net.p))
        if rng.random() < 0.3:
            kept_b = {i for i in range(net.n) if rng.random() < 0.7}
            kept_g = {j for j in range(net.g) if rng.random() < 0.7}
            net = restrict(net, kept_b, kept_g)
        if rng.random() < 0.3:
            delta = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            p, m = network_values(net)
            flow = max_flow(integer_network(p, [max(x - delta, 0) for x in m], net.edges))
        elif rng.random() < 0.2:
            flow, _ = balanced_flow(net)
        else:
            flow = max_flow(net)
        # The flow and the network in one unit.
        scale = lcm(net.scale, flow.scale)
        k = scale // flow.scale
        net = in_units(net, scale)
        flow = FlowResult(flow.value * k, {e: f * k for e, f in flow.pair_flow.items()},
                          flow.far_side, net, flow.residual, scale)
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
        assert balanced_values(flow, theta).theta == reference_surpluses(net)
        assert verify_property1(in_units(net, flow.scale), flow) is True


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
            net.scale,
        )
        theta = balanced_values(*balanced_flow(net)).theta
        theta_p = balanced_values(*balanced_flow(permuted)).theta
        assert theta_p == tuple(theta[perm[i]] for i in range(net.n))


# ---------------------------------------------------------------------------
# The split rounds: at most 2n + 3 max-flows per call


def _restricted(rng, net):
    """``net``, sometimes cut to a block and with some buyers' money zeroed."""
    if rng.random() < 0.3:
        kept_b = {i for i in range(net.n) if rng.random() < 0.7}
        kept_g = {j for j in range(net.g) if rng.random() < 0.7}
        net = restrict(net, kept_b, kept_g)
    if rng.random() < 0.3:
        net = replace(net, m=tuple(0 if rng.random() < 0.3 else x for x in net.m))
    return net


OUTCOMES = ("hits", "repairs", "misses")


@pytest.fixture
def flows_per_call(monkeypatch):
    """``(n, max-flows, outcome, caller)`` of every ``balanced_flow`` call, wherever it is bound.

    ``outcome`` is ``"hits"``, ``"repairs"`` or ``"misses"``, read from a
    ``counting()`` block around the call; the enclosing tally still
    receives it.  ``caller`` names the module whose binding was called.
    """
    count, calls = [0], []
    real_max_flow, real_balanced_flow = balanced.max_flow, balanced.balanced_flow

    def counted_max_flow(net):
        count[0] += 1
        return real_max_flow(net)

    def counted_from(caller):
        def counted_balanced_flow(net, *hint):
            count[0] = 0
            with counting() as mine:
                result = real_balanced_flow(net, *hint)
            (outcome,) = [key for key in OUTCOMES if mine[key]]
            calls.append((net.n, count[0], outcome, caller))
            return result

        return counted_balanced_flow

    monkeypatch.setattr(balanced, "max_flow", counted_max_flow)
    for module in ("balanced", "fisher", "solver", "certify"):
        monkeypatch.setattr(f"nashflow.{module}.balanced_flow", counted_from(module))
    return calls


def test_balanced_flow_runs_at_most_2n_plus_3_max_flows():
    # Each network as drawn (most cannot sell their goods) and with its
    # prices cut to an eighth (more sell): misses run the split rounds on
    # both kinds, and the bound is not vacuous.
    rng = random.Random(7)
    calls = []
    for _ in range(3000):
        drawn = _restricted(rng, random_network(rng, 6, 6))
        p, m = network_values(drawn)
        for net in (drawn, integer_network([x / 8 for x in p], m, drawn.edges)):
            with counting() as tally:
                flow, theta = balanced_flow(net)
            ref = reference_balanced_flow(net)
            assert balanced_values(flow, theta) == ref
            sellable = ref.value == sum(network_values(net)[0])
            calls.append((net.n, tally["maxflows"], tally["misses"], sellable))
    assert len(calls) == 6000
    assert all(flows <= 2 * n + 3 for n, flows, *_ in calls)
    assert {sellable for *_, missed, sellable in calls if missed} == {True, False}
    assert any(flows >= 2 * n + 1 for n, flows, missed, _ in calls if missed)


def test_solver_balanced_flows_stay_within_2n_plus_1_max_flows(flows_per_call):
    # A call may cost 2n + 3 (n + 1 rounds, then the split rounds); a hit
    # costs one max-flow and a repair one per round, and on these solves
    # every guess is proved or repaired, so every call stays within n + 1.
    # Self-verification runs no balanced flow.
    for seed in range(3):
        solve(gen_random(12, 12, 1000, 1500, seed))
    for seed in range(6):
        solve(gen_random(seed % 3 + 1, seed // 3 + 1, 3, 2, seed))
    assert len(flows_per_call) > 50
    assert "certify" not in {caller for *_, caller in flows_per_call}
    assert all(flows <= 2 * n + 1 for n, flows, *_ in flows_per_call)
    assert {outcome for *_, outcome, _ in flows_per_call} == {"hits", "repairs"}
    assert all(flows == 1 for _, flows, outcome, _ in flows_per_call if outcome == "hits")
    assert all(2 <= flows <= n + 1 for n, flows, outcome, _ in flows_per_call if outcome == "repairs")


def test_guess_counters_count_every_hinted_call(flows_per_call):
    sol = solve(gen_random(12, 12, 1000, 1500, 0))
    outcomes = [outcome for _, _, outcome, _ in flows_per_call]
    guess = sol.stats["detail"]["guess"]
    assert list(guess) == list(OUTCOMES)
    assert sum(guess.values()) == len(outcomes)
    assert all(guess[key] == outcomes.count(key) for key in OUTCOMES)
    assert guess["hits"] > 0 and guess["repairs"] > 0


def test_balanced_flow_matches_the_plain_recursion():
    # Sizes beyond ``reference_surpluses``; the plain recursion runs a
    # max-flow for each block's value and checks that a split keeps it.
    rng = random.Random(8)
    split = 0
    for _ in range(3000):
        net = _restricted(rng, random_network(rng, 8, 8))
        flow, theta = balanced_flow(net)
        assert balanced_values(flow, theta) == reference_balanced_flow(net)
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
        yield "one level", net, (flow, (0,) * net.n)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        p, m = network_values(net)
        p = [x * factor if rng.random() < 0.5 else x for x in p]
        pair = (rng.randrange(net.n), rng.randrange(net.g))
        yield "moved", integer_network(p, m, net.edges ^ {pair}), own
        kept_b = {i for i in range(net.n) if rng.random() < 0.7}
        kept_g = {j for j in range(net.g) if rng.random() < 0.7}
        yield "sub", restrict(net, kept_b, kept_g), own


def _pinned_hinted_cases():
    """``(kind, net, hint, outcome)`` whose outcome is known by hand.

    ``stale``: buyers 0 and 1 shared a level and buyer 1 bought good 1.  At
    the new prices their class (with good 0, which buyer 0 wants) gets the
    level 3/2, and the guess's flow leaves good 1 short: buyer 1 and good 1
    fall inside its cut, buyer 0 and good 0 outside.  Split so, buyer 1's
    class sits at 0 below buyer 2's 1, and buyer 2, who also wants good 1,
    merges into it; the second round proves ``theta = (3, 1/2, 1/2)``.
    ``unsellable``: a good dearer than its one buyer's money is a class of
    negative level, which no flow can prove; the split rounds answer.
    """
    net = integer_network(
        (Fraction(1), Fraction(2)), (Fraction(4), Fraction(2), Fraction(1)),
        {(0, 0), (1, 1), (2, 1)},
    )
    paid = max_flow(replace(net, edges=frozenset({(1, 1)})))
    yield "stale", net, (paid, (1, 1, 0)), "repairs"
    net = integer_network((Fraction(2),), (Fraction(1),), {(0, 0)})
    yield "unsellable", net, (None, (0,)), "misses"


def test_hinted_balanced_flow_matches_the_plain_recursion():
    rng = random.Random(11)
    outcomes = {}
    ref_net = None
    cases = [(*case, None) for case in _hinted_cases(rng, 2000)]
    for kind, net, hint, expected in [*_pinned_hinted_cases(), *cases]:
        with counting() as tally:
            flow, theta = balanced_flow(net, hint)
        if net is not ref_net:  # the cases on one network come in a row
            ref_net, ref = net, reference_balanced_flow(net)
        assert balanced_values(flow, theta) == ref
        (outcome,) = [key for key in OUTCOMES if tally[key]]
        assert tally[outcome] == 1
        assert outcome == (expected or outcome), kind
        if kind == "own":
            # Its own classes give every surplus; the gate then needs only
            # the whole price mass to sell.
            assert (outcome == "hits") == (ref.value == sum(network_values(net)[0]))
        outcomes.setdefault(kind, []).append(outcome)
    for kind, seen in outcomes.items():
        assert len(seen) == 1 or 0 < seen.count("hits") < len(seen), kind
    assert set(sum(outcomes.values(), [])) == set(OUTCOMES)


def test_guess_round_matches_its_former_loop_call_by_call():
    # The guess round reads its classes as root labels and proves the merge
    # rule in one pass before any merge.  On hinted networks, and on the same
    # networks without a hint, each call returns the former loop's flow,
    # residual graph and surpluses, and counts the same guess outcome,
    # max-flows, augmenting paths and peels.  The calls include rounds whose
    # first merge is at the last edge in sorted order, and rounds that merge
    # more than once.
    rng = random.Random(35)
    seen = Counter()
    cases = list(_hinted_cases(rng, 400))
    cases += [("none", net, (None, ())) for kind, net, _ in cases if kind == "own"]
    for kind, net, hint in cases:
        merges = []
        with counting() as want_tally:
            want_flow, want_theta = reference_guessing_balanced_flow(net, hint, merges)
        with counting() as tally:
            flow, theta = balanced_flow(net, hint)
        assert (tally, flow, theta) == (want_tally, want_flow, want_theta), kind
        assert flow.residual == want_flow.residual
        first = {}
        for round_, position, edges in merges:
            first.setdefault(round_, (position, edges))
        per_round = Counter(round_ for round_, _, _ in merges)
        seen[kind != "none"] += 1
        seen["merged twice"] += any(k > 1 for k in per_round.values())
        seen["last edge first"] += any(k == e - 1 for k, e in first.values())
    assert seen[True] >= 2000, seen
    assert seen["merged twice"] > 400 and seen["last edge first"] > 150, seen


def test_a_hint_is_read_as_values_whatever_its_representation():
    # A market hints a rebalance with its surpluses as ints over the flow's
    # scale, with moved surpluses over a wider scale, or with ``Fraction``s.
    # Only the hint's values matter: the same values as ints over the scale,
    # as ints over 7 times it and as ``Fraction``s give one flow, one set of
    # surpluses and one tally.
    rng = random.Random(29)
    seen = Counter()
    for _ in range(2000):
        net = random_network(rng, 6, 6)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        pair = (rng.randrange(net.n), rng.randrange(net.g))
        p, m = network_values(net)
        before = integer_network([x * factor if rng.random() < 0.5 else x for x in p],
                                 m, net.edges ^ {pair})
        flow, theta = balanced_flow(before)
        answers = []
        for hint in (theta, tuple(7 * t for t in theta),
                     tuple(Fraction(t, flow.scale) for t in theta)):
            with counting() as tally:
                answer = balanced_flow(net, (flow, hint))
            answers.append((answer, dict(tally)))
        assert answers[0] == answers[1] == answers[2], net
        seen.update(answers[0][1])
    assert seen["hits"] > 300 and seen["repairs"] > 100 and seen["misses"] > 1000, seen


def test_balanced_flow_hands_the_flow_core_integers_and_returns_the_reference_flow(monkeypatch):
    # Levels, caps and prices go to the flow core as ints over one scale per
    # round.  The proved round's integer flow comes back as it stands, with
    # its surpluses, over that scale: the least common denominator of the
    # prices, the money and the surpluses.  Its values are the recursion's,
    # and its network is the network at caps m - theta in that unit.
    real_max_flow, handed = balanced.max_flow, []

    def ints_only(net):
        assert all(type(x) is int for x in (*net.p, *net.m)), net
        handed.append(net)
        return real_max_flow(net)

    monkeypatch.setattr(balanced, "max_flow", ints_only)
    rng = random.Random(31)
    ref_net = None
    wider = 0
    for _, net, hint in _hinted_cases(rng, 400):
        del handed[:]
        flow, theta = balanced_flow(net, hint)
        if net is not ref_net:
            ref_net, ref = net, reference_balanced_flow(net)
        assert balanced_values(flow, theta) == ref
        assert all(type(x) is int for x in (flow.value, *flow.pair_flow.values(), *theta,
                                            *flow.net.p, *flow.net.m))
        p, m = network_values(net)
        caps = [x - t for x, t in zip(m, ref.theta)]
        assert flow.net == in_units(integer_network(p, caps, net.edges), flow.scale)
        assert flow.scale == lcm(net.scale, *[t.denominator for t in ref.theta])
        assert handed
        # A level whose denominator does not divide the scale widens the integers.
        wider += flow.scale != net.scale
    assert wider > 100


def test_solves_build_no_fraction_inside_balanced_flow_or_scale_flow(monkeypatch):
    # On the solve path the balanced flow (the guess, its max-flows and its
    # gate) and the closed-form scaling at a rising stop run in integers
    # from the network's numerators and denominators to their answer: every
    # ``Fraction`` is built outside them.
    import nashflow.fisher
    import nashflow.solver

    built, calls, inside = Counter(), Counter(), []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[inside[-1] if inside else "elsewhere"] += 1
        return new(cls, *args, **kwargs)

    def entered(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, wrapped)

    entered(nashflow.fisher, "balanced_flow")
    entered(nashflow.solver, "scale_flow")
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for seed in range(27):
        solve(gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed))
    solve(gen_random(12, 12, 1000, 1500, 0))
    monkeypatch.undo()
    assert calls["balanced_flow"] > 50 and calls["scale_flow"] > 20, calls
    assert set(built) == {"elsewhere"}, built


def test_solves_hold_the_tuple_free_lists_steady():
    # The solve path builds its tuples from lists.  A tuple built from a
    # generator is allocated at a guessed size and resized, so on CPython
    # 3.11 it leaves one size's free list for another's each time, and the
    # allocator grows by a block each time until that list holds 2000
    # (about 45 blocks per 12x12 solve with the rounds' caps so built).  A full collection empties the free
    # lists first, and none runs while the solves are counted.
    if sys.implementation.name != "cpython":
        pytest.skip("sys.getallocatedblocks() counts CPython's allocator")
    insts = [gen_random(12, 12, 1000, 1500, s) for s in range(3)]
    gc.collect()
    gc.disable()
    try:
        for inst in insts:
            solve(inst)
        before = sys.getallocatedblocks()
        for _ in range(5):
            for inst in insts:
                solve(inst)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 100


def test_hinted_balanced_flow_costs_one_max_flow_on_a_hit(flows_per_call):
    rng = random.Random(12)
    cases = list(_hinted_cases(rng, 500))
    del flows_per_call[:]
    for _, net, hint in cases:
        balanced.balanced_flow(net, hint)
    assert len(flows_per_call) == len(cases)
    # A hit runs one max-flow, a repair one per round (at most n + 1), and a
    # miss adds the whole max-flow, at most n split rounds and the proof.
    assert all(flows <= 2 * n + 3 for n, flows, *_ in flows_per_call)
    assert all(flows == 1 for _, flows, outcome, _ in flows_per_call if outcome == "hits")
    repairs = [(n, flows) for n, flows, outcome, _ in flows_per_call if outcome == "repairs"]
    assert repairs and all(2 <= flows <= n + 1 for n, flows in repairs)


# ---------------------------------------------------------------------------
# Uniform block scaling


def test_scale_flow_up_reaches_the_equilibrium():
    net = build_network(scalar_feasible(), [Fraction(1)])
    flow, theta = balanced_flow(net)
    assert balanced_values(flow, theta).theta == (Fraction(1, 2),)
    # The scaled network is the market at the doubled price.
    scaled = scaled_network(net, Fraction(2), {0}, {0})
    assert scaled == build_network(scalar_feasible(), [Fraction(2)])
    assert (scaled.p, scaled.m) == ((Fraction(2),), (Fraction(2),))
    sflow, stheta = scale_flow(flow, theta, Fraction(2), {0}, {0}, scaled, True)
    assert stheta == (0,)
    assert (sflow, stheta) == balanced_flow(scaled)


def test_scale_flow_down_grows_the_surplus():
    net = build_network(scalar_feasible(), [Fraction(1)])
    flow, theta = balanced_flow(net)
    scaled = scaled_network(net, Fraction(1, 2), {0}, {0})
    assert network_values(scaled) == ((Fraction(1, 2),), (Fraction(5, 4),))
    x = Fraction(1, 2)
    sflow, stheta = scale_flow(flow, theta, x, {0}, {0}, scaled, True)
    # Over the least common denominator 4: surplus 3/4, pair flow 1/2, cap
    # 1/2, and the flow's network carries that scale.
    assert (sflow.scale, stheta, sflow.pair_flow, sflow.net) == (
        4, (3,), {(0, 0): 2}, MarketNetwork((2,), (2,), scaled.edges, 4))


def test_scale_flow_scaled_result_is_balanced_for_the_new_network():
    net = build_network(scalar_feasible(), [Fraction(1)])
    flow, theta = balanced_flow(net)
    for x in (Fraction(3, 2), Fraction(2), Fraction(1, 3)):
        scaled = scaled_network(net, x, {0}, {0})
        sflow, stheta = scale_flow(flow, theta, x, {0}, {0}, scaled, True)
        assert (sflow, stheta) == balanced_flow(scaled)


def test_scale_flow_of_one_component_keeps_the_others_flow_and_the_residual_graph():
    # Two components; scaling the second leaves the first's pair flows alone
    # and gives the balanced flow of the scaled network, cut and residual
    # reach included, without a max-flow, over the same least common
    # denominator as a rebalance.
    net = integer_network((Fraction(1), Fraction(1), Fraction(2)),
                          (Fraction(3, 2), Fraction(2), Fraction(3, 2)),
                          {(0, 0), (1, 1), (1, 2), (2, 2)})
    flow, theta = balanced_flow(net)
    x = Fraction(4, 3)
    scaled = scaled_network(net, x, {1, 2}, {1, 2})
    with counting() as tally:
        sflow, stheta = scale_flow(flow, theta, x, {1, 2}, {1, 2}, scaled, True)
    assert tally["maxflows"] == 0
    want, want_theta = balanced_flow(scaled)
    assert (sflow, stheta, sflow.scale) == (want, want_theta, want.scale)
    assert (balanced_values(sflow).pair_flow[0, 0]
            == balanced_values(flow).pair_flow[0, 0])
    for i in range(3):
        for reverse in (False, True):
            assert sflow.residual_reach({i}, reverse) == want.residual_reach({i}, reverse)


def _keeps_the_old_flow(net, moved, keep, ungated=None):
    """Scale buyer 1's block by 5/4 and check that only the surpluses move.

    They move to ints over the flow's scale times 4, the factor's
    denominator, to hint the caller's rebalance.  With ``ungated``, a
    ``monkeypatch``, the gate's property-1 check is removed first, so a
    scaled flow formed and gated would raise.
    """
    flow, theta = balanced_flow(net)
    if ungated is not None:
        ungated.setattr(balanced, "verify_property1", None)
    x = Fraction(5, 4)
    with counting() as tally:
        kept, stheta = scale_flow(flow, theta, x, {1}, {1}, moved, keep)
    assert kept is flow and tally["maxflows"] == 0
    before = balanced_values(flow, theta).theta
    wider = flow.scale * x.denominator
    assert tuple(Fraction(t, wider) for t in stheta) == (before[0], 1 + x * (before[1] - 1))


def test_scale_flow_keeps_the_old_flow_when_the_move_dropped_an_edge():
    # The old network had an edge across the block, which the move dropped:
    # Edmonds-Karp may route the new network differently, so only the
    # surpluses move and the old flow comes back for the caller to rebalance.
    net = integer_network((Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(3, 2)),
                          {(0, 0), (1, 0), (1, 1)})
    moved = scaled_network(replace(net, edges=frozenset({(0, 0), (1, 1)})),
                           Fraction(5, 4), {1}, {1})
    _keeps_the_old_flow(net, moved, True)


def test_scale_flow_not_kept_moves_the_surpluses_alone(monkeypatch):
    # A caller that rebalances after the stop anyway (its tied pairs join the
    # edges) asks for no scaled flow: the surpluses move, and no flow is
    # formed or gated.
    net = integer_network((Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(3, 2)),
                          {(0, 0), (1, 1)})
    _keeps_the_old_flow(net, scaled_network(net, Fraction(5, 4), {1}, {1}), False, monkeypatch)


def test_scale_flow_rejects_edges_crossing_the_block():
    # Scaling only part of a connected block would break flow consistency.
    net = integer_network(
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
        {(0, 0), (0, 1), (1, 1)},
    )
    flow, theta = balanced_flow(net)
    with pytest.raises(balanced.BalanceError, match=r"edge \(0,1\) crosses the scaled block"):
        scale_flow(flow, theta, Fraction(2), {0}, {0}, net, True)


def test_scale_flow_rejects_a_network_its_flow_does_not_price():
    # The gate proves the scaled flow against the network it receives, not
    # only against amounts derived from the old flow: a block moved by 3
    # while the flow scales by 2 sells the flow's own price mass and passes
    # property 1, but its prices and budgets are not the network's.
    net = build_network(scalar_feasible(), [Fraction(1)])
    flow, theta = balanced_flow(net)
    moved = scaled_network(net, Fraction(3), {0}, {0})
    with pytest.raises(balanced.BalanceError, match="does not price the network"):
        scale_flow(flow, theta, Fraction(2), {0}, {0}, moved, True)


def test_scale_flow_rejects_a_scaled_flow_that_sells_short():
    # The gate does not trust the flow it scales: one that leaves half the
    # good unsold passes property 1 (one buyer) and fails on its value.
    # Over scale 2 the good costs 2, the budget is 4, the flow pays 1 and
    # the surplus is 3.
    before = integer_network((Fraction(1),), (Fraction(2),), {(0, 0)})
    flow = FlowResult(1, {(0, 0): 1}, (frozenset(), frozenset()),
                      MarketNetwork((2,), (1,), before.edges, 2), scale=2)
    after = scaled_network(before, Fraction(2), {0}, {0})
    with pytest.raises(balanced.BalanceError, match="scaled balanced flow fails the gate"):
        scale_flow(flow, (3,), Fraction(2), {0}, {0}, after, True)


def test_scale_flow_rejects_a_scaled_flow_that_fails_property1():
    # A good sold whole to one of its two buyers sells the price mass and
    # spends every cap, but the other buyer keeps the larger surplus.
    before = integer_network((Fraction(1),), (Fraction(2), Fraction(2)), {(0, 0), (1, 0)})
    flow = FlowResult(1, {(1, 0): 1}, (frozenset(), frozenset()),
                      MarketNetwork((1,), (0, 1), before.edges, 1))
    after = scaled_network(before, Fraction(2), {0, 1}, {0})
    with pytest.raises(balanced.BalanceError, match="scaled balanced flow fails the gate"):
        scale_flow(flow, (2, 1), Fraction(2), {0, 1}, {0}, after, True)
