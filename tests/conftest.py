"""Shared test helpers: fixed games, a reference surplus oracle, generators.

The reference computations here are deliberately independent of the package's
own algorithms.  ``reference_surpluses`` finds the l2-minimal surplus vector
of a market network by exhaustive subset enumeration over buyers, so when the
flow-based computation in :mod:`nashflow.balanced` agrees with it the
agreement is evidence, not circularity.  Everything is exact rationals.
"""

from __future__ import annotations

import random
import tempfile
from collections import Counter, deque, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import configuration, settings

from nashflow import (
    BalanceError,
    FisherError,
    FlowResult,
    MarketNetwork,
    SolverState,
    gen_l1_adversarial,
    make_instance,
    max_flow,
    solver,
    verify_property1,
)
from nashflow.fisher import _FixedBudgets, _price_phase, _rebuild
from nashflow.flownet import _count

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches what it reads from the source tree in its
# home directory, so that lives outside the working tree.
settings.register_profile(
    "nashflow", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("nashflow")
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nashflow-hypothesis")

# The golden set's ``gen_random`` arguments (``tests/test_golden.py``).
GOLDEN_SHAPES = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
GOLDEN_SHAPES += [(12, 12, 1000, 1500, seed) for seed in range(3)] + [(40, 40, 10, 10, 0)]

# ---------------------------------------------------------------------------
# Small fixed games pinned across the suite.


def unit_game():
    """One buyer, one good, zero disagreement payoff: p=1, v=1."""
    return make_instance([[1]], [0])


def scalar_feasible():
    """One buyer valuing one good at 2 against disagreement payoff 1 (p*=2)."""
    return make_instance([[2]], [1])


def scalar_infeasible():
    """One buyer capped at v=1=c: no outcome strictly beats disagreement."""
    return make_instance([[1]], [1])


def symmetric_pair():
    """Two buyers, two goods, symmetric preferences, zero disagreement."""
    return make_instance([[2, 1], [1, 2]], [0, 0])


def split_infeasible():
    """Two disconnected single-buyer markets; buyer 0 needs v > 2 but tops at 1."""
    return make_instance([[1, 0], [0, 1]], [2, 0])


# ---------------------------------------------------------------------------
# Networks from values.  A ``MarketNetwork`` holds ints over its scale; the
# tests write prices and money as exact values and convert them here.


def integer_network(p, m, edges) -> MarketNetwork:
    """The network of prices ``p`` and money ``m``, exact values, as ints over their lcm.

    Every amount is multiplied by the lcm of all denominators, which is
    the network's ``scale``: the least common denominator.
    """
    amounts = [Fraction(x) for x in (*p, *m)]
    scale = lcm(*[x.denominator for x in amounts])
    caps = [x.numerator * (scale // x.denominator) for x in amounts]
    return MarketNetwork(tuple(caps[:len(p)]), tuple(caps[len(p):]), frozenset(edges), scale)


def network_values(net):
    """``(p, m)``: a network's prices and money as ``Fraction``s."""
    scale = net.scale
    return (tuple(Fraction(x, scale) for x in net.p), tuple(Fraction(x, scale) for x in net.m))


def budget_values(market):
    """A market's budgets, its ``budgets()`` integer pairs, as ``Fraction``s."""
    return tuple(Fraction(num, den) for num, den in market.budgets())


@dataclass
class CutFlow(FlowResult):
    """A flow that reports ``cut`` as its far side, not the cut its residual graph gives.

    A ``FlowResult`` reads its cut from its residual graph on demand; a stub
    of a broken flow core returns one of these to hand out a wrong cut.
    """

    cut: tuple = None

    @property
    def far_side(self):
        return self.cut


def hand_flow(net, pair_flow):
    """A ``FlowResult`` of ``net`` with the given pair flows, which need not be a max-flow.

    Its value is the pair flows' sum, and its residual graph is laid out as
    ``max_flow`` lays one out: for the ``k``-th priced pair in (good, buyer)
    order, arc ``2k`` runs good -> buyer with the unbounded room less the
    pair's flow and arc ``2k + 1`` back with the flow.
    """
    g, unbounded = net.g, sum(net.p) + 1
    pairs = sorted((j, i) for (i, j) in net.edges if net.p[j] > 0)
    head, to, cap = [[] for _ in range(g + net.n)], [], []
    for k, (j, i) in enumerate(pairs):
        f = pair_flow.get((i, j), 0)
        head[j].append(2 * k)
        head[g + i].append(2 * k + 1)
        to += [g + i, j]
        cap += [unbounded - f, f]
    return FlowResult(sum(pair_flow.values()), dict(pair_flow), net, (head, to, cap))


def residual_signs(flow):
    """A flow's residual graph up to its rooms: the arcs and which of them have room."""
    head, to, cap = flow.residual
    return head, to, [c > 0 for c in cap]


def restrict(net, buyers, goods):
    """``net`` on some buyers and goods: the others' amounts zeroed, their edges dropped."""
    p = tuple(x if j in goods else 0 for j, x in enumerate(net.p))
    m = tuple(x if i in buyers else 0 for i, x in enumerate(net.m))
    edges = frozenset((i, j) for (i, j) in net.edges if i in buyers and j in goods)
    return replace(net, p=p, m=m, edges=edges)


# ---------------------------------------------------------------------------
# Reference surplus oracle (exponential, for small networks only).


def reference_surpluses(net: MarketNetwork) -> tuple:
    """l2-minimal surplus vector of a market network, by subset enumeration.

    The most money a buyer set ``S`` can jointly spend is
    ``rho(S) = min over T ⊆ S of p(goods adjacent to T) + m(S − T)``
    (a min cut restricted to ``S``); the common leftover
    ``(m(S) − rho(S)) / |S|`` is maximized exactly by the buyers sharing the
    largest surplus, and the union of all maximizing sets is that whole
    block.  Peeling blocks in decreasing surplus order yields the unique
    balanced surplus vector.
    """
    n = net.n
    p, m = network_values(net)
    goods_of = [frozenset(j for (i, j) in net.edges if i == b) for b in range(n)]

    def spendable(buyers):
        members = sorted(buyers)
        best = None
        for bits in range(1 << len(members)):
            chosen = [members[k] for k in range(len(members)) if bits >> k & 1]
            reach = frozenset().union(*(goods_of[i] for i in chosen)) if chosen else frozenset()
            val = sum((p[j] for j in reach), Fraction(0)) + sum(
                (m[i] for i in members if i not in chosen), Fraction(0)
            )
            if best is None or val < best:
                best = val
        return best

    theta = [None] * n
    settled = frozenset()
    settled_spend = Fraction(0)
    remaining = set(range(n))
    while remaining:
        rem = sorted(remaining)
        best_val, best_set = None, None
        for bits in range(1, 1 << len(rem)):
            group = frozenset(rem[k] for k in range(len(rem)) if bits >> k & 1)
            leftover = (
                sum((m[i] for i in group), Fraction(0))
                - (spendable(group | settled) - settled_spend)
            ) / len(group)
            if best_val is None or leftover > best_val:
                best_val, best_set = leftover, group
            elif leftover == best_val:
                best_set = best_set | group
        for i in best_set:
            theta[i] = best_val
        settled |= best_set
        settled_spend = spendable(settled)
        remaining -= best_set
    return tuple(theta)


def scaled_network(net: MarketNetwork, x, buyers, goods) -> MarketNetwork:
    """``net`` with a block's prices times ``x`` and its budgets ``1 + x*(m - 1)``.

    This is the flexible-budget network after Stage II raises the block's
    prices by ``x``: each budget ``1 + c_i/gamma_i`` becomes
    ``1 + x*c_i/gamma_i`` as the best ratio ``gamma_i`` divides by ``x``.
    """
    p, m = network_values(net)
    p = [q * x if j in goods else q for j, q in enumerate(p)]
    m = [1 + x * (q - 1) if i in buyers else q for i, q in enumerate(m)]
    return integer_network(p, m, net.edges)


# ---------------------------------------------------------------------------
# The one remaining copy of the balanced-flow recursion (Fujishige's
# decomposition, depth-first), without child values derived from the parent
# block: every block runs its own max-flow for its value, and a split checks
# that the children's values add up.  Kept to compare ``theta`` and the pair
# flows with ``balanced.balanced_flow``, whose split rounds run the same
# decomposition breadth-first, on networks too large for
# ``reference_surpluses``.


Balanced = namedtuple("Balanced", "value pair_flow far_side theta")


def balanced_values(flow, theta=()):
    """A flow and its surpluses as values: their ints over ``flow.scale`` as ``Fraction``s.

    Returns a ``Balanced``, the form ``reference_balanced_flow`` answers in.
    """
    s = flow.scale
    return Balanced(Fraction(flow.value, s), {e: Fraction(f, s) for e, f in flow.pair_flow.items()},
                    flow.far_side, tuple(Fraction(t, s) for t in theta))


def flow_value(flow):
    """A flow's value as a ``Fraction``."""
    return Fraction(flow.value, flow.scale)


def in_units(net, scale):
    """``net`` with its prices and money as ints over ``scale``, which must clear them."""
    def ints(amounts):
        scaled = [Fraction(x * scale, net.scale) for x in amounts]
        assert all(x.denominator == 1 for x in scaled), (amounts, net.scale, scale)
        return tuple(x.numerator for x in scaled)

    return MarketNetwork(ints(net.p), ints(net.m), net.edges, scale)


def reference_balanced_flow(net: MarketNetwork):
    """The balanced flow by divide and conquer, one extra max-flow per block.

    Returns a ``Balanced`` in ``Fraction``s: the value, pair flows and cut of
    the Edmonds-Karp flow at caps ``m - theta``, and ``theta``.
    """
    n = net.n
    theta = [None] * n
    root_value = _reference_solve(frozenset(range(n)), frozenset(range(net.g)), net, theta)
    whole = in_units(net, lcm(net.scale, *[t.denominator for t in theta]))
    caps = tuple(x - int(t * whole.scale) for x, t in zip(whole.m, theta))
    flow = max_flow(replace(whole, m=caps))
    if flow.value != sum(caps) or flow_value(flow) != root_value:
        raise BalanceError("reassembled flow does not saturate the computed surplus levels")
    if not verify_property1(net, flow):
        raise BalanceError("reassembled flow violates the balance characterization")
    return balanced_values(flow)._replace(theta=tuple(theta))


def _reference_solve(buyers, goods, net, theta):
    """Fill ``theta`` for the given block; return the block's max-flow value."""
    if not buyers:
        return Fraction(0)
    sub = restrict(net, buyers, goods)
    value = flow_value(max_flow(sub))
    p, m = network_values(sub)
    delta = (sum((m[i] for i in buyers), Fraction(0)) - value) / len(buyers)
    if delta == 0:
        for i in buyers:
            theta[i] = Fraction(0)
        return value
    caps = [max(m[i] - delta, Fraction(0)) if i in buyers else Fraction(0) for i in range(net.n)]
    trial = max_flow(integer_network(p, caps, sub.edges))
    if flow_value(trial) == value and all(m[i] >= delta for i in buyers):
        for i in buyers:
            theta[i] = delta
        return value
    low_b = set(trial.far_side[0]) & set(buyers)
    low_g = set(trial.far_side[1]) & set(goods)
    if not low_b or low_b == set(buyers):
        raise BalanceError("degenerate split in balanced-flow recursion")
    lo = _reference_solve(frozenset(low_b), frozenset(low_g), net, theta)
    hi = _reference_solve(frozenset(buyers - low_b), frozenset(goods - low_g), net, theta)
    if lo + hi != value:
        raise BalanceError("split lost flow value")
    return value


# ---------------------------------------------------------------------------
# The balanced-flow loop as it stood before its guess round read the classes
# as root labels: cash and size summed through ``find``, a merge loop that
# always makes one more pass over the edges, levels in a dict, ``fits`` on
# cash and size, and the round's prices and full-budget network rebuilt even
# when ``mult`` is 1.  Kept verbatim, apart from the name, the docstring and
# the ``merges`` record, to compare each call's flow, surpluses and guess
# tally with ``balanced.balanced_flow``.


def reference_guessing_balanced_flow(net: MarketNetwork, hint=(None, ()), merges=None):
    """``balanced.balanced_flow`` with its former guess round.

    Appends ``(round, position, edges)`` to ``merges`` for each merge the
    loop makes: the round, the merged edge's position in sorted order and
    the number of edges.
    """
    prev_flow, prev_theta = hint
    n, g = net.n, net.g
    scale, price, money = net.scale, net.p, net.m
    target = sum(price)  # the proved flow's value over scale: the price mass while guessing
    parent = list(range(n + g))  # buyers 0..n-1, then goods

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    edges = sorted(net.edges)
    if prev_flow is None or len(prev_theta) != n:  # one class per connected component
        pairs = edges
    else:
        order = sorted({i for (i, _) in edges}, key=prev_theta.__getitem__)
        for a, b in zip(order, order[1:]):
            if prev_theta[a] == prev_theta[b]:
                parent[b] = find(a)
        pairs = prev_flow.pair_flow
    for (i, j) in pairs:
        if (i, j) in net.edges:
            parent[find(n + j)] = find(i)
    last, whole, charge = None, None, {}  # whole: the unrestricted max-flow, once the split rounds run
    for attempt in range(2 * n + 3):  # n + 1 guesses, the whole max-flow, n split rounds, the proof
        cash, size = [0] * (n + g), [0] * (n + g)  # per root: m(B) - p(G) + charge and |B|, scaled
        for i, x in enumerate(money):
            cash[find(i)] += x
            size[find(i)] += 1
        for j, x in enumerate(price):
            cash[find(n + j)] -= x
        for r, x in charge.items():
            cash[r] += x
        merged = whole is None
        while merged:
            merged = False
            for k, (i, j) in enumerate(edges):
                a, b = find(i), find(n + j)
                if a != b and (not size[b] or cash[a] * size[b] > cash[b] * size[a]):
                    parent[a] = b
                    cash[b] += cash[a]
                    size[b] += size[a]
                    merged = True
                    if merges is not None:
                        merges.append((attempt, k, len(edges)))
        root = [find(x) for x in range(n + g)]
        first = {}
        classes = [first.setdefault(r, x) for x, r in enumerate(root)]
        if whole is None and (attempt > n or classes == last or any(cash[r] < 0 for r in first)):
            whole = max_flow(net)
            target, parent, last = whole.value, list(range(n + g)), None
            for (i, j) in edges:
                parent[find(n + j)] = find(i)
            charge = Counter()
            for j, x in enumerate(price):
                charge[find(n + j)] += x
            for (_, j), f in whole.pair_flow.items():
                charge[find(n + j)] -= f
            continue
        # Over scale * mult every level, cap and price is an integer.
        sized = [r for r in first if size[r]]
        mult = lcm(*[size[r] // gcd(cash[r], size[r]) for r in sized])
        level = {r: cash[r] * mult // size[r] for r in sized}
        theta = [level[r] for r in root[:n]]
        caps = tuple([max(x * mult - t, 0) for x, t in zip(money, theta)])
        prices = tuple([x * mult for x in price])
        final = classes == last  # a split round that split nothing: prove its levels
        inner = net.edges if whole is None or final else frozenset(
            e for e in edges if root[e[0]] == root[n + e[1]])  # every class on its own edges
        full = len(inner) == len(net.edges)
        reuse = whole is not None and full and mult == 1 and caps == money
        flow = whole if reuse else max_flow(MarketNetwork(prices, caps, inner, scale * mult))
        fits = all(0 <= cash[r] <= money[i] * size[r] for i, r in enumerate(root[:n]))
        if full and fits and flow.value == target * mult == sum(caps) and verify_property1(
                MarketNetwork(prices, tuple([x * mult for x in money]), net.edges, scale * mult),
                flow):
            _count("misses" if whole else "repairs" if attempt else "hits")
            return flow, tuple(theta)
        if final:
            raise BalanceError("balanced-flow levels fail the gate on the whole network")
        far_buyers, far_goods = flow.far_side
        side = {}  # (class, inside the cut) -> its part's first member
        parent = [side.setdefault((r, x in far_buyers if x < n else x - n in far_goods), x)
                  for x, r in enumerate(root)]
        charge = {side[r, True]: x for r, x in charge.items() if (r, True) in side}
        last = classes
    raise BalanceError("balanced-flow split rounds did not end")


# ---------------------------------------------------------------------------
# The fixed-budget tight search as it stood before it moved into
# ``fisher._FixedBudgets.stop_at_tight``: it builds its own goods-to-buyers
# map and always descends from the target's whole money.  Kept to compare the
# factor and tight sets of that stop and of the solver's stage 0 with.


def closed_edges(edges, block, goods):
    """``edges`` without those a move of the block drops: exactly one end in it."""
    return {(i, j) for (i, j) in edges if (i in block) == (j in goods)}


def reference_first_tight(p, money, edges, target):
    """Largest uniform factor on the target goods' prices keeping all goods sellable.

    Returns ``(x, tight_buyers, tight_goods)`` where the tight sets are the
    maximal ones (far side of the min cut at the critical factor).  Starts
    from the factor that would price the target at its buyers' whole money
    and descends through binding min cuts; each step strictly grows the
    binding target mass, so it ends within ``g + 2`` max-flows.
    """
    g = len(p)
    buyers_of = {}
    for (i, j) in edges:
        buyers_of.setdefault(j, set()).add(i)
    target = set(target)
    gamma_t = set()
    for j in target:
        gamma_t |= buyers_of.get(j, set())
    mass = sum((p[j] for j in target), Fraction(0))
    if not gamma_t or mass <= 0:
        raise FisherError("tight search needs a priced, wanted target set")
    x = sum((money[i] for i in gamma_t), Fraction(0)) / mass
    for _ in range(g + 3):
        prices = tuple(p[j] * x if j in target else p[j] for j in range(g))
        res = max_flow(integer_network(prices, money, edges))
        if flow_value(res) == sum(prices, Fraction(0)):
            return x, res.far_side[0], res.far_side[1]
        binding = set(res.far_side[1])
        inside = sum((p[j] for j in binding & target), Fraction(0))
        if inside <= 0:
            raise FisherError("a set of goods outside the target cannot sell")
        buyers = set()
        for j in binding:
            buyers |= buyers_of.get(j, set())
        free = sum((money[i] for i in buyers), Fraction(0)) - sum(
            (p[j] for j in binding - target), Fraction(0)
        )
        x_new = free / inside
        if not (1 <= x_new < x):
            raise FisherError("tight-factor descent failed to make progress")
        x = x_new
    raise FisherError("tight-factor descent did not converge")


# ---------------------------------------------------------------------------
# Edmonds-Karp as it stood before each search stopped at the first buyer
# discovered with room to the sink: the textbook graph with source and sink
# nodes, every search runs on until it pops that buyer and scans its sink
# arc, and the path is walked twice, once for the bottleneck and once for
# the update.  Kept verbatim, apart from the name, the docstring and the
# count, which goes to a ``paths`` list when one is given, to compare
# ``value``, ``pair_flow``, ``far_side`` and the path count with
# ``flownet.max_flow``.


def reference_max_flow(net: MarketNetwork, paths=None) -> Balanced:
    """``flownet.max_flow`` with a search that runs on to the sink.

    Appends each augmenting path's bottleneck to ``paths`` if it is given.
    Answers in values, as a ``Balanced`` without surpluses: an int
    network's amounts are over its ``scale``.
    """
    n, g = net.n, net.g
    denoms = [x.denominator for x in net.p] + [x.denominator for x in net.m]
    scale = lcm(*denoms) if denoms else 1

    # Node ids: source, goods, buyers, sink.
    source, sink = 0, 1 + g + n
    gnode = lambda j: 1 + j
    bnode = lambda i: 1 + g + i

    to, cap, head = [], [], [[] for _ in range(2 + g + n)]

    def add_arc(a, b, c):
        head[a].append(len(to))
        to.append(b)
        cap.append(c)
        head[b].append(len(to))
        to.append(a)
        cap.append(0)

    # Pair capacities stand in for "unbounded" and must strictly exceed any
    # achievable flow, or a fully loaded pair would masquerade as a cut edge.
    price_caps = [x.numerator * (scale // x.denominator) for x in net.p]
    unbounded = sum(price_caps) + 1
    pair_ids = {}
    for j, cj in enumerate(price_caps):
        if cj > 0:
            add_arc(source, gnode(j), cj)
    for (i, j) in sorted(net.edges, key=lambda e: (e[1], e[0])):
        if price_caps[j] > 0:
            pair_ids[(i, j)] = len(to)
            add_arc(gnode(j), bnode(i), unbounded)
    for i, x in enumerate(net.m):
        ci = x.numerator * (scale // x.denominator)
        if ci > 0:
            add_arc(bnode(i), sink, ci)

    def bfs_augment():
        parent_arc = [-1] * (2 + g + n)
        parent_arc[source] = -2
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for arc in head[node]:
                nxt = to[arc]
                if parent_arc[nxt] == -1 and cap[arc] > 0:
                    parent_arc[nxt] = arc
                    if nxt == sink:
                        bottleneck = None
                        cur = sink
                        while cur != source:
                            arc2 = parent_arc[cur]
                            bottleneck = cap[arc2] if bottleneck is None else min(bottleneck, cap[arc2])
                            cur = to[arc2 ^ 1]
                        cur = sink
                        while cur != source:
                            arc2 = parent_arc[cur]
                            cap[arc2] -= bottleneck
                            cap[arc2 ^ 1] += bottleneck
                            cur = to[arc2 ^ 1]
                        return bottleneck
                    queue.append(nxt)
        return 0

    value = 0
    while True:
        pushed = bfs_augment()
        if not pushed:
            break
        if paths is not None:
            paths.append(pushed)
        value += pushed

    pair_flow = {}
    for (i, j), arc in pair_ids.items():
        f = cap[arc ^ 1]  # reverse residual equals flow shipped
        if f:
            pair_flow[(i, j)] = Fraction(f, scale * net.scale)

    # Nodes that still reach the sink; the rest form the maximal min cut.
    to_sink = {sink}
    queue = deque(to_sink)
    while queue:
        node = queue.popleft()
        for arc in head[node]:
            nxt = to[arc]
            if cap[arc ^ 1] > 0 and nxt not in to_sink:
                to_sink.add(nxt)
                queue.append(nxt)
    far_side = (
        frozenset(i for i in range(n) if bnode(i) not in to_sink),
        frozenset(j for j in range(g) if gnode(j) not in to_sink),
    )
    return Balanced(Fraction(value, scale * net.scale), pair_flow, far_side, ())


# ---------------------------------------------------------------------------
# The optimality check as it stood before it checked stationarity row by
# row: every allocation entry converted up front, and each pair's
# inequality and, where its share is positive, equality tested in one loop.
# Kept verbatim, apart from the name and the docstring, to compare verdicts
# and reasons with ``certify.check_kkt``.


def reference_check_kkt(inst, p, x, v) -> tuple[bool, str]:
    """``certify.check_kkt`` testing stationarity pair by pair."""
    p = [Fraction(q) for q in p]
    if len(p) != inst.g or len(x) != inst.n or any(len(row) != inst.g for row in x):
        return False, "shape mismatch"
    x = [[s if isinstance(s, Fraction) else Fraction(s) for s in row] for row in x]
    sold, util = [Fraction(0)] * inst.g, [Fraction(0)] * inst.n
    for i, row in enumerate(x):
        for j, share in enumerate(row):
            if share.numerator < 0:
                return False, "negative allocation"
            if share:
                sold[j] += share
                util[i] += inst.u[i][j] * share
    if any(q < 0 for q in p):
        return False, "negative price"
    for j in range(inst.g):
        if sold[j] > 1:
            return False, f"good {j} oversold"
        if p[j] > 0 and sold[j] != 1:
            return False, f"good {j} priced but not sold out"
    # With p_j = a/b and gain = gn/gd, p_j * gain vs u_ij is a*gn vs u_ij*b*gd.
    prices = [(q.numerator, q.denominator) for q in p]
    for i in range(inst.n):
        gain = util[i] - inst.c[i]
        if gain <= 0:
            return False, f"buyer {i} does not improve on the disagreement payoff"
        gn, gd = gain.numerator, gain.denominator
        for j, (a, b) in enumerate(prices):
            lhs, rhs = a * gn, inst.u[i][j] * b * gd
            if lhs < rhs:
                return False, f"stationarity violated at ({i},{j})"
            if x[i][j].numerator > 0 and lhs != rhs:
                return False, f"allocation ({i},{j}) is not on a tight pair"
    if [Fraction(a) for a in v] != util:
        return False, "claimed utilities do not match the allocation"
    return True, "ok"


# ---------------------------------------------------------------------------
# Two kernels as they stood before the flow core kept its residual graph and
# the oracle pivoted with the margin LP's ``_pivot``: residual reachability
# over dict adjacency rebuilt from ``net.edges`` and ``pair_flow`` on every
# call, and the oracle's own Gauss-Jordan elimination with a reverse
# back-substitution.  Kept verbatim, apart from the names, the docstrings and
# ``self`` read as ``flow``, to compare with ``FlowResult.residual_reach``
# and ``oracle._solve_linear``.


def reference_residual_reach(flow, start_buyers, reverse=False):
    """``FlowResult.residual_reach`` searched over dict adjacency."""
    good_to_buyers, buyer_to_goods = {}, {}
    for (i, j) in flow.net.edges:
        paid = (i, j) in flow.pair_flow
        if reverse or paid:
            buyer_to_goods.setdefault(i, []).append(j)
        if not reverse or paid:
            good_to_buyers.setdefault(j, []).append(i)
    seen_b = set(start_buyers)
    seen_g = set()
    queue = deque(("b", i) for i in sorted(seen_b))
    while queue:
        kind, node = queue.popleft()
        if kind == "b":
            for j in buyer_to_goods.get(node, ()):
                if j not in seen_g:
                    seen_g.add(j)
                    queue.append(("g", j))
        else:
            for i in good_to_buyers.get(node, ()):
                if i not in seen_b:
                    seen_b.add(i)
                    queue.append(("b", i))
    return seen_b


def reference_solve_linear(rows, ncols, free_default):
    """``oracle._solve_linear`` with its own pivot and back-substitution."""
    rows = [list(r) for r in rows]
    pivot_of = {}
    rank_rows = []
    for col in range(ncols):
        pivot_row = None
        for r, row in enumerate(rows):
            if r not in {rr for rr, _ in rank_rows} and row[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        piv = rows[pivot_row][col]
        rows[pivot_row] = [v / piv for v in rows[pivot_row]]
        for r, row in enumerate(rows):
            if r != pivot_row and row[col] != 0:
                factor = row[col]
                rows[r] = [a - factor * b for a, b in zip(row, rows[pivot_row])]
        rank_rows.append((pivot_row, col))
        pivot_of[col] = pivot_row
    for r, row in enumerate(rows):
        if r not in {rr for rr, _ in rank_rows} and row[-1] != 0:
            return None
    solution = list(free_default)
    for col in sorted(pivot_of, reverse=True):
        row = rows[pivot_of[col]]
        acc = row[-1]
        for other in range(col + 1, ncols):
            if row[other] != 0:
                acc -= row[other] * solution[other]
        solution[col] = acc
    return solution


# ---------------------------------------------------------------------------
# Fraction references for the integer ratio searches: each builds one
# ``Fraction`` per pair and reads its definition directly.  The package
# cross-multiplies integers and must return the same values in the same order.


def reference_bang_per_buck(u, p):
    """Best ratios and best-ratio edges at prices ``p``, one ``Fraction`` per pair.

    Returns ``(gamma, edges)``: ``gamma[i] = max_j u[i][j]/p[j]`` over goods
    with positive price, and every ``(i, j)`` attaining it, row by row in
    ascending ``j``.  A buyer who values no positively priced good is
    rejected.
    """
    n, g = len(u), len(p)
    gamma = []
    edges = []
    for i in range(n):
        ratios = {j: Fraction(u[i][j], 1) / p[j] for j in range(g) if p[j] > 0 and u[i][j] > 0}
        if not ratios:
            raise ValueError(f"buyer {i} values no positively priced good")
        best = max(ratios.values())
        gamma.append(best)
        edges.extend((i, j) for j, ratio in ratios.items() if ratio == best)
    return gamma, edges


def reference_build_network(inst, p):
    """``flownet.build_network`` from ``reference_bang_per_buck`` and the converter.

    The network of prices ``p``, budgets ``1 + c_i/gamma_i`` and the
    best-ratio edges, as ints over the least common denominator.
    """
    gamma, edges = reference_bang_per_buck(inst.u, p)
    return integer_network(p, [1 + c / r for c, r in zip(inst.c, gamma)], edges)


def reference_verify_lp_dual(inst, y, z) -> bool:
    """``certify.verify_lp_dual`` testing ``u_ij y_i <= z_j`` in ``Fraction``s.

    Kept verbatim from before the check cross-multiplied integers, apart
    from the name and the docstring.
    """
    y = [Fraction(v) for v in y]
    z = [Fraction(v) for v in z]
    if len(y) != inst.n or len(z) != inst.g:
        return False
    if any(v < 0 for v in y) or any(v < 0 for v in z):
        return False
    if sum(y, Fraction(0)) != 1:
        return False
    for i in range(inst.n):
        for j in range(inst.g):
            if inst.u[i][j] * y[i] > z[j]:
                return False
    gap = sum((inst.c[i] * y[i] for i in range(inst.n)), Fraction(0)) - sum(
        z, Fraction(0)
    )
    return gap >= 0


def reference_next_tie(market, block, goods, ascending):
    """``fisher._next_tie`` computed with one ``Fraction`` per pair."""
    if ascending:
        buyers, targets = block, market.active_goods - goods
    else:
        buyers, targets = market.active_buyers - block, goods
    u, p, gamma = market.u, market.p, market.gamma
    targets = sorted(targets)
    best, pairs = None, []
    for i in sorted(buyers):
        for j in targets:
            if u[i][j] > 0:
                r = gamma[i] * p[j] / u[i][j]
                if best is None or r < best:
                    best, pairs = r, [(i, j)]
                elif r == best:
                    pairs.append((i, j))
    if best is None or ascending:
        return best, pairs
    return 1 / best, pairs


def random_ratio_case(rng: random.Random):
    """Utilities, prices and best ratios for a ratio search, often tying.

    Returns ``(u, p, gamma)``.  Entries are small integers times one shared
    rational scale for prices and another for ratios, so ratios tie often;
    the scales, and in some cases every entry, have numerators and
    denominators of up to 180 bits.  Zero utilities and zero prices occur.
    """
    n, g = rng.randint(1, 4), rng.randint(1, 5)
    bits = rng.choice((1, 8, 60, 180))

    def big():
        return Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1)

    if rng.random() < 2 / 3:
        p_scale, g_scale = big(), big()
        u = [[rng.choice((0, 1, 2, 2, 3, 6)) for _ in range(g)] for _ in range(n)]
        p = [rng.choice((0, 1, 2, 3, 6)) * p_scale for _ in range(g)]
        gamma = [rng.choice((1, 2, 3, 6)) * g_scale for _ in range(n)]
    else:
        u = [[rng.choice((0, 1, 3, rng.randint(1, 1000))) for _ in range(g)] for _ in range(n)]
        p = [rng.choice((0, big(), big(), big())) for _ in range(g)]
        gamma = [big() for _ in range(n)]
    return u, p, gamma


# ---------------------------------------------------------------------------
# The solver's market as ``Fraction``s.  The market keeps prices as ints over
# one scale, each ratio as an integer pair and each budget as an integer
# pair; these references rebuild what it hands out from its ``Fraction``
# views alone.


def reference_market_network(state):
    """The network of prices ``p`` and budgets ``1 + c/gamma`` from the views, on the active block.

    Inactive goods and buyers get 0 and lose their edges before the values
    are converted.
    """
    buyers, goods, gamma = state.active_buyers, state.active_goods, state.gamma
    p = [q if j in goods else 0 for j, q in enumerate(state.p)]
    money = [(1 + c / gamma[i] if c else 1) if i in buyers else 0 for i, c in enumerate(state.c)]
    return integer_network(p, money, [(i, j) for (i, j) in state.edges
                                      if i in buyers and j in goods])


@contextmanager
def checked_market(seen):
    """Check every solver market against ``reference_market_network`` while open.

    Each ``state.network()``, at every rebalance and every rising stop's
    ``scale_flow``, must be the reference, scale
    included; there the price scale must be the prices' least common
    denominator and each active ratio pair reduced.  Every flow a rebalance
    or ``scale_flow`` hands the market must carry its scale on its network.
    ``seen`` counts the networks and flows checked.
    """
    network, rebalance, scale = SolverState.network, SolverState.rebalance, solver.scale_flow

    def checked_network(state):
        net = network(state)
        assert reference_market_network(state) == net
        assert gcd(state.price_scale, *state.price) == 1
        assert all(gcd(*state.ratio[i]) == 1 for i in state.active_buyers)
        seen["networks"] += 1
        return net

    def checked_rebalance(state):
        rebalance(state)
        assert state.flow.net.scale == state.flow.scale
        seen["flows"] += 1

    def checked_scale(*args):
        flow, theta = scale(*args)
        assert flow.net.scale == flow.scale
        seen["flows"] += 1
        return flow, theta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolverState, "network", checked_network)
        mp.setattr(SolverState, "rebalance", checked_rebalance)
        mp.setattr(solver, "scale_flow", checked_scale)
        yield seen


def check_tight_denominators(sol):
    """Each Stage II tight denominator is its tight goods' largest, read off the trace.

    ``sol`` comes from a traced solve; each ``"tight"`` entry of Stage II
    holds the prices after its move as ``Fraction``s.
    """
    detail = sol.stats.get("detail")
    tights = [e for e in sol.trace if e["stage"] == 2 and e["type"] == "tight"]
    want = [max([e["p"][j].denominator for j in e["tight_goods"]], default=1) for e in tights]
    assert (detail["tight_denominators"] if detail else []) == want
    return len(want)


# ---------------------------------------------------------------------------
# One fixed-budget phase on the surplus-ladder family (acceptance criterion 08).


def measure_l1_vs_l2(n, delta=Fraction(1), big=None):
    """Run one phase on the surplus-ladder family and report both norms.

    The family is built so a single phase performs ``n`` edge events followed
    by one tight event; the total surplus (l1) hardly moves while the squared
    norm (l2) drops by a constant factor.  The phase is the fixed-budget
    run's first, driven here with the same kernel from the family's own
    start prices.  Returns a dict with the event list and the start /
    after-edge-events / end values of both norms.
    """
    u, money, prices = gen_l1_adversarial(n, delta, big)
    market = _FixedBudgets(u, tuple(money), list(prices))
    _rebuild(market)
    l1_start, l2_start = market.l1(), market.l2()
    market.phase = 1
    peak = max(market.theta)
    block = {i for i, t in enumerate(market.theta) if t == peak}
    _price_phase(market, block, True, market.stop_at_tight)
    _rebuild(market)
    l1_end, l2_end = market.l1(), market.l2()
    events = market.trace
    edge_events = [e for e in events if e["type"] == "edge"]
    return {
        "n": n,
        "delta": Fraction(delta),
        "events": events,
        "l1_start": l1_start,
        "l2_start": l2_start,
        "l1_after_edges": edge_events[-1]["l1"] if edge_events else l1_start,
        "l1_end": l1_end,
        "l2_end": l2_end,
        "l1_drop": l1_start - l1_end,
        "l2_drop_factor": l2_end / l2_start,
    }


# ---------------------------------------------------------------------------
# Random generators (callers seed their own ``random.Random``).


def random_network(rng: random.Random, max_buyers: int = 4, max_goods: int = 4) -> MarketNetwork:
    """Random small market network: positive prices, buyers may be isolated."""
    n = rng.randint(1, max_buyers)
    g = rng.randint(1, max_goods)
    p = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(g))
    m = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n))
    edges = frozenset((i, j) for i in range(n) for j in range(g) if rng.random() < 0.55)
    return integer_network(p, m, edges)


def exhaustive_small_instances():
    """Every game with n,g ≤ 2, u entries in 0..3, c_i in {0, 1/2, 1, 2}.

    Matrices with an all-zero row or column are skipped (they are either
    rejected at validation or settled by preprocessing, covered elsewhere).
    """
    c_choices = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    for n, g in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for bits in range(4 ** (n * g)):
            flat, v = [], bits
            for _ in range(n * g):
                flat.append(v % 4)
                v //= 4
            rows = [flat[i * g:(i + 1) * g] for i in range(n)]
            if any(not any(row) for row in rows):
                continue
            if any(not any(rows[i][j] for i in range(n)) for j in range(g)):
                continue
            for cbits in range(4 ** n):
                payoff, w = [], cbits
                for _ in range(n):
                    payoff.append(c_choices[w % 4])
                    w //= 4
                yield make_instance(rows, payoff)
