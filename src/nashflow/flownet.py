"""Money-flow networks over (goods, buyers) and exact max-flow.

The recurring object is a bipartite flow network: source -> good j with
capacity ``p[j]`` (the good's price), good -> buyer along "interest" edges
with unbounded capacity, buyer i -> sink with capacity ``m[i]`` (the buyer's
money).  A max-flow routes money from goods to buyers; its maximal minimum
cut tells us which goods and buyers bind.  A flow is its pair flows: a good's
sales and a buyer's spending are sums over them, and callers that need one
sum it themselves.

All capacities are rationals.  Max-flow clears denominators up front and runs
integer Edmonds-Karp (shortest augmenting paths, deterministic edge order),
so flows are exact and runs are reproducible.  Unbounded pair capacities are
encoded as the total price mass plus one, which no s-t flow can reach.
Utility-per-price ratios are compared in integers as well, by
cross-multiplying numerators and denominators.  Work is counted per
``counting()`` block, not per process.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

_TALLY = ContextVar("nashflow_tally", default=None)


@contextmanager
def counting():
    """Count the work done inside the block; yields a ``Counter``.

    ``max_flow`` adds to ``"maxflows"`` and a hinted ``balanced_flow`` to
    ``"hits"`` or ``"misses"``.  A nested block counts only its own work
    and adds it to the enclosing block's tally when it exits.
    """
    outer, tally = _TALLY.get(), Counter()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)
        if outer is not None:
            outer.update(tally)


def _count(key):
    """Add one ``key`` to the innermost open tally, if any."""
    tally = _TALLY.get()
    if tally is not None:
        tally[key] += 1


def bang_per_buck(u, p):
    """Best utility-per-price ratio and its attaining edges.

    Returns ``(gamma, edges)`` where ``gamma[i] = max_j u[i][j]/p[j]`` over
    goods with positive price and ``edges`` lists every ``(i, j)`` attaining
    the maximum, row by row in ascending ``j``.  Rows with no positive
    utility toward positively-priced goods are rejected (callers preprocess
    those away).  With ``p_j = a_j/b_j`` the ratio is ``u_ij b_j / a_j``;
    ratios are compared by cross-multiplying, and one ``Fraction`` is built
    per row.
    """
    priced = [(j, x.numerator, x.denominator) for j, x in enumerate(p) if x > 0]
    gamma = []
    edges = []
    for i, row in enumerate(u):
        num, den, ties = 0, 1, []
        for j, a, b in priced:
            if row[j] > 0:
                cand = row[j] * b
                if cand * den > num * a:
                    num, den, ties = cand, a, [j]
                elif cand * den == num * a:
                    ties.append(j)
        if not ties:
            raise ValueError(f"buyer {i} values no positively priced good")
        gamma.append(Fraction(num, den))
        edges.extend((i, j) for j in ties)
    return gamma, edges


@dataclass(frozen=True)
class MarketNetwork:
    """Immutable network description: prices, money, and interest edges."""

    p: tuple
    m: tuple
    edges: frozenset

    @property
    def g(self) -> int:
        return len(self.p)

    @property
    def n(self) -> int:
        return len(self.m)

    def sub(self, buyers, goods) -> "MarketNetwork":
        """Restriction to subsets: outside caps zeroed, edges filtered."""
        buyers, goods = set(buyers), set(goods)
        p = tuple(self.p[j] if j in goods else Fraction(0) for j in range(self.g))
        m = tuple(self.m[i] if i in buyers else Fraction(0) for i in range(self.n))
        edges = frozenset((i, j) for (i, j) in self.edges if i in buyers and j in goods)
        return MarketNetwork(p, m, edges)


def build_network(inst, p) -> MarketNetwork:
    """Best-ratio network at the given prices under flexible budgets.

    Buyer ``i`` carries ``1 + c_i / gamma_i`` where ``gamma_i`` is their best
    utility-per-price ratio, and the edges are the best-ratio pairs.
    """
    p = tuple(Fraction(x) for x in p)
    gamma, edges = bang_per_buck(inst.u, p)
    money = tuple(1 + inst.c[i] / gamma[i] for i in range(inst.n))
    return MarketNetwork(p, money, frozenset(edges))


@dataclass
class FlowResult:
    """An exact max-flow of ``net`` plus its maximal minimum cut.

    ``pair_flow`` maps each interest edge ``(i, j)`` that carries money to
    the amount good ``j`` sells to buyer ``i``; edges without flow are
    absent.  ``far_side`` is the complement of the nodes that reach the sink
    in the residual graph, given as a pair ``(buyers, goods)`` of
    frozensets, source/sink excluded.  Only ``max_flow`` makes one, so the
    cut always belongs to the flow.
    """

    value: Fraction
    pair_flow: dict
    far_side: tuple
    net: MarketNetwork

    def allocation(self):
        """Share ``x[i][j]`` of good ``j`` sold to buyer ``i``, 0 without flow."""
        x = [[Fraction(0)] * self.net.g for _ in range(self.net.n)]
        for (i, j), f in self.pair_flow.items():
            x[i][j] = f / self.net.p[j]
        return x

    def residual_reach(self, start_buyers, reverse=False):
        """Buyers reachable from ``start_buyers`` in the residual graph.

        Paths run through goods and buyers only (never the source or sink):
        good -> buyer arcs are always traversable along interest edges
        (unbounded capacity), buyer -> good arcs only where that buyer
        currently receives flow from the good.  With ``reverse=True`` the
        arcs are flipped, giving the set of buyers that can reach
        ``start_buyers``.
        """
        good_to_buyers, buyer_to_goods = {}, {}
        for (i, j) in self.net.edges:
            paid = self.pair_flow.get((i, j), 0) > 0
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


def max_flow(net: MarketNetwork) -> FlowResult:
    """Exact max-flow of the network; counts one ``"maxflows"``."""
    _count("maxflows")

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
        value += pushed

    pair_flow = {}
    for (i, j), arc in pair_ids.items():
        f = cap[arc ^ 1]  # reverse residual equals flow shipped
        if f:
            pair_flow[(i, j)] = Fraction(f, scale)

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
    return FlowResult(value=Fraction(value, scale), pair_flow=pair_flow, far_side=far_side, net=net)
