"""Money-flow networks over (goods, buyers) and exact max-flow.

The recurring object is a bipartite flow network: source -> good j with
capacity ``p[j]`` (the good's price), good -> buyer along "interest" edges
with unbounded capacity, buyer i -> sink with capacity ``m[i]`` (the buyer's
money).  A max-flow routes money from goods to buyers; its maximal minimum
cut tells us which goods and buyers bind.  A flow is its pair flows: a good's
sales and a buyer's spending are sums over them, and callers that need one
sum it themselves.

All capacities are rationals.  Max-flow clears denominators up front
(``integer_caps``, which the balanced-flow guess shares) and runs integer
Edmonds-Karp (shortest augmenting paths, deterministic edge order), so flows
are exact and runs are reproducible.  Unbounded pair capacities are encoded
as the total price mass plus one, which no s-t flow can reach.  Over V nodes
and A arcs, reverse arcs counted, Edmonds-Karp needs at most V*A/2
augmenting paths (each saturates an arc, and an arc saturates at most V/2
times); a max-flow that finds V*A of them has a broken flow core and raises
``FlowError`` rather than loop for ever.

Each breadth-first search stops at the first buyer it discovers whose sink
arc has room, without scanning on to the sink.  That keeps every path of
the full search: a buyer scans its sink arc last and the queue pops nodes in
discovery order, so the full search would reach the sink from that very
buyer, along the parent chain fixed when each node on it was discovered.
Nor does a search rescan the source: its scan finds the goods with price
room in index order, and a source arc only loses room, so that scan is kept
across the searches of one max-flow and a good leaves it when its arc
saturates.  The paths, bottlenecks and residual updates are therefore the
full search's, and so are the pair flows and the cut that callers read.

Each flow keeps the integer residual graph its max-flow ended with, and one
search, ``_reach``, reads everything from it: the maximal min cut (the
nodes that reach the sink, searched backward from it) and the buyers that
a phase's block reaches through goods (``FlowResult.residual_reach``).

Utility-per-price ratios are compared in integers as well, by
cross-multiplying numerators and denominators, in the one search
``best_ratio`` that every best-ratio question calls.  Work is counted per
``counting()`` block, not per process.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

_TALLY = ContextVar("nashflow_tally", default=None)


class FlowError(AssertionError):
    """Internal defect: a max-flow ran past the Edmonds-Karp path bound."""


@contextmanager
def counting():
    """Count the work done inside the block; yields a ``Counter``.

    ``max_flow`` adds one to ``"maxflows"`` and its number of augmenting
    paths to ``"augments"``, and each ``balanced_flow`` adds to ``"hits"``,
    ``"repairs"`` or ``"misses"``.  A nested block counts only
    its own work and adds it to the enclosing block's tally when it exits.
    """
    outer, tally = _TALLY.get(), Counter()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)
        if outer is not None:
            outer.update(tally)


def _count(key, amount=1):
    """Add ``amount`` of ``key`` to the innermost open tally, if any."""
    tally = _TALLY.get()
    if tally is not None:
        tally[key] += amount


def best_ratio(row, priced):
    """Best utility-per-price ratio of one buyer over ``priced`` goods.

    ``priced`` lists ``(j, a, b)`` for ``p_j = a/b``.  Returns ``(num, den,
    goods)``: the best ``row[j] b / a`` as the integer pair ``num/den``, and
    every good attaining it in ``priced`` order (none if the row values
    none).  Comparing by cross-multiplying ranks a zero price above all.
    """
    num, den, goods = 0, 1, []
    for j, a, b in priced:
        if row[j] > 0:
            cand = row[j] * b
            if cand * den > num * a:
                num, den, goods = cand, a, [j]
            elif cand * den == num * a:
                goods.append(j)
    return num, den, goods


def bang_per_buck(u, p):
    """Best utility-per-price ratio and its attaining edges.

    Returns ``(gamma, edges)`` where ``gamma[i] = max_j u[i][j]/p[j]`` over
    goods with positive price and ``edges`` lists every ``(i, j)`` attaining
    the maximum, row by row in ascending ``j``.  Rows with no positive
    utility toward positively-priced goods are rejected (callers preprocess
    those away).  One ``Fraction`` is built per row.
    """
    priced = [(j, x.numerator, x.denominator) for j, x in enumerate(p) if x > 0]
    gamma = []
    edges = []
    for i, row in enumerate(u):
        num, den, ties = best_ratio(row, priced)
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


def integer_caps(net):
    """``(scale, prices, money)``: the lcm of all denominators, and the caps times it."""
    amounts = (*net.p, *net.m)
    scale = lcm(*[x.denominator for x in amounts])
    caps = [x.numerator * (scale // x.denominator) for x in amounts]
    return scale, caps[:net.g], caps[net.g:]


def _reach(residual, start, backward, avoid):
    """Nodes that ``start`` reaches along arcs with room in a ``residual`` graph.

    ``backward`` reads every arc reversed, giving the nodes that reach
    ``start``.  ``start`` is included; no path enters a node of ``avoid``.
    """
    head, to, cap = residual
    flip = 1 if backward else 0
    seen = {*start, *avoid}
    queue = list(start)
    for node in queue:
        for arc in head[node]:
            nxt = to[arc]
            if nxt not in seen and cap[arc ^ flip] > 0:
                seen.add(nxt)
                queue.append(nxt)
    return seen.difference(avoid)


@dataclass
class FlowResult:
    """An exact max-flow of ``net`` plus its maximal minimum cut.

    ``pair_flow`` maps each interest edge ``(i, j)`` that carries money to
    the amount good ``j`` sells to buyer ``i``; other edges are absent, so
    ``e in pair_flow`` tests for money.  ``far_side`` is the complement of
    the nodes that reach the sink in the residual graph, given as a pair
    ``(buyers, goods)`` of frozensets, source/sink excluded.  ``residual``
    holds the integer arcs ``(head, to, cap)`` the max-flow ended with,
    over nodes source 0, goods ``1..g``, buyers ``g+1..g+n`` and sink
    ``g+n+1``; the cut and ``residual_reach`` are both read from it.  Only
    ``max_flow`` makes one, so the cut always belongs to the flow.
    """

    value: Fraction
    pair_flow: dict
    far_side: tuple
    net: MarketNetwork
    residual: tuple = field(default=None, compare=False, repr=False)

    def allocation(self):
        """Share ``x[i][j]`` of good ``j`` sold to buyer ``i``, 0 without flow."""
        x = [[Fraction(0)] * self.net.g for _ in range(self.net.n)]
        for (i, j), f in self.pair_flow.items():
            x[i][j] = f / self.net.p[j]
        return x

    def residual_reach(self, start_buyers, reverse=False):
        """Buyers reachable from ``start_buyers`` in the kept residual graph.

        Paths run through goods and buyers only (never the source or sink):
        good -> buyer arcs are always traversable along interest edges
        (unbounded capacity), buyer -> good arcs only where that buyer
        currently receives flow from the good.  With ``reverse=True`` the
        arcs are flipped, giving the set of buyers that can reach
        ``start_buyers``.
        """
        g = self.net.g
        sink = g + self.net.n + 1
        start = [g + 1 + i for i in start_buyers]
        reached = _reach(self.residual, start, reverse, (0, sink))
        return {node - g - 1 for node in reached if node > g}


def max_flow(net: MarketNetwork) -> FlowResult:
    """Exact max-flow of the network; counts one ``"maxflows"`` and its ``"augments"``."""
    _count("maxflows")

    n, g = net.n, net.g
    scale, price_caps, money_caps = integer_caps(net)

    # Node ids: source, goods, buyers, sink.
    source, sink = 0, 1 + g + n
    gnode = lambda j: 1 + j
    bnode = lambda i: 1 + g + i

    # Arcs 0 and 1 are a dead pair of capacity 0; arc 0 stands as the sink
    # arc of every node without one, so "room to the sink" is one lookup.
    to, cap, head = [sink, sink], [0, 0], [[] for _ in range(2 + g + n)]
    sink_arc = [0] * (2 + g + n)

    def add_arc(a, b, c):
        head[a].append(len(to))
        to.append(b)
        cap.append(c)
        head[b].append(len(to))
        to.append(a)
        cap.append(0)

    # Pair capacities stand in for "unbounded" and must strictly exceed any
    # achievable flow, or a fully loaded pair would masquerade as a cut edge.
    unbounded = sum(price_caps) + 1
    pair_ids = {}
    for j, cj in enumerate(price_caps):
        if cj > 0:
            add_arc(source, gnode(j), cj)
    for (i, j) in sorted(net.edges, key=lambda e: (e[1], e[0])):
        if price_caps[j] > 0:
            pair_ids[(i, j)] = len(to)
            add_arc(gnode(j), bnode(i), unbounded)
    for i, ci in enumerate(money_caps):
        if ci > 0:
            sink_arc[bnode(i)] = len(to)
            add_arc(bnode(i), sink, ci)

    # Each search starts from the state after the source's scan: the goods
    # with price room, in index order, each found by its source arc.  No
    # path re-enters the source, so a source arc only loses room; the state
    # is kept across searches, and a good leaves it when its arc saturates.
    start_parent = [-1] * (2 + g + n)
    start_parent[source] = -2
    start_queue = []
    for arc in head[source]:
        start_parent[to[arc]] = arc
        start_queue.append(to[arc])
    value = augments = 0
    for _ in range(len(head) * len(to)):
        parent_arc = start_parent[:]
        queue = start_queue[:]
        last = 0  # the path's sink arc, once found
        for node in queue:
            for arc in head[node]:
                nxt = to[arc]
                if parent_arc[nxt] == -1 and cap[arc] > 0:
                    parent_arc[nxt] = arc
                    if cap[sink_arc[nxt]] > 0:
                        last = sink_arc[nxt]
                        break
                    queue.append(nxt)
            if last:
                break
        if not last:
            break
        path = [last]
        node = to[last ^ 1]
        while node != source:
            arc = parent_arc[node]
            path.append(arc)
            node = to[arc ^ 1]
        bottleneck = min(cap[arc] for arc in path)
        for arc in path:
            cap[arc] -= bottleneck
            cap[arc ^ 1] += bottleneck
        if not cap[arc]:  # the path's first arc, out of the source
            start_parent[to[arc]] = -1
            start_queue.remove(to[arc])
        value += bottleneck
        augments += 1
    else:
        raise FlowError(f"max-flow did not end within {len(head) * len(to)} augmenting paths")
    _count("augments", augments)

    pair_flow = {}
    for (i, j), arc in pair_ids.items():
        f = cap[arc ^ 1]  # reverse residual equals flow shipped
        if f:
            pair_flow[(i, j)] = Fraction(f, scale)

    # Nodes that still reach the sink; the rest form the maximal min cut.
    residual = (head, to, cap)
    to_sink = _reach(residual, [sink], True, ())
    far_side = (
        frozenset(i for i in range(n) if bnode(i) not in to_sink),
        frozenset(j for j in range(g) if gnode(j) not in to_sink),
    )
    return FlowResult(Fraction(value, scale), pair_flow, far_side, net, residual)
