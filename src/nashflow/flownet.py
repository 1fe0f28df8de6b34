"""Money-flow networks over (goods, buyers) and exact max-flow.

The recurring object is a bipartite flow network: source -> good j with
capacity ``p[j]`` (the good's price), good -> buyer along "interest" edges
with unbounded capacity, buyer i -> sink with capacity ``m[i]`` (the buyer's
money).  A max-flow routes money from goods to buyers; its maximal minimum
cut tells us which goods and buyers bind.  A flow is its pair flows: a good's
sales and a buyer's spending are sums over them, and callers that need one
sum it themselves.

A network's amounts are ints over its ``scale``.  ``int_network``
assembles one from prices over a scale and budgets as integer pairs, over
their least common denominator: the market, the checkers and the
fixed-budget tight search build theirs so.  Max-flow runs integer
Edmonds-Karp (shortest augmenting paths, deterministic edge order) on the
amounts as given, so flows are exact and runs are reproducible, and it
answers in ints over the network's scale (``FlowResult.scale``).
Multiplying every capacity by one positive integer multiplies the flow by
it and keeps the paths, the cut and the augment count, since the pair arcs
never bind.  Unbounded pair capacities are encoded as the total price mass
plus one, which no s-t flow can reach.  Over V nodes and A arcs, source and
sink and reverse arcs counted, Edmonds-Karp needs at most V*A/2 augmenting
paths (each saturates an arc, and an arc saturates at most V/2 times); a
max-flow that finds more than V*A of them has a broken flow core and raises
``FlowError`` rather than loop for ever.

Before the first search, a network whose priced pairs form a forest and
whose price and money masses are equal is peeled.  Such a network has at
most one flow that sells every good and spends all money: a leaf's balance
fixes the flow on its one pair, and removing that pair leaves a smaller
forest.  The peel puts each leaf's whole remaining room on its one
unsettled pair, with the other end's room reduced by it, and gives up at
the first overdraw (an end left with less than nothing).  If every pair
settles and every good sells out, the equal masses spend all money too, so
this is the one saturating flow.  Every maximum flow saturates then, so it
is Edmonds-Karp's flow as well, with the same residual graph (each pair arc
holds unbounded minus the pair's flow, its reverse the flow), the price
mass as value and, since no buyer keeps money room, every node on the far
side.  Edmonds-Karp runs on what the peel leaves: unequal masses, cycles
(the priced pairs of a cycle never become leaves) and forests with no
saturating flow.  With generic utilities the best-ratio networks are
forests, and most balanced-flow rounds prove a guess that saturates.

Where the peel gives up or is not tried, one sweep pushes the direct pairs
before the first search: goods in index order, each good's arcs in order,
the smaller room on each pair whose buyer has money room, each push counted
as one augmenting path.  A search queues every good with price room before
any buyer, so while a direct pair is left it returns the first one in
(good, arc) order, with the smaller room as bottleneck since pair arcs
never bind.  Rooms only shrink, so the sweep makes the searches' first
pushes in their order, and the searches finish the flow.

The source and sink are not nodes: the residual rooms of their arcs are the
scaled prices and money, one per good and one per buyer, and only the pair
arcs are stored.  No path re-enters the source, so a price room only
shrinks: each breadth-first search starts from the goods with price room in
index order (the source's scan, kept across the searches of one max-flow; a
good leaves it when its room reaches 0) and stops at the first buyer it
discovers with money room.  A search over the s-t graph would take that very
path: a buyer scans its sink arc last and the queue pops nodes in discovery
order.  The paths, bottlenecks and residual updates are therefore the full
search's, and so are the pair flows and the cut that callers read.

Each flow keeps the integer residual graph its max-flow ended with, and one
search, ``_reach``, reads everything from it: the maximal min cut (the
nodes that reach a buyer with money room, searched backward from those
buyers; at a maximum flow no node reaches the sink through the source) and
the buyers that a phase's block reaches through goods
(``FlowResult.residual_reach``).

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
from math import gcd, lcm

_TALLY = ContextVar("nashflow_tally", default=None)


class FlowError(AssertionError):
    """Internal defect: a max-flow ran past the Edmonds-Karp path bound."""


@contextmanager
def counting():
    """Count the work done inside the block; yields a ``Counter``.

    ``max_flow`` adds one to ``"maxflows"`` and either one to ``"peels"``
    (it peeled a saturating forest) or its number of augmenting paths to
    ``"augments"``, and each ``balanced_flow`` adds to ``"hits"``,
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
    """Immutable network description: prices, money, and interest edges.

    Prices and money are ints over ``scale``: ``p[j] / scale`` is good
    ``j``'s price and ``m[i] / scale`` buyer ``i``'s money.
    """

    p: tuple
    m: tuple
    edges: frozenset
    scale: int

    @property
    def g(self) -> int:
        return len(self.p)

    @property
    def n(self) -> int:
        return len(self.m)


def int_network(price, scale, budgets, edges) -> MarketNetwork:
    """The network of prices ``price[j] / scale`` and budgets ``num / den``.

    ``budgets`` lists each buyer's ``(num, den)``.  The amounts go over the
    lcm of ``scale`` and the budgets' denominators, and one gcd takes them
    all to their least common denominator, the network's ``scale``.
    """
    common = lcm(scale, *[den for _, den in budgets])
    k = common // scale
    amounts = [q * k for q in price] + [num * (common // den) for num, den in budgets]
    d = gcd(common, *amounts)
    if d > 1:
        common //= d
        amounts = [x // d for x in amounts]
    g = len(price)
    return MarketNetwork(tuple(amounts[:g]), tuple(amounts[g:]), frozenset(edges), common)


def build_network(inst, p) -> MarketNetwork:
    """Best-ratio network at the given prices under flexible budgets.

    Buyer ``i`` carries ``1 + c_i / gamma_i`` where ``gamma_i`` is their best
    utility-per-price ratio, and the edges are the best-ratio pairs.
    """
    p = [Fraction(x) for x in p]
    gamma, edges = bang_per_buck(inst.u, p)
    scale = lcm(*[x.denominator for x in p])
    price = [x.numerator * (scale // x.denominator) for x in p]
    money = [(1 + c / r).as_integer_ratio() for c, r in zip(inst.c, gamma)]
    return int_network(price, scale, money, edges)


def _reach(residual, start, backward):
    """Nodes that ``start`` reaches along arcs with room in a ``residual`` graph.

    ``backward`` reads every arc reversed, giving the nodes that reach
    ``start``.  ``start`` is included.
    """
    head, to, cap = residual
    flip = 1 if backward else 0
    seen = set(start)
    queue = list(start)
    for node in queue:
        for arc in head[node]:
            nxt = to[arc]
            if nxt not in seen and cap[arc ^ flip] > 0:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@dataclass
class FlowResult:
    """An exact max-flow of ``net`` plus its maximal minimum cut.

    Every amount is an int over ``scale``: the ``value``, the pair flows and
    the prices and caps of ``net``, the integer network the flow belongs to,
    so ``Fraction(value, scale)`` is the value.  ``pair_flow`` maps each
    interest edge ``(i, j)`` that carries money to the amount good ``j``
    sells to buyer ``i``; other edges are absent, so ``e in pair_flow``
    tests for money.  ``far_side`` is the complement of the nodes that reach
    the sink in the residual graph, given as a pair ``(buyers, goods)`` of
    frozensets.  ``residual`` holds the integer pair arcs ``(head, to,
    cap)`` the max-flow ended with, over nodes goods ``0..g-1`` and buyers
    ``g..g+n-1``; the cut and ``residual_reach`` are both read from it.
    Three functions make one: ``max_flow`` runs it, ``balanced_flow``
    returns its round's integer flow over ``scale * mult`` with the cut and
    residual graph kept, and ``scale_flow`` multiplies a closed block's pair
    flows by a factor ``x > 0``.  The scaled flow keeps its parent's cut and
    residual graph, whose integers are over the parent's scale: the edges
    are the same and no arc changes sign, and only the signs of the residual
    rooms are read.  So the cut always belongs to the flow.
    """

    value: int
    pair_flow: dict
    far_side: tuple
    net: MarketNetwork
    residual: tuple = field(default=None, compare=False, repr=False)
    scale: int = 1

    def allocation(self):
        """Share ``x[i][j]`` of good ``j`` sold to buyer ``i`` as a ``Fraction``, 0 without flow.

        A pair flow and its good's price share the scale, which cancels.
        """
        x = [[Fraction(0)] * self.net.g for _ in range(self.net.n)]
        for (i, j), f in self.pair_flow.items():
            x[i][j] = Fraction(f, self.net.p[j])
        return x

    def residual_reach(self, start_buyers, reverse=False):
        """Buyers reachable from ``start_buyers`` in the kept residual graph.

        Paths run through goods and buyers only: good -> buyer arcs are
        always traversable along interest edges (unbounded capacity),
        buyer -> good arcs only where that buyer currently receives flow
        from the good.  With ``reverse=True`` the arcs are flipped, giving
        the set of buyers that can reach ``start_buyers``.
        """
        g = self.net.g
        reached = _reach(self.residual, [g + i for i in start_buyers], reverse)
        return {node - g for node in reached if node >= g}


def max_flow(net: MarketNetwork) -> FlowResult:
    """Exact max-flow of the network; counts one ``"maxflows"``.

    A forest that saturates counts one ``"peels"``; every other network
    counts its ``"augments"``.  The flow is in ints over the network's
    scale.
    """
    _count("maxflows")

    n, g = net.n, net.g
    price = list(net.p)
    money = [0] * g + list(net.m)  # by node: goods 0..g-1, buyers g..g+n-1

    # Arc 2k runs good -> buyer, arc 2k+1 back, sorted by good, then buyer.
    # Pair capacities stand in for "unbounded" and must strictly exceed any
    # achievable flow, or a fully loaded pair would masquerade as a cut edge.
    mass = sum(price)
    unbounded = mass + 1
    to, cap, head = [], [], [[] for _ in range(g + n)]
    pairs = sorted((j, i) for (i, j) in net.edges if price[j] > 0)
    for j, i in pairs:
        head[j].append(len(to))
        head[g + i].append(len(to) + 1)
        to += (g + i, j)
        cap += (unbounded, 0)

    # Peel a forest with equal masses (module docstring): a leaf puts its
    # whole room on its one unsettled pair; the peel gives up at an overdraw.
    peeled = len(pairs) < g + n and mass == sum(money)
    if peeled:
        room, degree = price + money[g:], [len(arcs) for arcs in head]
        settled = [-1] * len(pairs)  # each pair's flow once its leaf settles it
        leaves = [v for v in range(g + n) if degree[v] == 1]
        for leaf in leaves:
            if degree[leaf] != 1:  # its last pair went with its partner
                continue
            for arc in head[leaf]:
                if settled[arc >> 1] < 0:
                    break
            node = to[arc]
            if room[node] < room[leaf]:  # an overdraw: no flow saturates
                peeled = False
                break
            room[node] -= room[leaf]
            settled[arc >> 1], room[leaf], degree[leaf] = room[leaf], 0, 0
            degree[node] -= 1
            if degree[node] == 1:
                leaves.append(node)
        # Accept when no pair is left (no cycle) and every good sold out; with
        # equal masses and no overdraw, every buyer then spent all its money.
        peeled = peeled and -1 not in settled and not any(room[:g])
    if peeled:
        cap = [c for f in settled for c in (unbounded - f, f)]
        value, money = mass, room  # no room left: the cut puts every node on the far side
        _count("peels")
    else:
        bound = (g + n + 2) * 2 * (sum(x > 0 for x in price) + len(pairs) + sum(x > 0 for x in money))
        # The first paths are the direct pairs, in (good, arc) order (module
        # docstring): one sweep pushes them, each counted as one path.
        value = augments = 0
        for j in range(g):
            room = price[j]
            for arc in head[j]:
                if not room:
                    break
                buyer = to[arc]
                if money[buyer]:
                    bottleneck = min(room, money[buyer])
                    room -= bottleneck
                    money[buyer] -= bottleneck
                    cap[arc] -= bottleneck
                    cap[arc ^ 1] += bottleneck
                    value += bottleneck
                    augments += 1
            price[j] = room
        # Each search starts from the goods with price room, in index order.
        starts = [j for j in range(g) if price[j]]
        start_parent = [-1] * (g + n)
        for j in starts:
            start_parent[j] = -2
        for _ in range(bound + 1 - augments):
            parent_arc = start_parent[:]
            queue = starts[:]
            last = -1  # the path's buyer, once found
            for node in queue:
                for arc in head[node]:
                    nxt = to[arc]
                    if parent_arc[nxt] == -1 and cap[arc] > 0:
                        parent_arc[nxt] = arc
                        if money[nxt]:
                            last = nxt
                            break
                        queue.append(nxt)
                if last >= 0:
                    break
            if last < 0:
                break
            path, node = [], last
            while parent_arc[node] >= 0:
                path.append(parent_arc[node])
                node = to[path[-1] ^ 1]
            bottleneck = min(price[node], money[last], *(cap[arc] for arc in path))
            price[node] -= bottleneck
            money[last] -= bottleneck
            for arc in path:
                cap[arc] -= bottleneck
                cap[arc ^ 1] += bottleneck
            if not price[node]:  # the path's first good
                start_parent[node] = -1
                starts.remove(node)
            value += bottleneck
            augments += 1
        else:
            raise FlowError(f"max-flow did not end within {bound} augmenting paths")
        _count("augments", augments)

    pair_flow = {}
    for k, (j, i) in enumerate(pairs):
        f = cap[2 * k + 1]  # reverse residual equals flow shipped
        if f:
            pair_flow[(i, j)] = f

    residual = (head, to, cap)
    to_sink = _reach(residual, [g + i for i in range(n) if money[g + i]], True)
    far_side = (frozenset(i for i in range(n) if g + i not in to_sink),
                frozenset(j for j in range(g) if j not in to_sink))
    return FlowResult(value, pair_flow, far_side, net, residual, net.scale)
