"""Balanced flows: the unique fairest max-flow of a market network.

Among all max-flows of a market network, the balanced flow minimizes the
Euclidean norm of the surplus vector ``theta_i = m_i - (money i receives)``.
The surplus vector it induces is unique, and a max-flow is balanced exactly
when no buyer with strictly smaller surplus can reach a buyer with larger
surplus in the residual graph restricted to goods and buyers (shifting spend
along such a path would even the two surpluses out).  Every such path
alternates a buyer, a good paying that buyer and a buyer interested in the
good, so the condition is checked one good at a time: each buyer a good pays
has at least the largest surplus among the good's interested buyers.

The computation is divide and conquer on the buyer set.  A block of value
``F`` (one max-flow finds the root's) tries the flat surplus level
``delta = (block money - F) / #buyers`` with one max-flow at clamped sink
capacities; if it is not achievable, the maximal min cut of that trial splits
the buyers into a low-surplus side (inside the cut, with its goods) and a
high-surplus side.  The high goods sell out in the trial to high buyers
alone, and no interest edge runs from a low good to a high buyer (an
unbounded arc across a finite cut), so the high child's value is the high
goods' price mass and the low child's is ``F`` minus it.  At most ``2n - 1``
blocks each run at most one trial: with the root value and the reassembly,
at most ``2n + 1`` max-flows.  A root that does not split has solved the
reassembly's network already, so such a call costs at most 2.  The returned
flow must saturate every clamped sink capacity, match the root value and
pass the characterization above, which together *prove* the output balanced
however its surpluses were found.

A market rebalances after every price event, and its new balanced
partition is usually the previous one with a few classes merged.  So
``balanced_flow`` takes the market's previous ``(flow, theta)`` as a hint
and first guesses: buyers at one previous level form a class, each good
joins the class it paid, a class whose buyer wants a good of a lower class
merges into that class, and a class ``B`` with goods ``G`` gets the level
``(m(B) - p(G)) / |B|``.  One max-flow at sink capacities ``m - level``
proves the guess by the same gate: every level lies in ``[0, m_i]``, the
flow routes the whole price mass (so it is maximum) and saturates every
capacity, and it passes the characterization.  The balanced surpluses are
unique, so an accepted guess is the Edmonds-Karp flow on the very network
the recursion would reassemble, and the answer does not depend on which
path found it.  A hit costs one max-flow; a miss falls through to the
recursion, so a hinted call costs at most ``2n + 2``.  The checkers in
``certify`` pass no hint and keep the recursion as their proof.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import lcm

from .flownet import FlowResult, MarketNetwork, _count, max_flow


class BalanceError(AssertionError):
    """Internal defect: a computed flow failed the balancedness gate."""


def surpluses(net: MarketNetwork, flow: FlowResult):
    theta = list(net.m)
    for (i, _), f in flow.pair_flow.items():
        theta[i] -= f
    return tuple(theta)


def verify_property1(net: MarketNetwork, flow: FlowResult) -> bool:
    """Residual-reachability check that characterizes balanced max-flows.

    True iff for every buyer ``i``, every buyer reachable from ``i`` in the
    residual graph (source and sink excluded) has surplus <= ``theta_i``.
    One residual hop leads from a buyer through a good that pays them to any
    buyer interested in that good.  Reachability is the transitive closure
    of these hops and ``<=`` is transitive, so it suffices that every buyer
    a good pays has at least the largest surplus ``top[j]`` among the good's
    interested buyers.
    """
    theta = surpluses(net, flow)
    top = {}
    for (i, j) in net.edges:
        top[j] = max(top.get(j, theta[i]), theta[i])
    return all(theta[i] >= top[j] for (i, j) in net.edges if flow.pair_flow.get((i, j), 0) > 0)


def balanced_flow(net: MarketNetwork, hint=None):
    """Compute the balanced flow.  Returns ``(flow, theta)``, both exact.

    ``hint`` is the market's previous ``(flow, theta)``: surpluses are first
    guessed from its classes and proved with one max-flow (``_guess``), and
    the recursion runs only when the guess misses.  A hinted call counts
    one ``"hits"`` or ``"misses"`` in the open ``counting()`` tally.  At
    most ``2n + 1`` max-flows without a hint and ``2n + 2`` with one; a hit
    costs one.
    """
    if hint is not None:
        guessed = _guess(net, *hint)
        _count("hits" if guessed else "misses")
        if guessed:
            return guessed
    n = net.n
    theta = [None] * n
    root = max_flow(net)
    leaf = _solve(frozenset(range(n)), frozenset(range(net.g)), root.value, net, theta)
    caps = tuple(net.m[i] - theta[i] for i in range(n))
    # An unsplit root ran on the reassembly's network: ``net``, capped if delta > 0.
    flow = root if caps == net.m else leaf or max_flow(replace(net, m=caps))
    if flow.value != sum(caps, Fraction(0)) or flow.value != root.value:
        raise BalanceError("reassembled flow does not saturate the computed surplus levels")
    if not verify_property1(net, flow):
        raise BalanceError("reassembled flow violates the balance characterization")
    return flow, tuple(theta)


def _guess(net, prev_flow, prev_theta):
    """Balanced ``(flow, theta)`` guessed from a previous one, or None.

    The classes and the gate are the module docstring's.  An edgeless buyer
    stays alone (its surplus is its money), a good joins a class only
    through a previous pair that is still an edge, and a class with goods
    but no buyer counts as the lowest.  Levels are compared in integers,
    over one common denominator of every money and price.
    """
    n, g = net.n, net.g
    if len(prev_theta) != n:
        return None
    scale = lcm(*(x.denominator for x in net.p + net.m))
    money = [x.numerator * (scale // x.denominator) for x in net.m]
    price = [x.numerator * (scale // x.denominator) for x in net.p]
    parent = list(range(n + g))  # buyers 0..n-1, then goods

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    edges = sorted(net.edges)
    order = sorted({i for (i, _) in edges}, key=prev_theta.__getitem__)
    for a, b in zip(order, order[1:]):
        if prev_theta[a] == prev_theta[b]:
            parent[b] = find(a)
    for (i, j) in prev_flow.pair_flow:
        if (i, j) in net.edges:
            parent[find(n + j)] = find(i)
    cash, size = [0] * (n + g), [0] * (n + g)  # per root: m(B) - p(G) and |B|, scaled
    for i, x in enumerate(money):
        cash[find(i)] += x
        size[find(i)] += 1
    for j, x in enumerate(price):
        cash[find(n + j)] -= x
    merged = True
    while merged:
        merged = False
        for (i, j) in edges:
            a, b = find(i), find(n + j)
            if a != b and (not size[b] or cash[a] * size[b] > cash[b] * size[a]):
                parent[a] = b
                cash[b] += cash[a]
                size[b] += size[a]
                merged = True
    level = {}
    for i in range(n):
        r = find(i)
        if cash[r] < 0 or money[i] * size[r] < cash[r]:
            return None
        if r not in level:
            level[r] = Fraction(cash[r], size[r] * scale)
    theta = tuple(level[find(i)] for i in range(n))
    flow = max_flow(replace(net, m=tuple(m - t for m, t in zip(net.m, theta))))
    held = sum(cash[r] for r in level)
    if flow.value != Fraction(sum(price), scale) or flow.value != Fraction(sum(money) - held, scale):
        return None
    if not verify_property1(net, flow):
        return None
    return flow, theta


def _solve(buyers, goods, value, net, theta):
    """Fill ``theta`` for a nonempty block of max-flow ``value``; return a leaf's trial flow."""
    delta = (sum((net.m[i] for i in buyers), Fraction(0)) - value) / len(buyers)
    if delta == 0:
        for i in buyers:
            theta[i] = Fraction(0)
        return None
    caps = [max(net.m[i] - delta, Fraction(0)) if i in buyers else Fraction(0) for i in range(net.n)]
    trial = max_flow(replace(net.sub(buyers, goods), m=tuple(caps)))
    if trial.value == value and all(net.m[i] >= delta for i in buyers):
        for i in buyers:
            theta[i] = delta
        return trial
    low_b = trial.far_side[0] & buyers
    low_g = trial.far_side[1] & goods
    if not low_b or low_b == buyers:
        raise BalanceError("degenerate split in balanced-flow recursion")
    high_value = sum((net.p[j] for j in goods - low_g), Fraction(0))
    _solve(low_b, low_g, value - high_value, net, theta)
    _solve(buyers - low_b, goods - low_g, high_value, net, theta)
    return None


def scale_flow(edges, theta, x, buyers, goods):
    """Surpluses after a closed block's prices and budgets scale by ``x``.

    Buyer budgets here are flexible, of the form ``m_i = 1 + alpha_i``.
    Multiplying the block's prices by ``x`` turns each block budget into
    ``1 + x*alpha_i`` and the block's balanced flow, scaled by ``x``, is
    again a balanced max-flow of the scaled network, so each block surplus
    moves to ``1 + x*(theta_i - 1)`` and every other surplus stays.  The
    block must be closed: no interest edge may cross its boundary
    (checked).  This is Stage II's surplus update at a tight event; it keeps
    its name because ``perfbench/tracing.py`` wraps ``scale_flow`` where
    ``solver`` binds it and the benchmark reports it as a layer.

    Returns the new surplus tuple.
    """
    for (i, j) in edges:
        if (i in buyers) != (j in goods):
            raise ValueError(f"edge ({i},{j}) crosses the scaled block")
    return tuple(1 + x * (t - 1) if i in buyers else t for i, t in enumerate(theta))
