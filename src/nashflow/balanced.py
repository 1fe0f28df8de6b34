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

Every call guesses the balanced partition.  A market rebalances after every
price event, and its new partition is usually the previous one with a few
classes merged or split, so a market passes its previous ``(flow, theta)``:
buyers at one previous level form a class and each good joins the class it
paid.  Without a previous flow (the checkers', or a market's first) every
connected component starts as one class.  A class whose buyer wants a good
of a lower class merges into that class, and a class ``B`` with goods ``G``
gets the level ``(m(B) - p(G)) / |B|``.  One max-flow at sink capacities
``max(m - level, 0)`` proves the guess by the gate: every level lies in
``[0, m_i]``, the flow routes the whole price mass (so it is maximum) and
saturates every capacity, and it passes the characterization.

A guess that fails the gate is repaired from its own flow by the
recursion's split rule (below) applied to every class at once: the flow's
maximal min cut splits each class it crosses into the part inside the cut
and the part outside, goods following their side.  The classes are merged
again as above, re-levelled and proved by one more max-flow.  A class whose
goods cost more than its buyers hold proves that the price mass cannot sell
(no buyer outside a lowest class wants its goods, or the classes would have
merged), and classes that repeat the last round's would rerun its
max-flow; either ends the repair, as does a cap of ``n + 1`` rounds.

Then, and only then, the recursion runs: Fujishige's decomposition
algorithm, divide and conquer on the buyer set.  A block of value ``F``
(one max-flow finds the root's) tries the flat surplus level ``delta =
(block money - F) / #buyers`` with one max-flow at clamped sink capacities;
if it is not achievable, the maximal min cut of that trial splits the
buyers into a low-surplus side (inside the cut, with its goods) and a
high-surplus side.  The high goods sell out in the trial to high buyers
alone, and no interest edge runs from a low good to a high buyer (an
unbounded arc across a finite cut), so the high child's value is the high
goods' price mass and the low child's is ``F`` minus it.  At most ``2n -
1`` blocks each run at most one trial: with the root value and the
reassembly, at most ``2n + 1`` max-flows, and 2 for a root that does not
split (it has solved the reassembly's network already).

Every path ends in the same gate (the reassembled flow must also match the
root value), which *proves* the output balanced however its surpluses were
found.  The balanced surpluses are unique, so every path returns the
Edmonds-Karp flow on the same network.  A hit costs one max-flow, a repair
one per round, and a miss adds the recursion's: at most ``3n + 2``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .flownet import FlowResult, MarketNetwork, _count, integer_caps, max_flow


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
    return all(theta[i] >= top[j] for (i, j) in net.edges if (i, j) in flow.pair_flow)


def balanced_flow(net: MarketNetwork, hint=(None, ())):
    """Compute the balanced flow.  Returns ``(flow, theta)``, both exact.

    ``hint`` is the market's previous ``(flow, theta)``; without a usable
    previous flow (none, or a ``theta`` of the wrong length) the guess starts
    from one class per connected component.  The guess is proved with one
    max-flow, a failed guess is repaired from its flow's cut (``_guess``),
    and the recursion (``_recursion``) runs only when the repair gives up.
    Each call counts one ``"hits"``, ``"repairs"`` or ``"misses"`` in the
    open ``counting()`` tally.  At most ``3n + 2`` max-flows per call, one
    for a hit; the recursion alone costs at most ``2n + 1``.  A network
    without buyers returns a max-flow and ``()``.
    """
    outcome, guessed = _guess(net, *hint)
    _count(outcome)
    return guessed or _recursion(net)


def _guess(net, prev_flow, prev_theta):
    """``(outcome, guessed)``: the count to add and the proved ``(flow, theta)`` or None.

    The classes, the gate and the repair are the module docstring's.  An
    edgeless buyer stays alone (its surplus is its money), a good joins a
    class only through a previous pair that is still an edge (any edge
    without a usable previous flow), and a class with goods but no buyer
    counts as the lowest.  Levels are compared in integers, over one common
    denominator of every money and price.  The first round is the guess
    (``"hits"``), a later one a repair (``"repairs"``).
    """
    n, g = net.n, net.g
    scale, price, money = integer_caps(net)
    mass = Fraction(sum(price), scale)
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
    last = None
    for attempt in range(n + 1):
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
        root = [find(x) for x in range(n + g)]
        first = {}
        classes = [first.setdefault(r, x) for x, r in enumerate(root)]
        if classes == last or any(cash[r] < 0 for r in first):
            break
        level = {r: Fraction(cash[r], size[r] * scale) for r in first if size[r]}
        theta = tuple(level[r] for r in root[:n])
        caps = tuple(max(m - t, 0) for m, t in zip(net.m, theta))
        flow = max_flow(replace(net, m=caps))
        fits = all(money[i] * size[r] >= cash[r] for i, r in enumerate(root[:n]))
        if fits and flow.value == mass == sum(caps) and verify_property1(net, flow):
            return ("repairs" if attempt else "hits"), (flow, theta)
        far_buyers, far_goods = flow.far_side
        side = {}  # (class, inside the cut) -> its part's first member
        parent = [side.setdefault((r, x in far_buyers if x < n else x - n in far_goods), x)
                  for x, r in enumerate(root)]
        last = classes
    return "misses", None


def _recursion(net):
    """The divide and conquer of the module docstring: ``(flow, theta)`` in ``2n + 1`` max-flows."""
    n = net.n
    theta = [None] * n
    root = max_flow(net)
    if not n:
        return root, ()
    leaf = _solve(frozenset(range(n)), frozenset(range(net.g)), root.value, net, theta)
    caps = tuple(net.m[i] - theta[i] for i in range(n))
    # An unsplit root ran on the reassembly's network: ``net``, capped if delta > 0.
    flow = root if caps == net.m else leaf or max_flow(replace(net, m=caps))
    if flow.value != sum(caps, Fraction(0)) or flow.value != root.value:
        raise BalanceError("reassembled flow does not saturate the computed surplus levels")
    if not verify_property1(net, flow):
        raise BalanceError("reassembled flow violates the balance characterization")
    return flow, tuple(theta)


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
