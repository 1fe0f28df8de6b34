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
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .flownet import FlowResult, MarketNetwork, max_flow


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


def balanced_flow(net: MarketNetwork):
    """Compute the balanced flow.  Returns ``(flow, theta)``, both exact."""
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
