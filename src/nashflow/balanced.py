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

The computation is divide and conquer on the buyer set: try the flat surplus
level ``delta = (total money - max-flow) / #buyers`` with one max-flow at
clamped sink capacities; if it is not achievable, the maximal min cut of that
test run splits the buyers into a low-surplus side (inside the cut, together
with its goods) and a high-surplus side, which are solved independently —
cross edges carry no flow in any balanced flow.  Every split leaves both
sides nonempty, so the recursion has at most ``2n - 1`` nodes; each costs at
most two max-flows and the reassembly one more, at most ``4n - 1`` in all.
The final reassembly is checked: the flow must saturate every
clamped sink capacity, match the unconstrained max-flow value, and pass the
residual-reachability characterization above, which together *prove* the
output is the balanced flow.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .flownet import FlowResult, MarketNetwork, max_flow


class BalanceError(AssertionError):
    """Internal defect: a computed flow failed the balancedness gate."""


def surpluses(net: MarketNetwork, flow: FlowResult):
    return tuple(net.m[i] - flow.buyer_flow[i] for i in range(net.n))


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
    root_value = _solve(frozenset(range(n)), frozenset(range(net.g)), net, theta)
    caps = [net.m[i] - theta[i] for i in range(n)]
    flow = max_flow(replace(net, m=tuple(caps)))
    if flow.value != sum(caps, Fraction(0)) or flow.value != root_value:
        raise BalanceError("reassembled flow does not saturate the computed surplus levels")
    if not verify_property1(net, flow):
        raise BalanceError("reassembled flow violates the balance characterization")
    return flow, tuple(theta)


def _solve(buyers, goods, net, theta):
    """Fill ``theta`` for the given block; return the block's max-flow value."""
    if not buyers:
        return Fraction(0)
    sub = net.sub(buyers, goods)
    value = max_flow(sub).value
    delta = (sum((net.m[i] for i in buyers), Fraction(0)) - value) / len(buyers)
    if delta == 0:
        for i in buyers:
            theta[i] = Fraction(0)
        return value
    caps = [max(net.m[i] - delta, Fraction(0)) if i in buyers else Fraction(0) for i in range(net.n)]
    trial = max_flow(replace(sub, m=tuple(caps)))
    if trial.value == value and all(net.m[i] >= delta for i in buyers):
        for i in buyers:
            theta[i] = delta
        return value
    low_b = set(trial.far_side[0]) & set(buyers)
    low_g = set(trial.far_side[1]) & set(goods)
    if not low_b or low_b == set(buyers):
        raise BalanceError("degenerate split in balanced-flow recursion")
    lo = _solve(frozenset(low_b), frozenset(low_g), net, theta)
    hi = _solve(frozenset(buyers - low_b), frozenset(goods - low_g), net, theta)
    if lo + hi != value:
        raise BalanceError("split lost flow value")
    return value


def scale_flow(net: MarketNetwork, flow: FlowResult, x, buyers=None, goods=None):
    """Scale a self-contained block's prices, budgets, and flow by ``x``.

    Buyer budgets here are flexible, of the form ``m_i = 1 + alpha_i``; the
    scaled budget is ``1 + x*alpha_i``, prices of the block's goods multiply
    by ``x``, and the block's flow multiplies by ``x``.  The scaled flow is
    again a max-flow of the scaled network and balancedness is preserved:
    each block surplus moves as ``theta_i(x) = 1 + x*(theta_i - 1)``.  The
    block must be closed: no interest edge may cross its boundary (checked).

    Returns ``(net', flow', theta')``.
    """
    x = Fraction(x)
    buyers = set(range(net.n)) if buyers is None else set(buyers)
    goods = set(range(net.g)) if goods is None else set(goods)
    for (i, j) in net.edges:
        if (i in buyers) != (j in goods):
            raise ValueError(f"edge ({i},{j}) crosses the scaled block")
    p = tuple(net.p[j] * x if j in goods else net.p[j] for j in range(net.g))
    m = tuple(1 + x * (net.m[i] - 1) if i in buyers else net.m[i] for i in range(net.n))
    pair_flow = {
        (i, j): (f * x if i in buyers else f) for (i, j), f in flow.pair_flow.items()
    }
    scaled_net = MarketNetwork(p, m, net.edges)
    good_flow = [flow.good_flow[j] * x if j in goods else flow.good_flow[j] for j in range(net.g)]
    buyer_flow = [flow.buyer_flow[i] * x if i in buyers else flow.buyer_flow[i] for i in range(net.n)]
    scaled = FlowResult(
        value=sum(good_flow, Fraction(0)),
        good_flow=good_flow,
        pair_flow=pair_flow,
        buyer_flow=buyer_flow,
        far_side=flow.far_side,
        net=scaled_net,
    )
    theta = surpluses(scaled_net, scaled)
    return scaled_net, scaled, theta
