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
``max(m - level, 0)`` proves the guess by the gate (below).

A guess that fails the gate is repaired from its own flow: the flow's
maximal min cut splits each class it crosses into the part inside the cut
and the part outside, goods following their side.  The classes are merged
again as above, re-levelled and proved by one more max-flow.  A class whose
goods cost more than its buyers hold proves that the price mass cannot sell
(no buyer outside a lowest class wants its goods, or the classes would have
merged), and classes that repeat the last round's would rerun its
max-flow; either ends the repair, as does a cap of ``n + 1`` rounds.

Then the same loop runs split rounds: Fujishige's decomposition algorithm,
breadth-first.  It restarts from one class per connected component, and one
max-flow of the whole network charges each class the price mass that no
flow sells (none where the mass sells), so a class of value ``F`` (what the
max-flow sells in it) gets the level ``(m(B) - F) / |B|``.  Classes stop
merging.  Each round runs one max-flow with every class on its own edges
only, so the flow is each class's trial at its level.  A class whose trial
fails is split by the maximal min cut into a low-surplus part (inside the
cut, with its goods) and a high-surplus part.  The high goods sell out in
the trial to high buyers alone, and no interest edge runs from a low good
to a high buyer (an unbounded arc across a finite cut), so the high part
sells its whole price mass and the charge passes to the low part.  A class
whose trial passes saturates its buyers and lies inside the cut whole.
Both parts of a split hold buyers, so within ``n`` rounds one splits
nothing, and its levels are proved on the whole network: by that round's
max-flow when every class still holds its component's edges, by the whole
max-flow when every level is 0, and by one more max-flow otherwise.  A
degenerate split (a part without buyers) or a proof that fails can only
come from a broken flow core; the loop then raises ``BalanceError``, at the
proof or after ``2n + 3`` rounds.

Every path ends in the same gate, which *proves* the output balanced however
its levels were found: every level lies in ``[0, m_i]``, and the flow
saturates every capacity, has the value of a maximum flow (the price mass
while guessing, the whole max-flow's in split rounds) and passes the
characterization.  The balanced surpluses are unique, so every path returns
the Edmonds-Karp flow on the same network.  A hit costs one max-flow, a
repair one per round, and the split rounds add the whole max-flow, at most
``n`` rounds and the proof: at most ``2n + 3`` per call.

The rounds run in integers.  Every money and price is an integer over the
network's ``scale``, so a class's level is ``cash / (size * scale)``.
Over ``scale * mult``, with ``mult`` the lcm of each class's size divided by
its gcd with the class's cash, every level, cap and price is an integer.
The round's max-flow gets that integer network, over ``scale * mult``,
and answers in integers, and the gate reads it so: the value against the
target times ``mult``, and property 1 on the network itself, whose
budgets it takes to the flow's scale.  A network scaled by a positive
integer keeps its Edmonds-Karp paths and cut, so the proved flow is
returned as it stands, over ``scale * mult`` like its network, and so are
its surpluses.
That scale is the least common denominator of the prices, the money and
the surpluses, so no ``Fraction`` is built: a market keeps the flow and
surpluses as integers until a value leaves the solve.

A round reads its classes as root labels and sums each class's cash and
size over them; it reads them again only after a merge.  Each surplus is
its class's ``cash * mult // size``, and ``fits`` reads it so.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from .flownet import FlowResult, MarketNetwork, _count, max_flow, surpluses


class BalanceError(AssertionError):
    """Internal defect: a computed flow failed the balancedness gate."""


def verify_property1(net: MarketNetwork, flow: FlowResult) -> bool:
    """Residual-reachability check that characterizes balanced max-flows.

    ``net`` holds the full budgets in its own unit, over any scale that
    divides ``flow.scale`` (``surpluses`` takes them to the flow's).  True
    iff for every buyer ``i``, every buyer reachable from ``i`` in the
    residual graph (source and sink excluded) has surplus <= ``theta_i``.
    One residual hop leads from a buyer through a good that pays them to
    any buyer interested in that good.  Reachability is the transitive
    closure of these hops and ``<=`` is transitive, so it suffices that
    every buyer a good pays has at least the largest surplus ``top[j]``
    among the good's interested buyers.
    """
    theta = surpluses(net, flow)
    top = {}
    for (i, j) in net.edges:
        top[j] = max(top.get(j, theta[i]), theta[i])
    return all(theta[i] >= top[j] for (i, j) in net.edges if (i, j) in flow.pair_flow)


def balanced_flow(net: MarketNetwork, hint=(None, ())):
    """Compute the balanced flow.  Returns ``(flow, theta)`` in ints over ``flow.scale``.

    ``hint`` is the market's previous ``(flow, theta)``; without a usable
    previous flow (none, or a ``theta`` of the wrong length) the guess starts
    from one class per connected component.  The guess, its repair and the
    split rounds are the module docstring's.  An edgeless buyer stays alone
    (its surplus is its money), a good joins a class only through a previous
    pair that is still an edge (any edge without a usable previous flow), and
    a class with goods but no buyer counts as the lowest.  Only the order
    and ties of ``theta`` matter, so it may hold any exact values: ints over
    any one scale, or ``Fraction``s.  Levels, caps and prices are integers
    over ``scale * mult`` in every round (``scale`` is the network's), the
    flow core gets them as ints over that scale, and the returned flow and
    ``theta`` are its integer answer over ``flow.scale = scale * mult``: the
    Edmonds-Karp flow of ``replace(net, m=caps)`` and that network, both
    times ``mult``.
    Each call counts one ``"hits"`` (the first round proves it),
    ``"repairs"`` or ``"misses"`` (the split rounds ran) in the open
    ``counting()`` tally: one max-flow for a hit, at most ``n + 1`` for a
    repair and ``2n + 3`` in all.  A network without buyers returns a
    max-flow and ``()``.
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
        root = [find(x) for x in range(n + g)]
        cash, size = [0] * (n + g), [0] * (n + g)  # per root: m(B) - p(G) + charge and |B|, scaled
        for r, x in zip(root, money):
            cash[r] += x
            size[r] += 1
        for r, x in zip(root[n:], price):
            cash[r] -= x
        for r, x in charge.items():
            cash[r] += x
        merged = whole is None  # split rounds never merge
        changed = False
        while merged:
            merged = False
            for (i, j) in edges:
                a, b = find(i), find(n + j)
                if a != b and (not size[b] or cash[a] * size[b] > cash[b] * size[a]):
                    parent[a] = b
                    cash[b] += cash[a]
                    size[b] += size[a]
                    merged = changed = True
        if changed:
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
        mult = lcm(*[size[r] // gcd(cash[r], size[r]) for r in first if size[r]])
        theta = [cash[r] * mult // size[r] for r in root[:n]]
        caps = tuple([max(x * mult - t, 0) for x, t in zip(money, theta)])
        prices = price if mult == 1 else tuple([x * mult for x in price])
        final = classes == last  # a split round that split nothing: prove its levels
        inner = net.edges if whole is None or final else frozenset(
            e for e in edges if root[e[0]] == root[n + e[1]])  # every class on its own edges
        full = len(inner) == len(net.edges)
        reuse = whole is not None and full and mult == 1 and caps == money
        flow = whole if reuse else max_flow(MarketNetwork(prices, caps, inner, scale * mult))
        fits = all(0 <= t <= x * mult for t, x in zip(theta, money))
        if full and fits and flow.value == target * mult == sum(caps) and verify_property1(
                net, flow):
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


def scale_flow(flow, theta, x, buyers, goods, net, keep):
    """A closed block's balanced flow and surpluses after its prices scale by ``x``.

    ``flow`` and ``theta`` are the balanced flow and surpluses before the
    move, ``theta`` in ints over ``scale = flow.scale``, and ``net`` is the
    network after it.  Budgets are flexible, of the form ``m_i = 1 +
    alpha_i``: multiplying the block's prices by ``x`` turns each block
    budget into ``1 + x*alpha_i``, so each block surplus moves to ``1 +
    x*(theta_i - 1)`` and every other surplus stays.  With ``x = a/b`` in lowest terms that is
    ``scale*b + a*(theta_i - scale)`` over ``scale*b`` for a block buyer and
    ``theta_i*b`` for the others.  The block must be closed in ``net``: no
    interest edge may cross its boundary (checked).  This is the rising
    loop's update at a tight event, in the solver's stage 0 and Stage II;
    ``perfbench/tracing.py`` wraps ``scale_flow`` where ``solver`` binds it
    and the benchmark reports it as a layer.

    When ``flow``'s network has the edges of ``net``, the block was closed
    there too and is a union of its components.  Edmonds-Karp runs component
    by component, and a positive factor on one component's capacities keeps
    its paths, so the balanced flow of ``net`` is ``flow`` with the block's
    pair flows times ``x``.  It keeps ``flow``'s residual graph, which gives
    its cut: the edges are the same, and a factor ``x > 0`` changes the sign
    of no arc and no money room.  Over
    ``flow.scale * b`` the block's amounts are multiplied by ``a`` and the
    others by ``b``, and one gcd takes everything to its least common
    denominator.  The scaled flow skips the max-flow but not the proof: its
    prices and budgets must be those of ``net`` (cross-multiplied), its
    value the price mass and the caps' sum, and it must pass property 1
    on ``net``.  When the edges differ (the move dropped edges of
    ``flow``'s network, which can reroute Edmonds-Karp outside the block),
    or ``keep`` is false (the caller rebalances anyway), ``flow`` is
    returned as it is, for the caller to rebalance.

    Returns ``(flow, theta)``.  For a scaled flow ``theta`` is over its
    ``flow.scale``.  For a flow returned as it is, ``theta`` is over
    ``scale * b``, not the flow's scale: the moved surpluses, exact values
    that serve only as the hint of the caller's rebalance.
    """
    for (i, j) in net.edges:
        if (i in buyers) != (j in goods):
            raise BalanceError(f"edge ({i},{j}) crosses the scaled block")
    a, b, scale = x.numerator, x.denominator, flow.scale
    common = scale * b
    theta = [common + a * (t - scale) if i in buyers else t * b for i, t in enumerate(theta)]
    if not keep or net.edges != flow.net.edges:
        return flow, tuple(theta)
    price = [q * a if j in goods else q * b for j, q in enumerate(flow.net.p)]
    caps = [c * a if i in buyers else c * b for i, c in enumerate(flow.net.m)]
    paid = [f * a if e[0] in buyers else f * b for e, f in flow.pair_flow.items()]
    d = gcd(common, *price, *caps, *theta, *paid)
    if d > 1:
        common //= d
        price, caps = [q // d for q in price], [c // d for c in caps]
        theta, paid = [t // d for t in theta], [f // d for f in paid]
    money = [c + t for c, t in zip(caps, theta)]
    amounts = zip((*net.p, *net.m), (*price, *money))
    if any(q * common != v * net.scale for q, v in amounts):
        raise BalanceError("a scaled flow does not price the network it scales to")
    value, price = sum(paid), tuple(price)
    scaled = MarketNetwork(price, tuple(caps), net.edges, common)
    flow = FlowResult(value, dict(zip(flow.pair_flow, paid)), scaled, flow.residual)
    if not (value == sum(price) == sum(caps) and verify_property1(net, flow)):
        raise BalanceError("a scaled balanced flow fails the gate")
    return flow, tuple(theta)
