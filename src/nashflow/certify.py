"""Independent checkers: the one definition of a valid answer.

Each verdict is re-derived from the instance and the claimed object alone,
never from solver state.  ``check_kkt`` takes a feasible answer's ``p``,
``x`` and ``v``, ``check_feasibility_witness`` its witness prices, and the
``verify_*`` functions an infeasible answer's certificates.  The solver and
``nashflow check`` (on solution files produced elsewhere) both call them.
The witness check reads each buyer's surplus from one balanced flow; every
other verdict costs at most one max-flow.
"""

from __future__ import annotations

from fractions import Fraction

from .balanced import balanced_flow
from .flownet import build_network, max_flow
from .instance import BargainingInstance, preprocess


def check_equilibrium(inst: BargainingInstance, p) -> tuple[bool, str]:
    """One max-flow equilibrium test for positive prices.

    ``p`` is an equilibrium of the flexible-budget market iff the best-ratio
    network routes the full price mass: every good sells out and every
    budget ``1 + c_i/gamma_i`` is spent.  Returns ``(True, "ok")`` or
    ``(False, reason)``.
    """
    p = [Fraction(v) for v in p]
    if len(p) != inst.g:
        return False, "price vector has the wrong length"
    if any(v <= 0 for v in p):
        return False, "prices must be positive"
    try:
        net = build_network(inst, p)
    except ValueError as exc:
        return False, str(exc)
    flow = max_flow(net)
    if flow.value != sum(flow.net.p):
        return False, "some good cannot sell at these prices"
    if flow.value != sum(flow.net.m):
        return False, "some budget cannot be spent at these prices"
    return True, "ok"


def check_kkt(inst: BargainingInstance, p, x, v) -> tuple[bool, str]:
    """Exact optimality check for a claimed feasible answer ``(p, x, v)``.

    Verifies feasibility of the allocation, market clearing for positively
    priced goods, and the stationarity inequalities
    ``p_j (v_i - c_i) >= u_ij`` with equality wherever ``x_ij > 0``.
    Sufficient for global optimality (the objective is concave), so a pass
    proves both feasibility of the game and optimality of ``x``.  Last, ``v``
    must be the utilities of ``x``.  Non-``Fraction`` inputs convert exactly;
    a false allocation entry counts as 0.  Stationarity is checked row by
    row: one integer loop for the inequality at every good, then equality on
    the row's support (its nonzero shares) only.  A failing row is scanned
    again pair by pair, which names its first failing pair; a row only the
    row pass fails would be a defect, and the check fails closed.
    """
    p = [q if isinstance(q, Fraction) else Fraction(q) for q in p]
    if len(p) != inst.g or len(x) != inst.n or any(len(row) != inst.g for row in x):
        return False, "shape mismatch"
    sold, util, support = [Fraction(0)] * inst.g, [Fraction(0)] * inst.n, []
    for i, row in enumerate(x):
        goods = []
        for j, share in enumerate(row):
            if share:
                if not isinstance(share, Fraction):
                    share = Fraction(share)
                num = share.numerator
                if num < 0:
                    return False, "negative allocation"
                if num:
                    sold[j] += share
                    util[i] += inst.u[i][j] * share
                    goods.append(j)
        support.append(goods)
    if any(q < 0 for q in p):
        return False, "negative price"
    for j in range(inst.g):
        if sold[j] > 1:
            return False, f"good {j} oversold"
        if p[j] > 0 and sold[j] != 1:
            return False, f"good {j} priced but not sold out"
    # With p_j = a/b and gain = gn/gd, p_j * gain vs u_ij is a*gn vs u_ij*b*gd.
    prices = [(q.numerator, q.denominator) for q in p]
    for i, (row, c, goods) in enumerate(zip(inst.u, inst.c, support)):
        gain = util[i] - c
        gn, gd = gain.numerator, gain.denominator
        if gn <= 0:
            return False, f"buyer {i} does not improve on the disagreement payoff"
        # Every inequality, then equality on the support.
        for (a, b), w in zip(prices, row):
            if a * gn < w * b * gd:
                break
        else:
            for j in goods:
                a, b = prices[j]
                if a * gn != row[j] * b * gd:
                    break
            else:
                continue
        # The row failed: the pair-by-pair scan names its first failing pair.
        for j, (a, b) in enumerate(prices):
            lhs, rhs = a * gn, row[j] * b * gd
            if lhs < rhs:
                return False, f"stationarity violated at ({i},{j})"
            if j in goods and lhs != rhs:
                return False, f"allocation ({i},{j}) is not on a tight pair"
        return False, f"buyer {i}: the row pass and the pair-by-pair scan disagree"
    if [a if isinstance(a, Fraction) else Fraction(a) for a in v] != util:
        return False, "claimed utilities do not match the allocation"
    return True, "ok"


def check_feasibility_witness(inst: BargainingInstance, p) -> tuple[bool, str]:
    """Check a claimed feasibility witness price vector.

    A witness has ``p_j = 0`` exactly on valueless goods (all-zero utility
    columns), positive prices elsewhere, every positively priced good able
    to sell out, and every buyer's balanced-flow surplus strictly below 1.
    Such prices prove the game feasible without exhibiting an allocation.
    """
    p = [Fraction(v) for v in p]
    if len(p) != inst.g:
        return False, "price vector has the wrong length"
    reduced, report = preprocess(inst)
    for j in range(inst.g):
        if j in report.removed_goods:
            if p[j] != 0:
                return False, f"valueless good {j} must be priced 0"
        elif p[j] <= 0:
            return False, f"good {j} must be priced positively"
    if reduced is None:
        return False, "a buyer with no valued good can never improve"
    pk = [p[j] for j in report.kept_goods]
    flow, theta = balanced_flow(build_network(reduced, pk))
    if flow.value != sum(flow.net.p):
        return False, "some good cannot sell at these prices"
    if any(t >= flow.scale for t in theta):
        return False, "a buyer's surplus reaches its full unit of money"
    return True, "ok"


def verify_lp_dual(inst: BargainingInstance, y, z) -> bool:
    """Check a dual certificate of infeasibility.

    The game is feasible iff some allocation gives every buyer a strictly
    positive gain, i.e. the optimum ``t*`` of "maximize t with gains at
    least t" is positive.  Any ``y, z >= 0`` with ``sum(y) = 1``,
    ``u_ij y_i <= z_j``, and ``sum(c_i y_i) >= sum(z_j)`` bounds ``t*`` by
    ``sum(z) - sum(c y) <= 0`` (weak duality), proving infeasibility.
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


def verify_convex_dual(
    inst: BargainingInstance, buyers=None, goods=None, p=None, zero_row=None
) -> bool:
    """Check a partition certificate of infeasibility.

    Two forms.  ``zero_row=i`` claims buyer ``i`` values nothing at all —
    immediately unbeatable.  Otherwise ``(buyers, goods, p)`` claims the
    market at positive prices ``p`` splits into a self-contained part and a
    remainder that cannot spend enough:

    1. every buyer outside the split has zero utility on split goods,
    2. every split buyer's best ratio is attained only on split goods,
    3. every non-split good sells out under ``p``, and the non-split
       buyers' money exceeds the non-split price mass by at least their
       count,
    4. at least one buyer lies outside the split.

    (1) and (2) together say no best-ratio edge crosses the split, so every
    max-flow sells the same non-split goods to the non-split buyers alone
    and (3) reads them off one max-flow; the excess in (3) is then the sum
    of the non-split buyers' surpluses.  Under (1)-(4) any allocation with
    all-positive gains would force the non-split buyers' money,
    ``sum(c_i / gamma_i)`` plus their unit budgets, to exceed the non-split
    price mass — contradicting (3).  Formally the conditions exhibit a ray
    on which the smooth dual of the underlying convex program diverges to
    minus infinity.
    """
    if zero_row is not None:
        if not 0 <= zero_row < inst.n:
            return False
        return all(v == 0 for v in inst.u[zero_row])
    if buyers is None or goods is None or p is None:
        return False
    split_b = set(buyers)
    split_g = set(goods)
    p = [Fraction(v) for v in p]
    if len(p) != inst.g or any(v <= 0 for v in p):
        return False
    if not (split_b <= set(range(inst.n)) and split_g <= set(range(inst.g))):
        return False
    rest_b = [i for i in range(inst.n) if i not in split_b]
    if not rest_b:
        return False
    for i in rest_b:
        for j in split_g:
            if inst.u[i][j] != 0:
                return False
    try:
        net = build_network(inst, p)
    except ValueError:
        return False
    if any((i in split_b) != (j in split_g) for (i, j) in net.edges):
        return False
    # Each good's flow is capped by its price, so the rest sells out exactly
    # when its flow reaches its price mass.  All three sums are ints over
    # the flow's scale.
    flow = max_flow(net)
    rest_flow = sum([f for (_, j), f in flow.pair_flow.items() if j not in split_g])
    rest_price = sum([q for j, q in enumerate(flow.net.p) if j not in split_g])
    money = sum([flow.net.m[i] for i in rest_b])
    return rest_flow == rest_price and money - rest_price >= len(rest_b) * flow.scale


def lp_dual_for_zero_row(inst: BargainingInstance, i) -> dict:
    """Dual certificate concentrated on a buyer who values nothing."""
    if not all(v == 0 for v in inst.u[i]):
        raise ValueError(f"buyer {i} has a positive utility entry")
    y = [Fraction(0)] * inst.n
    y[i] = Fraction(1)
    return {"y": y, "z": [Fraction(0)] * inst.g}
