"""Price phases, and equilibrium pricing for markets with fixed budgets.

Buyers bring money, each good has one unit of supply, and an equilibrium is
a positive price vector whose best-ratio money flow both sells every good
and exhausts every budget.  Every price move in the package is one kernel,
``_price_phase``: it scales the prices of one block of buyers' goods
uniformly and stops at the first of two events:

* an edge event: a utility/price ratio outside the block ties a best ratio;
  the attaining edges join the network, the balanced flow is recomputed
  under the market's budgets (guessed from the previous one and proved by
  one max-flow when the guess holds, repaired from that max-flow's min cut
  when it does not), and buyers that the residual graph
  connects to the block are absorbed into it;
* the caller's stop event, which ends the phase.

The next edge event is found in integers: utility-per-price ratios are
compared by cross-multiplying numerators and denominators, and a
``Fraction`` is built only for the nearest one.

The kernel works on a ``Market``: prices, best ratios, best-ratio edges,
the balanced flow and its surpluses, and the active buyers and goods, with
one ``rebalance`` for every edge event.  The flow and the surpluses are
integers over a scale (``balanced_flow``'s), and a ``Fraction`` is built
from them only where a value leaves the market: a trace, a statistic, an
allocation.  The kernel owns the edge rule, so a phase end re-derives
nothing: the market's edges stay its best-ratio edges, and a caller
rebalances at a phase end only where the phase changed the network its
flow is balanced on.  The kernel runs in two directions and under two
kinds of budget:

* rising, fixed budgets (this module): the block is the buyers with the
  maximum surplus and every good they want; the phase stops when some set
  of goods becomes exactly as expensive as all the money its buyers hold (a
  tight event, found by a descent over min cuts from the next edge factor);
* rising, flexible budgets ``m_i = 1 + c_i/gamma_i`` (stage 0 and Stage II
  in ``solver``): the phase stops when a block deficit would reach zero,
  and the stop scales the closed block's balanced flow with its prices
  (``balanced.scale_flow``);
* falling, flexible budgets (Stage I in ``solver``): the block is the
  buyers with the most negative deficit and the goods only they want; the
  phase stops when no outside buyer can tie or a deficit reaches zero.

A fixed-budget run starts from provably small prices (every good priced at
its best column utility times a common factor small enough that any single
buyer could afford everything) and runs rising phases.  Surpluses never
increase, the maximum surplus drops geometrically, and the run ends when
every budget is exactly spent.  It rebuilds after each phase: a buyer that
spends nothing can lose every edge to a rising move.
"""

from __future__ import annotations

from fractions import Fraction

from .balanced import balanced_flow
from .flownet import MarketNetwork, bang_per_buck, best_ratio, max_flow


class FisherError(AssertionError):
    """Internal defect: a price phase or a fixed-budget run left its invariants."""


def initial_prices(u, money):
    """Start prices: column max scaled so any buyer can afford all goods.

    ``p_j = max_i u[i][j] * min_i m_i / (g * max_ij u[i][j])``.  Every good
    with a positive column is some buyer's best ratio (its column maximizer
    attains the common best ratio there), and the total price mass is at most
    the poorest budget, so every good can fully sell from the start.  Goods
    no one values get price 0 and never enter the network.
    """
    u_max = max(max(row) for row in u)
    if u_max == 0:
        raise FisherError("cannot price a market with all-zero utilities")
    least = min(money)
    if least <= 0:
        raise FisherError("budgets must be positive")
    g = len(u[0])
    scale = Fraction(least, g * u_max)
    return [max(row[j] for row in u) * scale for j in range(len(u[0]))]


def _phase_cap(u, money):
    bits = sum(e.bit_length() for row in u for e in row)
    bits += sum(x.numerator.bit_length() + x.denominator.bit_length() for x in money)
    n, g = len(u), len(u[0])
    return 64 + 8 * n * n * (bits + g)


def _scale(market, block, goods, x):
    """Multiply the block's prices by ``x`` and its buyers' best ratios by ``1/x``.

    The move takes every edge with exactly one end in the block below best,
    so it drops them; a dropped edge never carries flow (checked).
    """
    crossing = {(i, j) for (i, j) in market.edges if (i in block) != (j in goods)}
    if any(e in market.flow.pair_flow for e in crossing):
        raise FisherError("an edge cut from the block still carries flow")
    market.edges -= crossing
    for j in goods:
        market.p[j] *= x
    for i in block:
        market.gamma[i] /= x


def _block_goods(market, block, ascending):
    """The block's goods, read off the edges without changing them.

    Rising, every good its buyers want; falling, only those no outside one wants.
    """
    edges = market.edges
    goods = {j for (i, j) in edges if i in block}
    if not ascending:
        goods -= {j for (i, j) in edges if i not in block}
    return goods


def _next_tie(market, block, goods, ascending):
    """Price factor of the block's next edge event and every pair tying there.

    The event is the nearest ``r = min gamma_i * p_j / u_ij`` with
    ``u_ij > 0``: over block buyers and outside goods when prices rise
    (factor ``r``), over outside buyers and block goods when they fall
    (factor ``1/r``).  Returns ``(None, [])`` when no such pair exists.
    Buyer ``i``'s first tie is at ``gamma_i * den / num``, where ``num/den``
    is its ``best_ratio`` over the targets; the running minimum over buyers
    is an integer pair ``N/D`` compared by cross-multiplying.
    """
    if ascending:
        buyers, targets = block, market.active_goods - goods
    else:
        buyers, targets = market.active_buyers - block, goods
    u, p, gamma = market.u, market.p, market.gamma
    targets = [(j, p[j].numerator, p[j].denominator) for j in sorted(targets)]
    num = den = None
    pairs = []
    for i in sorted(buyers):
        bn, bd, ties = best_ratio(u[i], targets)
        if not ties:
            continue
        rn, rd = gamma[i].numerator * bd, gamma[i].denominator * bn
        if num is None or num * rd > rn * den:
            num, den, pairs = rn, rd, [(i, j) for j in ties]
        elif num * rd == rn * den:
            pairs.extend((i, j) for j in ties)
    if num is None:
        return None, pairs
    return (Fraction(num, den) if ascending else Fraction(den, num)), pairs


def _price_phase(market, block, ascending, stop):
    """Move one block's prices up or down until ``stop`` ends the phase.

    ``market`` is a ``Market``: its ``rebalance`` recomputes the balanced
    flow under its own budgets and ``log`` records events.  ``block`` is the
    phase's buyer set and grows in place.  Each turn finds the next edge
    event and asks ``stop(x, block, goods, iteration)``, which may end the
    phase with an event of its own (``x`` is ``None`` when no edge can
    tie); the turn's pairs that tie at the prices it leaves join the edges,
    with no rebalance.  Otherwise the block's prices move by ``x``, the tied edges
    join, the flow is rebalanced, and the block absorbs every buyer the
    residual graph connects to it: buyers that reach it when rising, buyers
    it reaches when falling.  Returns ``(goods, iterations)``, counting
    turns when rising (the stop turn included) and edge events when falling.
    """
    n, g = len(market.u), len(market.u[0])
    cap = 4 * g + 4 if ascending else 4 * n * g + 4
    goods = _block_goods(market, block, ascending)
    iteration = 0
    while True:
        iteration += 1
        x, pairs = _next_tie(market, block, goods, ascending)
        if x is not None and not (x > 1 if ascending else 0 < x < 1):
            raise FisherError("an edge event must move prices the phase's way")
        if stop(x, block, goods, iteration):
            u, p, gamma = market.u, market.p, market.gamma
            market.edges |= {(i, j) for (i, j) in pairs if u[i][j] == gamma[i] * p[j]}
            return goods, iteration if ascending else iteration - 1
        if iteration > cap:
            raise FisherError("price phase exceeded its iteration budget")
        _scale(market, block, goods, x)
        market.edges |= set(pairs)
        market.rebalance()
        block |= market.flow.residual_reach(block, reverse=ascending)
        goods = _block_goods(market, block, ascending)
        market.log("edge", iteration, x=x, pairs=pairs)


def _rebuild(market):
    """Best ratios and best-ratio edges of the active block, then a rebalance.

    Runs only at start prices, after a thaw and after a fixed-budget phase;
    elsewhere the kernel keeps both exact.  Goods outside the active block
    keep their prices: a group leaves it only when no buyer left in it
    values the group's goods, so its buyers' ratios and edges stay inside
    it without zeroing those prices.
    """
    buyers = sorted(market.active_buyers)
    try:
        gamma, pairs = bang_per_buck([market.u[i] for i in buyers], market.p)
    except ValueError as exc:
        raise FisherError("an active buyer values no active good") from exc
    for i, best in zip(buyers, gamma):
        market.gamma[i] = best
    market.edges = {(buyers[k], j) for (k, j) in pairs}
    market.rebalance()


class Market:
    """The market that ``_price_phase`` and ``_rebuild`` work on.

    A subclass supplies the budgets ``money`` and ``log(event, iteration,
    **fields)``.  ``theta`` holds every buyer's surplus as an int over the
    market's own ``scale``.  A rebalance assigns a new ``flow``, ``theta``
    and ``scale`` whole, leaving the old ones as they were; ``flow.net`` is
    the network the flow is balanced on, over ``flow.scale``, which is
    ``scale`` too unless a caller moved the surpluses alone.  ``trace`` is
    the event log, or ``None`` when the market keeps none.
    """

    def __init__(self, u, p):
        n = len(u)
        self.u, self.p = u, p
        self.gamma = [None] * n
        self.edges = set()
        self.flow, self.theta, self.scale = None, (0,) * n, 1
        self.active_buyers, self.active_goods = set(range(n)), set(range(len(p)))
        self.trace = None

    def l1(self):
        """The surpluses' sum, as a ``Fraction``."""
        return Fraction(sum(self.theta), self.scale)

    def l2(self):
        """The sum of the squared surpluses, as a ``Fraction``."""
        return Fraction(sum([t * t for t in self.theta]), self.scale * self.scale)

    def network(self):
        """The active sub-market's network: prices, budgets and edges."""
        buyers, goods = self.active_buyers, self.active_goods
        net = MarketNetwork(tuple(self.p), self.money, frozenset(self.edges))
        if len(buyers) < len(self.u) or len(goods) < len(self.p):
            net = net.sub(buyers, goods)
        return net

    def rebalance(self):
        """Balanced flow of the active sub-market under the market's budgets.

        The previous ``(flow, theta)`` hints ``balanced_flow``; before the
        first flow that is ``(None, theta)``, one class per connected
        component.  The market takes the flow and every surplus over the
        flow's scale (an inactive buyer's is 0), and every active good must
        still sell in full: the flow's value is its network's price mass.
        """
        self.flow, self.theta = balanced_flow(self.network(), (self.flow, self.theta))
        self.scale = self.flow.scale
        if self.flow.value != sum(self.flow.net.p):
            raise FisherError("active goods can no longer fully sell")


class _FixedBudgets(Market):
    """Fixed-budget market over all buyers and goods, run by ``_price_phase``."""

    def __init__(self, u, money, p):
        super().__init__(u, p)
        self.money = money
        self.phase = 0
        self.trace = []

    def log(self, event, iteration, **fields):
        entry = {"kind": "event", "phase": self.phase, "iteration": iteration,
                 "type": event, **fields}
        if event == "edge":
            entry.update(l1=self.l1(), l2=self.l2())
        self.trace.append(entry)

    def stop_at_tight(self, x_edge, block, goods, iteration):
        """End the phase when some set of goods goes tight before the next edge.

        A descent over min cuts finds the tight factor, the largest factor on
        the block's prices that keeps every good sellable on the network the
        move leaves, from the smaller of ``x_edge`` and ``m(block) /
        p(goods)``: that network closes the block and each of its buyers
        keeps an edge into its goods, so their buyers are the block.  A
        max-flow that leaves goods unsold moves it to the factor at which the
        far-side goods cost the far-side buyers' money: a far-side buyer with
        money is saturated and every good paying it is on the far side, so
        these are the cut goods' buyers.  If all sells at ``x_edge`` with no
        block good on the far side, the edge event comes first after one
        max-flow; otherwise the far side holds the maximal tight sets.
        """
        p, money = self.p, self.money
        mass = sum((p[j] for j in goods), Fraction(0))
        if mass <= 0:
            raise FisherError("tight search needs a priced, wanted target set")
        x = sum((money[i] for i in block), Fraction(0)) / mass
        if x_edge is not None and x_edge < x:
            x = x_edge
        edges = frozenset(e for e in self.edges if (e[0] in block) == (e[1] in goods))
        for _ in range(len(p) + 3):
            prices = tuple([q * x if j in goods else q for j, q in enumerate(p)])
            res = max_flow(MarketNetwork(prices, money, edges))
            far_buyers, far_goods = res.far_side
            if res.value == sum(res.net.p):
                break
            inside = sum((p[j] for j in far_goods & goods), Fraction(0))
            if inside <= 0:
                raise FisherError("a set of goods outside the target cannot sell")
            spent = sum((p[j] for j in far_goods - goods), Fraction(0))
            x_new = (sum((money[i] for i in far_buyers), Fraction(0)) - spent) / inside
            if not (1 <= x_new < x):
                raise FisherError("tight-factor descent failed to make progress")
            x = x_new
        else:
            raise FisherError("tight-factor descent did not converge")
        if not far_goods & goods:
            if x != x_edge:
                raise FisherError("no block good is tight at the tight factor")
            return False
        if x <= 1:
            raise FisherError("tight factor must exceed 1 while surpluses remain")
        _scale(self, block, goods, x)
        self.log("tight", iteration, x=x,
                 tight_goods=sorted(far_goods), tight_buyers=sorted(far_buyers))
        return True


def fisher_equilibrium(u, money):
    """Exact equilibrium of the fixed-budget market.

    Returns ``(p, x, trace)``: positive prices for wanted goods (0 for goods
    no one values), the allocation matrix with ``x[i][j]`` the fraction of
    good ``j`` sold to buyer ``i``, and the run's trace: one ``state`` entry
    per phase boundary and one ``event`` entry per edge or tight event.
    """
    money = tuple(Fraction(x) for x in money)
    market = _FixedBudgets(u, money, initial_prices(u, money))
    cap = _phase_cap(u, money)
    while True:
        _rebuild(market)
        theta, scale = market.theta, market.scale
        market.trace.append(
            {
                "kind": "state", "phase": market.phase, "p": tuple(market.p),
                "theta": tuple([Fraction(t, scale) for t in theta]),
                "l1": market.l1(), "l2": market.l2(),
            }
        )
        if not any(theta):
            return tuple(market.p), market.flow.allocation(), market.trace
        market.phase += 1
        if market.phase > cap:
            raise FisherError("phase count exceeded the safety cap")
        peak = max(theta)
        block = {i for i, t in enumerate(theta) if t == peak}
        _price_phase(market, block, True, market.stop_at_tight)
