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
one ``rebalance`` for every edge event.  All of it is integers.  Prices
are ints over one price scale, their least common denominator, and each
best ratio is a reduced integer pair; a move by ``x = a/b`` multiplies the
block's prices by ``a`` and the other prices and the scale by ``b``, one
gcd reduces them, and each block ratio ``num/den`` becomes ``num*b /
(den*a)``.  Budgets come from the subclass as integer pairs, and
``Market.network()`` hands ``balanced_flow`` the active network in ints
over the least common denominator of its prices and budgets, the network's
``scale``.  The surpluses are integers over the flow's scale
(``balanced_flow``'s), one denominator for both.  A ``Fraction`` is built
only where a value leaves the market (the views ``p`` and ``gamma``, a
trace, a statistic, an allocation) and for each event's factor ``x``.  The
kernel owns the edge rule, so a phase end re-derives nothing: the market's
edges stay its best-ratio edges, and a caller rebalances at a phase end
only where the phase changed the network its flow is balanced on.  The
kernel runs in two directions and under two kinds of budget:

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
every budget is exactly spent.  After each phase it re-derives the ratio
and edges of every buyer the move left with no edge (a buyer that spends
nothing can lose every edge to a rising move), then rebalances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .balanced import balanced_flow
from .flownet import best_ratio, int_network, max_flow


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
    tops = [max(col) for col in zip(*u)]
    u_max = max(tops)
    if u_max == 0:
        raise FisherError("cannot price a market with all-zero utilities")
    least = min(money)
    if least <= 0:
        raise FisherError("budgets must be positive")
    scale = Fraction(least, len(tops) * u_max)
    return [top * scale for top in tops]


def _phase_cap(u, money):
    bits = sum(e.bit_length() for row in u for e in row)
    bits += sum(x.numerator.bit_length() + x.denominator.bit_length() for x in money)
    n, g = len(u), len(u[0])
    return 64 + 8 * n * n * (bits + g)


def move_prices(price, scale, goods, a, b):
    """Prices ``price / scale`` with those of ``goods`` times ``a/b``.

    The goods' prices are multiplied by ``a``, the other prices and the
    scale by ``b``, and one gcd takes them all to their least common
    denominator.  Returns ``(price, scale)``.
    """
    price = [q * a if j in goods else q * b for j, q in enumerate(price)]
    scale *= b
    d = gcd(scale, *price)
    if d > 1:
        scale //= d
        price = [q // d for q in price]
    return price, scale


def _scale(market, block, goods, x):
    """Multiply the block's prices by ``x`` and its buyers' best ratios by ``1/x``.

    The move takes every edge with exactly one end in the block below best,
    so it drops them; a dropped edge never carries flow (checked).  With
    ``x = a/b``, each block ratio ``num/den`` becomes ``num*b / (den*a)``,
    reduced.
    """
    crossing = {(i, j) for (i, j) in market.edges if (i in block) != (j in goods)}
    if any(e in market.flow.pair_flow for e in crossing):
        raise FisherError("an edge cut from the block still carries flow")
    market.edges -= crossing
    a, b = x.numerator, x.denominator
    market.price, market.price_scale = move_prices(
        market.price, market.price_scale, goods, a, b)
    ratio = market.ratio
    for i in block:
        num, den = ratio[i]
        num, den = num * b, den * a
        d = gcd(num, den)
        ratio[i] = (num // d, den // d)


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
    is its ``best_ratio`` over the targets at the market's integer prices;
    the running minimum over buyers is an integer pair ``N/D`` compared by
    cross-multiplying.
    """
    if ascending:
        buyers, targets = block, market.active_goods - goods
    else:
        buyers, targets = market.active_buyers - block, goods
    u, price, scale, ratio = market.u, market.price, market.price_scale, market.ratio
    targets = [(j, price[j]) for j in sorted(targets)]
    num = den = None
    pairs = []
    for i in sorted(buyers):
        bn, bd, ties = best_ratio(u[i], targets, scale)
        if not ties:
            continue
        rn, rd = ratio[i][0] * bd, ratio[i][1] * bn
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
            u, price, scale, ratio = market.u, market.price, market.price_scale, market.ratio
            tied = [(i, j) for (i, j) in pairs
                    if u[i][j] * ratio[i][1] * scale == ratio[i][0] * price[j]]
            market.edges.update(tied)
            return goods, iteration if ascending else iteration - 1
        if iteration > cap:
            raise FisherError("price phase exceeded its iteration budget")
        _scale(market, block, goods, x)
        market.edges |= set(pairs)
        market.rebalance()
        block |= market.flow.residual_reach(block, reverse=ascending)
        goods = _block_goods(market, block, ascending)
        market.log("edge", iteration, x=x, pairs=pairs)


def _rebuild(market, buyers=None):
    """Best ratios and best-ratio edges of ``buyers``, then a rebalance.

    By default ``buyers`` is the active block and its edges are derived
    afresh: at start prices and after a thaw.  After a fixed-budget phase it
    names the buyers the move left with no edge, whose edges join the rest;
    elsewhere the kernel keeps both exact.  Goods outside the active block
    keep their prices: a group leaves it only when no buyer left in it
    values the group's goods, so its buyers' ratios and edges stay inside
    it without zeroing those prices.
    """
    if buyers is None:
        buyers, market.edges = market.active_buyers, set()
    scale = market.price_scale
    priced = [(j, q) for j, q in enumerate(market.price) if q > 0]
    for i in sorted(buyers):
        num, den, ties = best_ratio(market.u[i], priced, scale)
        if not ties:
            raise FisherError("an active buyer values no active good")
        d = gcd(num, den)
        market.ratio[i] = (num // d, den // d)
        market.edges.update([(i, j) for j in ties])
    market.rebalance()


class Market:
    """The market that ``_price_phase`` and ``_rebuild`` work on.

    Prices are ints over one ``price_scale``, their least common
    denominator: ``p_j = price[j] / price_scale``.  Each best ratio
    ``gamma_i`` is a reduced integer pair ``ratio[i] = (num, den)``.  A
    subclass supplies ``budgets()``, every buyer's budget as an integer pair
    ``(num, den)``, and ``log(event, iteration, **fields)``.  ``theta``
    holds every buyer's surplus as an int over ``flow.scale``, and
    ``flow.net`` is the network the flow is balanced on, over the same
    scale.  A rebalance assigns a new ``flow`` and ``theta`` whole, leaving
    the old ones as they were.  ``balanced_flow`` reads only the order and
    ties of its hint, so a caller may set ``theta`` to any exact values
    (``Fraction``s, or ints over another scale) as a hint, but only right
    before it rebalances.  ``trace`` is the event log, or ``None`` when the
    market keeps none.  The views ``p`` and ``gamma`` build ``Fraction``s
    for where a value leaves the market; no phase reads them.
    """

    def __init__(self, u, p):
        n = len(u)
        self.u = u
        self.price_scale = scale = lcm(*[q.denominator for q in p])
        self.price = [q.numerator * (scale // q.denominator) for q in p]
        self.ratio = [None] * n
        self.edges = set()
        self.flow, self.theta = None, (0,) * n
        self.active_buyers, self.active_goods = set(range(n)), set(range(len(p)))
        self.trace = None

    @property
    def p(self):
        """The prices, as ``Fraction``s."""
        scale = self.price_scale
        return [Fraction(q, scale) for q in self.price]

    @property
    def gamma(self):
        """The best ratios, as ``Fraction``s (``None`` before the first rebuild)."""
        return [r and Fraction(*r) for r in self.ratio]

    def l1(self):
        """The surpluses' sum, as a ``Fraction``."""
        return Fraction(sum(self.theta), self.flow.scale)

    def l2(self):
        """The sum of the squared surpluses, as a ``Fraction``."""
        scale = self.flow.scale
        return Fraction(sum([t * t for t in self.theta]), scale * scale)

    def network(self):
        """The active sub-market's network (``int_network``).

        Inactive goods and buyers get 0 and lose their edges.
        """
        buyers, goods = self.active_buyers, self.active_goods
        price, money = self.price, self.budgets()
        if len(buyers) < len(money) or len(goods) < len(price):
            price = [q if j in goods else 0 for j, q in enumerate(price)]
            money = [x if i in buyers else (0, 1) for i, x in enumerate(money)]
            edges = [(i, j) for (i, j) in self.edges if i in buyers and j in goods]
        else:
            edges = self.edges
        return int_network(price, self.price_scale, money, edges)

    def rebalance(self):
        """Balanced flow of the active sub-market under the market's budgets.

        The previous ``(flow, theta)`` hints ``balanced_flow``; before the
        first flow that is ``(None, theta)``, one class per connected
        component.  The market takes the flow and every surplus over the
        flow's scale (an inactive buyer's is 0), and every active good must
        still sell in full: the flow's value is its network's price mass.
        """
        self.flow, self.theta = balanced_flow(self.network(), (self.flow, self.theta))
        if self.flow.value != sum(self.flow.net.p):
            raise FisherError("active goods can no longer fully sell")


class _FixedBudgets(Market):
    """Fixed-budget market over all buyers and goods, run by ``_price_phase``."""

    def __init__(self, u, money, p):
        super().__init__(u, p)
        self._budgets = [(m.numerator, m.denominator) for m in money]
        self.phase = 0
        self.trace = []

    def budgets(self):
        return self._budgets

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
        max-flow; otherwise the far side holds the maximal tight sets.  Sums
        are ints over a network's scale: a step's over the trial network,
        whose block goods cost ``x`` times their price, so the next factor
        is ``x (m(far buyers) - p(far goods outside)) / p(far block goods)``.
        """
        start = int_network(self.price, self.price_scale, self._budgets, ())
        mass = sum([start.p[j] for j in goods])
        if mass <= 0:
            raise FisherError("tight search needs a priced, wanted target set")
        x = Fraction(sum([start.m[i] for i in block]), mass)
        if x_edge is not None and x_edge < x:
            x = x_edge
        edges = [e for e in self.edges if (e[0] in block) == (e[1] in goods)]
        for _ in range(len(self.price) + 3):
            price, scale = move_prices(
                self.price, self.price_scale, goods, x.numerator, x.denominator)
            res = max_flow(int_network(price, scale, self._budgets, edges))
            far_buyers, far_goods = res.far_side
            p, m = res.net.p, res.net.m
            if res.value == sum(p):
                break
            inside = sum([p[j] for j in far_goods & goods])
            if inside <= 0:
                raise FisherError("a set of goods outside the target cannot sell")
            free = sum([m[i] for i in far_buyers]) - sum([p[j] for j in far_goods - goods])
            x_new = Fraction(x.numerator * free, x.denominator * inside)
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
    _rebuild(market)
    while True:
        theta, scale = market.theta, market.flow.scale
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
        _rebuild(market, market.active_buyers - {i for (i, _) in market.edges})
