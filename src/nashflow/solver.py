"""Two-stage exact solver for the bargaining game.

The game "maximize sum of log(v_i - c_i) over allocations of unit-supply
goods" is solved through an equivalent market: buyer ``i`` carries budget
``m_i = 1 + c_i/gamma_i`` (where ``gamma_i`` is their best utility-per-price
ratio at the current prices), and a price vector is an equilibrium when the
best-ratio money flow can simultaneously sell every good and exhaust every
budget.  At equilibrium the optimal allocation is read off the flow and
``v_i - c_i = gamma_i``: Stage II returns the utilities so, from the
ratios.

Stage 0 finds the start: the fixed-budget equilibrium at unit money.  It
is the flexible-budget market with every ``c_i`` held at 0, so the rising
loop of Stage II (below) reaches it from small prices; then the instance's
``c`` takes over.

Stage I decides feasibility.  Starting from that equilibrium, it
repeatedly picks the buyers with the *most negative* budget deficit
``beta_i = theta_i - 1`` (``theta`` = balanced-flow surplus) and lowers the
prices of the goods only they are interested in; each price drop either
ties a new utility/price ratio (the network gains edges and the set grows)
or exhausts outside interest, at which point the group is "frozen": set
aside as its buyers and goods, provably able to reach surplus deficit < 0
on its own.  The run ends infeasible when the remaining buyers' deficits sum
to a nonnegative value (their money cannot absorb their goods' prices no
matter what), or feasible when every remaining deficit is negative.

On the feasible branch the frozen groups are restored, each group's prices
scaled down (newest first) until its buyers' best ratios stay inside it
(``_scale_frozen``); that scales its deficits too, keeping them negative.
The reassembled prices make every deficit negative — a feasibility witness.

Stage II walks prices up.  It picks the buyers with *maximum* surplus, whose
goods sell to them alone, and raises that block's prices by the largest
factor that keeps every deficit negative; the block either collides with an
outside ratio (new edges, block grows) or some subset of goods becomes
exactly affordable (surplus hits zero there) and the phase ends.  When every
surplus is zero the prices are the equilibrium.

Every stage moves prices with the price-phase kernel of ``fisher``, falling
in Stage I and rising in stage 0 and Stage II, and asserts its structural
invariants as it goes; violations raise ``SolverError`` or ``FisherError``
(a defect, never a property of the input).  The kernel keeps ratios and
edges exact, so ``_rebuild`` runs only at stage 0's start and after a thaw;
each rebalance is a ``balanced_flow`` hinted with the previous flow.  A
rising phase's stop scales a closed block, and with it the block's balanced
flow (``scale_flow``); the phase keeps that flow, with no rebalance, when
the market's edges are still those of the last balanced network, and
rebalances before it records anything otherwise.

The market is integers (``fisher.Market``): prices over one price scale,
best ratios as integer pairs, and each budget ``1 + c_i/gamma_i`` as the
integer pair ``(num_i*cd + cn*den_i, num_i*cd)`` for ``c_i = cn/cd`` and
``gamma_i = num_i/den_i``.  The surpluses are integers over the flow's
``scale`` wherever a stage reads them, and the stages read them so:
``beta_i < 0`` is ``theta_i < scale``, Stage I's deficits sum to at least
0 when ``sum theta >= k * scale`` over its ``k`` active buyers, and the
rising stretch ``min -1/beta_i`` is ``scale / (scale - min theta)``.  Only
a hint, set right before a rebalance, is over anything else.  A tight
denominator is the price scale over its gcd with the price, and the
restore scales frozen groups' integer prices.  ``Fraction``s are built
only for each event's factor, for the hints of the ``c`` switch and the
restore, and where a value leaves the solve: the prices of the trace and
the answer, the allocation, the utilities (``gamma_i + c_i``, one per
buyer), the phase potentials and the certificates.

``solve`` counts its work in a ``counting()`` tally opened around
``initialize``, ``stage1`` and ``stage2``: ``stats["maxflows"]`` is the
max-flows run to find the answer, for either verdict, without the
self-verification's, ``stats["detail"]["augments"]`` their augmenting paths,
``stats["detail"]["peels"]`` those that peeled a saturating forest instead,
``stats["detail"]["guess"]`` the guess's hits, repairs and misses and
``stats["detail"]["scale_bits"]`` the bit length of the widest scale of a
flow the market held.  The detail stays out of ``solution_to_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

# ``Market.rebalance`` calls ``balanced_flow`` from ``fisher``; the name stays
# bound here because ``perfbench/tracing.py`` patches it in ``solver`` too.
from .balanced import balanced_flow, scale_flow
from .certify import (
    check_equilibrium,
    check_kkt,
    lp_dual_for_zero_row,
    verify_convex_dual,
    verify_lp_dual,
)
from .fisher import Market, _price_phase, _rebuild, _scale, initial_prices, move_prices
from .flownet import best_ratio, counting, flexible_budgets
from .instance import BargainingInstance, preprocess, to_json


class SolverError(AssertionError):
    """Internal defect: a solver invariant failed."""


def _clog2(v: int) -> int:
    return max(0, (int(v) - 1).bit_length())


def _phase_cap(inst) -> int:
    """Safety cap on the phases of one stage."""
    return 16 + 4 * inst.n * inst.n * inst.g * (inst.u_max.bit_length() + 8)


def maxflow_budget(n, g, u_max, c_max, mu) -> int:
    """Worst-case max-flow budget for a full solve (polynomial bound).

    ``mu`` is the ceiling of the reciprocal of the smallest initialization
    price; ``c_max``, an ``int`` or a ``Fraction``, is rounded up.
    """
    c_int = max(1, -(-c_max.numerator // c_max.denominator))
    terms = _clog2(n) + n * _clog2(max(u_max, 1)) + _clog2(c_int) + g * _clog2(max(int(mu), 1)) + 16
    return n**4 * g * terms


class SolverState(Market):
    """Solver state over the preprocessed instance ``inst``.

    Budgets are flexible, ``m_i = 1 + c_i/gamma_i`` over the state's ``c``.
    It starts at ``fisher.initial_prices`` with every ``c_i`` held at 0, so
    every budget is 1 until ``initialize`` switches ``c`` to the instance's.
    Stage I sets groups aside in ``frozen`` as ``(buyers, goods, theta,
    scale)``: the market's surpluses and their flow's scale when the group
    froze, which the thaw's rebalance takes as its hint.  The feasible
    branch keeps the restored witness prices in ``feasible_prices``.  The
    state keeps no ``trace`` until ``initialize`` gives it one.
    """

    def __init__(self, inst):
        super().__init__(inst.u, initial_prices(inst.u, [Fraction(1)] * inst.n))
        self.inst, self.c = inst, (Fraction(0),) * inst.n
        self.frozen, self.feasible_prices, self.stage = [], None, 0
        self.mu = -(-self.price_scale // min(self.price))  # every kept good is priced above 0
        self.stats = {"fisher_phases": 0, "stage1_phases": [], "stage2_phases": [],
                      "end_reasons": [], "tight_denominators": [], "scale_bits": 0}

    def budgets(self):
        """Each budget ``1 + c_i/gamma_i`` as an integer pair: ``flexible_budgets``."""
        return flexible_budgets(self.c, self.ratio)

    def rebalance(self):
        super().rebalance()
        self._record_scale()

    def _record_scale(self):
        """Widen ``stats["scale_bits"]`` to the scale of the flow held now."""
        bits = self.flow.scale.bit_length()
        if bits > self.stats["scale_bits"]:
            self.stats["scale_bits"] = bits

    def log(self, event, iteration=None, **fields):
        """Append a trace entry: stage, type, fields, the iteration if given, prices."""
        if self.trace is not None:
            entry = {"stage": self.stage, "type": event, **fields}
            if iteration is not None:
                entry["iteration"] = iteration
            entry["p"] = tuple(self.p)
            self.trace.append(entry)


def initialize(inst: BargainingInstance, collect_trace: bool = False) -> SolverState:
    """Stage 0: the fixed-budget equilibrium at unit money, then flexible budgets.

    With every ``c_i`` at 0 each budget is 1, so Stage II's rising loop
    (``_rise``) runs the fixed-budget market from its start prices, rebuilt
    there, to its equilibrium; it counts its phases in ``stats["fisher_phases"]`` and
    records nothing else.  Then ``c`` becomes the instance's and the market
    is rebalanced, hinted with the surpluses ``c_i / gamma_i`` as
    ``Fraction``s: the kernel kept the ratios ``gamma`` and the edges exact
    at these prices, and the equilibrium flow spends every unit budget, so
    under the new budgets it leaves exactly that surplus.  The state keeps a ``trace``
    only under ``collect_trace`` and holds ``None`` there otherwise.
    """
    state = SolverState(inst)
    _rebuild(state)
    state.stats["fisher_phases"] = _rise(state)
    state.c = inst.c
    state.theta = [Fraction(c.numerator * den, c.denominator * num)
                   for c, (num, den) in zip(inst.c, state.ratio)]
    state.rebalance()
    state.trace = [] if collect_trace else None
    state.log("initialized")
    return state


# ---------------------------------------------------------------------------
# Stage I (feasibility decision, descending prices)


def stage1(state: SolverState) -> str:
    """Run the descending-price stage.  Returns "feasible" or "infeasible".

    On the feasible branch the frozen groups are restored (with per-group
    price scaling) and the state holds a full-market feasibility witness; on
    the infeasible branch the state is left at the terminal prices for
    certificate extraction.
    """
    state.stage = 1
    guard = 0
    while True:
        active, theta, scale = state.active_buyers, state.theta, state.flow.scale
        if all(theta[i] < scale for i in active):
            verdict = "feasible"
            break
        if sum([theta[i] for i in active]) >= len(active) * scale:
            verdict = "infeasible"
            break
        guard += 1
        if guard > _phase_cap(state.inst):
            raise SolverError("stage I exceeded its phase safety cap")
        _stage1_phase(state)
    state.log("verdict", verdict=verdict)
    if verdict == "feasible":
        _restore(state)
    return verdict


def _stage1_phase(state):
    inst = state.inst
    active = state.active_buyers
    low = min([state.theta[i] for i in active])
    if low >= state.flow.scale:
        raise SolverError("stage I phase started without a deficit buyer")
    target = {i for i in active if state.theta[i] == low}
    phi_start = _phi1(state)

    def deficit_cleared(x, block, goods, iteration):
        return x is None or any(state.theta[i] >= state.flow.scale for i in block)

    target_goods, iterations = _price_phase(state, target, False, deficit_cleared)

    adaptable = all(state.theta[i] < state.flow.scale for i in target) and not any(
        inst.u[i][j] > 0 for i in active - target for j in target_goods
    )
    reason = "isolated" if adaptable else "deficit-cleared"
    state.stats["end_reasons"].append(reason)
    if adaptable:
        if not target_goods:
            raise SolverError("a deficit group must hold at least one good")
        group = (frozenset(target), frozenset(target_goods), state.theta, state.flow.scale)
        state.frozen.append(group)
        state.edges -= {e for e in state.edges if e[0] in target}
        state.active_buyers -= target
        state.active_goods -= target_goods
        state.log("freeze", buyers=sorted(target), goods=sorted(target_goods))
    state.stats["stage1_phases"].append(
        {"iterations": iterations, "phi_start": phi_start, "phi_end": _phi1(state),
         "reason": reason}
    )
    if adaptable and state.active_buyers:  # a stop without a freeze moves no price
        state.rebalance()


def _phi1(state):
    """Sum of the squared negative deficits of the active buyers."""
    scale = state.flow.scale
    low = [state.theta[i] - scale for i in state.active_buyers]
    return Fraction(sum([b * b for b in low if b < 0]), scale * scale)


def _restore(state):
    """Bring frozen groups back at safely scaled prices; verify the witness.

    The scaling moves prices outside the kernel, so the thawed market is
    rebuilt, hinted with the active buyers' surpluses and each frozen
    buyer's from its freeze (every inactive buyer is in one frozen group),
    as ``Fraction``s over their own scales.  With nothing frozen, the state
    is left as it is.
    """
    inst = state.inst
    if state.frozen:
        state.price, state.price_scale = _scale_frozen(state)
        hint = [Fraction(t, state.flow.scale) for t in state.theta]
        for buyers, _, theta, scale in state.frozen:
            for i in buyers:
                hint[i] = Fraction(theta[i], scale)
        state.theta = hint
        state.active_buyers = set(range(inst.n))
        state.active_goods = set(range(inst.g))
        _rebuild(state)
    if any(t >= state.flow.scale for t in state.theta):
        raise SolverError("restored prices left a nonnegative deficit")
    state.feasible_prices = tuple(state.p)
    state.log("restore")


def _scale_frozen(state):
    """The market's prices with each frozen group's scaled so its buyers keep to its goods.

    Returns them as ``(price, scale)``, ints over their least common
    denominator, and leaves the market's own as they are.  A frozen
    group's prices and its buyers' ratios stay where it froze: no later
    phase, rebuild or scaling touches a good or buyer outside the active
    block, so ``price[j]`` and ``state.ratio[i]`` still hold them here.
    Groups are processed newest first.  A group's buyers may value
    goods priced *after* its freeze (later groups or the final active
    goods) more than their own at the literal freeze prices; scaling the
    group's prices down restores strict preference for its own goods while
    scaling its deficits by the same factor (keeping them negative).
    Buyers frozen later never value earlier groups' goods (those groups
    were declared precisely when remaining buyers had zero utility toward
    them), so one backward pass settles every group.
    """
    price, scale = state.price, state.price_scale
    for buyers, goods, *_ in reversed(state.frozen):
        others = [(j, q) for j, q in enumerate(price) if j not in goods]
        sigma = Fraction(1)
        for i in buyers:
            num, den, ties = best_ratio(state.inst.u[i], others, scale)
            g_num, g_den = state.ratio[i]
            if ties and g_num * den <= num * g_den:  # an outside good ties or beats its own
                sigma = min(sigma, Fraction(g_num * den, g_den * num * 2))
        if sigma < 1:
            price, scale = move_prices(price, scale, goods, sigma.numerator, sigma.denominator)
    return price, scale


# ---------------------------------------------------------------------------
# Stage II (equilibrium, ascending prices)


def stage2(state: SolverState):
    """Raise prices from the feasibility witness to the equilibrium.

    Expects the state ``stage1`` leaves on its feasible branch, balanced over
    the whole market.  Returns ``(p, x, v)`` over the preprocessed
    instance's indices.  The utilities come from the ratios: at the
    equilibrium buyer ``i`` spends all of ``m_i = 1 + c_i/gamma_i`` on goods
    at ratio ``gamma_i``, so ``v_i = gamma_i m_i = gamma_i + c_i``
    (``check_kkt`` still checks ``v`` against the allocation).
    """
    state.stage = 2
    _rise(state)
    x = state.flow.allocation()
    v = tuple([gamma + c for gamma, c in zip(state.gamma, state.c)])
    state.log("equilibrium")
    return tuple(state.p), x, v


def _rise(state):
    """Rising phases until every surplus is 0; returns the number of phases.

    The kernel leaves ratios and edges exact, and each phase ends on a
    balanced flow (``_stage2_phase``).  Stage 0 and Stage II both run this
    loop; its errors name the stage.
    """
    name = "stage II" if state.stage else "stage 0"
    phases = 0
    while any(state.theta):
        if any(t >= state.flow.scale for t in state.theta):
            raise SolverError(f"{name} requires every surplus below 1")
        phases += 1
        if phases > _phase_cap(state.inst):
            raise SolverError(f"{name} exceeded its phase safety cap")
        _stage2_phase(state, name)
    return phases


def _stage2_phase(state, name):
    """One rising phase; Stage II records it and its tight event, stage 0 does not.

    The stop's factor is the stretch ``min -1/beta_i`` over the block,
    ``scale / (scale - low)`` at the block's least surplus ``low``, and the
    tight buyers are those at ``low``.  The phase keeps the scaled flow of
    its stop exactly when the market's edges equal the edges of the last
    balanced network, which is the scaled flow's.  Then the stop neither
    dropped an edge crossing the block nor added a tied pair, so the block
    was closed in that network too, and the scaled flow is the Edmonds-Karp
    flow a rebalance would find.  Otherwise ``scale_flow`` moved the
    surpluses alone, over a wider scale than the flow's, and they hint the
    rebalance that ends the phase before ``phi_end`` reads them.
    """
    record = state.stage == 2
    phi_start = state.l2() if record else None
    peak = max(state.theta)
    target = {i for i, t in enumerate(state.theta) if t == peak}

    def stretched(x_edge, block, goods, iteration):
        theta, scale = state.theta, state.flow.scale
        low = min([theta[i] for i in block])
        if not 0 < low < scale:
            raise SolverError(f"{name} stretch factor must exceed 1")
        stretch = Fraction(scale, scale - low)
        if x_edge is not None and x_edge < stretch:
            return False
        tight_buyers = {i for i in block if theta[i] == low}
        _scale(state, block, goods, stretch)
        state.flow, state.theta = scale_flow(
            state.flow, theta, stretch, block, goods, state.network(), x_edge != stretch)
        state._record_scale()
        for i in tight_buyers:
            if state.theta[i] != 0:
                raise SolverError(f"{name} tight buyers must end with zero surplus")
        if record:
            tight_goods = {j for (i, j) in state.flow.pair_flow
                           if i in tight_buyers and j in goods}
            scale = state.price_scale
            denom = max([scale // gcd(state.price[j], scale) for j in tight_goods], default=1)
            state.stats["tight_denominators"].append(denom)
            state.log("tight", iteration, x=stretch,
                      tight_goods=sorted(tight_goods), tight_buyers=sorted(tight_buyers))
        return True

    _, iterations = _price_phase(state, target, True, stretched)
    if state.edges != state.flow.net.edges:
        state.rebalance()
    if record:
        state.stats["stage2_phases"].append(
            {"iterations": iterations, "phi_start": phi_start, "phi_end": state.l2()}
        )


# ---------------------------------------------------------------------------
# Certificates of infeasibility (constructed from the terminal stage-I state)


def _lp_dual_certificate(state, report):
    """Dual prices proving no allocation clears every disagreement payoff.

    At the terminal state the active buyers' deficits sum to a nonnegative
    value; normalizing their inverse ratios gives dual weights ``y`` with
    unit sum, and the active prices scale into ``z``.  Frozen buyers and
    goods get zero weight: active buyers have zero utility toward frozen
    goods, so the dual constraints hold with ``z = 0`` there.  ``z`` is
    expanded over the input's goods, as emitted.
    """
    active = sorted(state.active_buyers)
    gamma, p = state.gamma, state.p
    mu_hat = sum((1 / gamma[i] for i in active), Fraction(0))
    y = [Fraction(0)] * state.inst.n
    for i in active:
        y[i] = 1 / (mu_hat * gamma[i])
    z = [Fraction(0)] * state.inst.g
    for j in state.active_goods:
        z[j] = p[j] / mu_hat
    return {"y": y, "z": report.expand(z)}


def _convex_dual_certificate(state, report):
    """Partition + prices witnessing unboundedness of the smooth dual.

    The frozen buyers/goods form the split side.  Frozen groups' prices are
    scaled with the same backward pass as the feasible-branch restore so that
    every frozen buyer's best ratio stays inside its own group; the active
    side keeps its terminal prices, where the deficits sum to a nonnegative
    value.  As emitted, goods and prices are over the input's goods: the
    goods preprocessing removed join the split side at price 1.
    """
    price, scale = _scale_frozen(state)
    p = [Fraction(q, scale) for q in price]
    buyers = sorted(i for group, *_ in state.frozen for i in group)
    goods = {report.kept_goods[j] for _, group, *_ in state.frozen for j in group}
    return {
        "buyers": buyers, "goods": sorted(goods | set(report.removed_goods)),
        "p": report.expand(p, fill=Fraction(1)), "zero_row": None,
    }


# ---------------------------------------------------------------------------
# Top-level solve


@dataclass
class Solution:
    verdict: str
    p: tuple | None = None
    x: list | None = None
    v: tuple | None = None
    feasible_prices: tuple | None = None
    certificate: dict | None = None
    stats: dict = field(default_factory=dict)
    report: object = None
    trace: list = field(default_factory=list)  # filled only under ``collect_trace``


def solve(inst: BargainingInstance, collect_trace: bool = False) -> Solution:
    """Decide the game and compute the exact solution or certificates.

    Feasible: returns equilibrium prices, allocation, utilities, and the
    feasibility witness prices.  Infeasible: returns two independently
    checkable certificates.  Every output but the witness prices (a balanced
    flow to check, left to ``nashflow check``) is re-verified before return.
    The phase events go to ``Solution.trace`` only under ``collect_trace``;
    otherwise no trace is built and it stays empty.
    """
    reduced, report = preprocess(inst)

    if report.verdict == "infeasible":
        i0 = report.zero_buyers[0]
        cert = {"lp_dual": lp_dual_for_zero_row(inst, i0), "convex_dual": {"zero_row": i0}}
        stats, trace = {"phases": 0, "iterations": 0, "maxflows": 0}, []
    else:
        with counting() as tally:
            state = initialize(reduced, collect_trace)
            verdict = stage1(state)
            if verdict == "feasible":
                p_red, x_red, v = stage2(state)
        stats = _final_stats(state, tally)
        trace = state.trace or []
        if verdict == "feasible":
            p = tuple(report.expand(p_red))
            x = [report.expand(row) for row in x_red]
            ok, why = check_kkt(inst, p, x, v)
            if ok:
                ok, why = check_equilibrium(reduced, p_red)
            if not ok:
                raise SolverError(f"computed equilibrium failed verification: {why}")
            return Solution(
                verdict="feasible", p=p, x=x, v=v,
                feasible_prices=tuple(report.expand(state.feasible_prices)),
                report=report, stats=stats, trace=trace,
            )
        cert = {
            "lp_dual": _lp_dual_certificate(state, report),
            "convex_dual": _convex_dual_certificate(state, report),
        }

    if not verify_lp_dual(inst, **cert["lp_dual"]):
        raise SolverError("emitted dual certificate failed verification")
    if not verify_convex_dual(inst, **cert["convex_dual"]):
        raise SolverError("emitted partition certificate failed verification")
    return Solution(verdict="infeasible", certificate=cert, report=report, stats=stats, trace=trace)


def _final_stats(state, tally):
    """A solve's counts, its max-flow budget and the per-stage detail.

    ``tally`` holds the work of ``initialize`` and both stages, without the
    self-verification that follows them.
    """
    stats, inst = state.stats, state.inst
    stats["guess"] = {key: tally[key] for key in ("hits", "repairs", "misses")}
    stats["augments"], stats["peels"] = tally["augments"], tally["peels"]
    phases = stats["stage1_phases"] + stats["stage2_phases"]
    return {
        "phases": len(phases),
        "iterations": sum(ph["iterations"] for ph in phases),
        "maxflows": tally["maxflows"],
        "detail": stats,
        "mu": state.mu,
        "budget": maxflow_budget(inst.n, inst.g, inst.u_max, inst.c_max, state.mu),
    }


def solution_to_json(sol: Solution) -> dict:
    """Canonical JSON form of a solution (rationals as "num/den" strings)."""
    stats = {key: sol.stats.get(key, 0) for key in ("phases", "iterations", "maxflows")}
    return to_json({
        "verdict": sol.verdict, "p": sol.p, "x": sol.x, "v": sol.v,
        "certificate": sol.certificate, "feasible_prices": sol.feasible_prices,
        "stats": stats,
    })
