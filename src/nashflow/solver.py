"""Two-stage exact solver for the bargaining game.

The game "maximize sum of log(v_i - c_i) over allocations of unit-supply
goods" is solved through an equivalent market: buyer ``i`` carries budget
``m_i = 1 + c_i/gamma_i`` (where ``gamma_i`` is their best utility-per-price
ratio at the current prices), and a price vector is an equilibrium when the
best-ratio money flow can simultaneously sell every good and exhaust every
budget.  At equilibrium the optimal allocation is read off the flow and
``v_i - c_i = gamma_i``.

Stage I decides feasibility.  Starting from the fixed-budget equilibrium at
unit money, it repeatedly picks the buyers with the *most negative* budget
deficit ``beta_i = theta_i - 1`` (``theta`` = balanced-flow surplus) and
lowers the prices of the goods only they are interested in; each price drop
either ties a new utility/price ratio (the network gains edges and the set
grows) or exhausts outside interest, at which point the group is "frozen":
set aside with its prices, provably able to reach surplus deficit < 0 on its
own.  The run ends infeasible when the remaining buyers' deficits sum to a
nonnegative value (their money cannot absorb their goods' prices no matter
what), or feasible when every remaining deficit is negative.

On the feasible branch the frozen groups are restored.  Restoring at the
literal freeze prices can leave a frozen buyer preferring some still-active
good whose price dropped after the freeze, so each frozen group's prices are
scaled down by a safe factor (newest group first) until every frozen buyer's
best ratio stays strictly inside its own group; scaling a self-contained
group scales its balanced flow and deficits by the same factor, preserving
their negativity.  The reassembled prices make every deficit negative — a
feasibility witness.

Stage II walks prices up.  It picks the buyers with *maximum* surplus, whose
goods sell to them alone, and raises that block's prices by the largest
factor that keeps every deficit negative; the block either collides with an
outside ratio (new edges, block grows) or some subset of goods becomes
exactly affordable (surplus hits zero there) and the phase ends.  When every
surplus is zero the prices are the equilibrium.

Both stages move prices with the price-phase kernel of ``fisher``, falling
in Stage I and rising in Stage II, and assert their structural invariants as
they go; violations raise ``SolverError`` or ``FisherError`` (a defect, never
a property of the input).  Each rebalance guesses the balanced flow from the
previous one and proves the guess with one max-flow, running the full
balanced-flow recursion only on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .balanced import balanced_flow, scale_flow
from .certify import (
    check_equilibrium,
    check_kkt,
    lp_dual_for_zero_row,
    verify_convex_dual,
    verify_lp_dual,
)
from .fisher import _price_phase, _rebuild, _scale
from .fisher import _run as _fisher_run
from .flownet import MarketNetwork, maxflow_call_count
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
    price; ``c_max`` may be rational and is rounded up.
    """
    c_int = max(1, -(-c_max.numerator // c_max.denominator) if isinstance(c_max, Fraction) else int(c_max))
    terms = _clog2(n) + n * _clog2(max(u_max, 1)) + _clog2(c_int) + g * _clog2(max(int(mu), 1)) + 16
    return n**4 * g * terms


@dataclass
class FrozenBatch:
    buyers: frozenset
    goods: frozenset
    prices: dict
    gamma: dict


@dataclass
class SolverState:
    """Mutable solver state over the preprocessed instance.

    Budgets are flexible, ``m_i = 1 + c_i/gamma_i``.  ``u``, ``rebalance``
    and ``log`` are what the price-phase kernel of ``fisher`` runs on.
    """

    inst: BargainingInstance
    p: list
    gamma: list
    edges: set
    flow: object = None
    theta: list = field(default_factory=list)
    active_buyers: set = field(default_factory=set)
    active_goods: set = field(default_factory=set)
    frozen: list = field(default_factory=list)
    mu: int = 1
    feasible_prices: tuple | None = None
    stats: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    stage: int = field(default=0, init=False)

    @property
    def u(self):
        return self.inst.u

    @property
    def money(self):
        return tuple(1 + c / gamma for c, gamma in zip(self.inst.c, self.gamma))

    def beta(self, i):
        return self.theta[i] - 1

    def rebalance(self):
        """Balanced flow of the active sub-market under flexible budgets.

        The previous flow hints ``balanced_flow``; hits and misses of its
        guess add to ``stats["guess"]``, which starts at the Fisher run's.
        """
        net = MarketNetwork(tuple(self.p), self.money, frozenset(self.edges))
        hint = None if self.flow is None else (self.flow, self.theta)
        self.flow, theta = balanced_flow(
            net.sub(self.active_buyers, self.active_goods), hint, self.stats["guess"]
        )
        for i in self.active_buyers:
            self.theta[i] = theta[i]
        supply = sum((self.p[j] for j in self.active_goods), Fraction(0))
        if self.flow.value != supply:
            raise SolverError("active goods can no longer fully sell")

    def log(self, event, iteration, **fields):
        _trace(self, stage=self.stage, type=event, **fields, iteration=iteration)


def _trace(state, **entry):
    entry.setdefault("p", tuple(state.p))
    state.trace.append(entry)


def initialize(inst: BargainingInstance) -> SolverState:
    """Stage-0 state: fixed-budget equilibrium at unit money, flexible budgets."""
    n, g = inst.n, inst.g
    fisher = _fisher_run(inst.u, [Fraction(1)] * n)
    state = SolverState(
        inst=inst,
        p=list(fisher.p),
        gamma=[Fraction(1)] * n,
        edges=set(),
        theta=[Fraction(0)] * n,
        active_buyers=set(range(n)),
        active_goods=set(range(g)),
    )
    # The smallest start price at unit money is min_j max_i u_ij / (g u_max).
    lowest = min(max(col) for col in zip(*inst.u))
    state.mu = -(-(g * inst.u_max) // lowest)
    state.stats = {
        "fisher_phases": fisher.phase,
        "stage1_phases": [],
        "stage2_phases": [],
        "end_reasons": [],
        "tight_denominators": [],
        "guess": dict(fisher.guess),
    }
    _rebuild(state)
    _trace(state, stage=0, type="initialized")
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
        active = state.active_buyers
        if all(state.beta(i) < 0 for i in active):
            verdict = "feasible"
            break
        if sum((state.beta(i) for i in active), Fraction(0)) >= 0:
            verdict = "infeasible"
            break
        guard += 1
        if guard > _phase_cap(state.inst):
            raise SolverError("stage I exceeded its phase safety cap")
        _stage1_phase(state)
        if state.active_buyers:  # else ``_restore`` rebuilds the whole market next
            _rebuild(state)
    _trace(state, stage=1, type="verdict", verdict=verdict)
    if verdict == "feasible":
        _restore(state)
    return verdict


def _stage1_phase(state):
    inst = state.inst
    active = state.active_buyers
    low = min(state.beta(i) for i in active)
    if low >= 0:
        raise SolverError("stage I phase started without a deficit buyer")
    target = {i for i in active if state.beta(i) == low}
    phi_start = _phi1(state)

    def deficit_cleared(x, block, goods, iteration):
        return x is None or any(state.beta(i) >= 0 for i in block)

    target_goods, iterations = _price_phase(state, target, False, deficit_cleared)

    adaptable = all(state.beta(i) < 0 for i in target) and not any(
        inst.u[i][j] > 0 for i in active - target for j in target_goods
    )
    reason = "isolated" if adaptable else "deficit-cleared"
    state.stats["end_reasons"].append(reason)
    if adaptable:
        if not target_goods:
            raise SolverError("a deficit group must hold at least one good")
        batch = FrozenBatch(
            buyers=frozenset(target),
            goods=frozenset(target_goods),
            prices={j: state.p[j] for j in target_goods},
            gamma={i: state.gamma[i] for i in target},
        )
        state.frozen.append(batch)
        state.active_buyers -= target
        state.active_goods -= target_goods
        state.edges = {
            (i, j) for (i, j) in state.edges if i in state.active_buyers
        }
        _trace(
            state, stage=1, type="freeze", buyers=sorted(target),
            goods=sorted(target_goods),
        )
    state.stats["stage1_phases"].append(
        {"iterations": iterations, "phi_start": phi_start, "phi_end": _phi1(state),
         "reason": reason}
    )


def _phi1(state):
    return sum(
        (state.beta(i) ** 2 for i in state.active_buyers if state.beta(i) < 0),
        Fraction(0),
    )


def _restore(state):
    """Bring frozen groups back at safely scaled prices; verify the witness.

    With nothing frozen, Stage I's last rebuild already covers the whole
    market, so the state is left as it is.
    """
    inst = state.inst
    if state.frozen:
        _scale_frozen(state, state.p)
        state.active_buyers = set(range(inst.n))
        state.active_goods = set(range(inst.g))
        _rebuild(state)
    for i in range(inst.n):
        if state.beta(i) >= 0:
            raise SolverError("restored prices left a nonnegative deficit")
    state.feasible_prices = tuple(state.p)
    _trace(state, stage=1, type="restore")


def _scale_frozen(state, p):
    """Scale each frozen group's prices in ``p`` so its buyers keep to its goods.

    Groups are processed newest first.  A group's buyers may value goods
    priced *after* its freeze (later groups or the final active goods) more
    than their own at the literal freeze prices; scaling the group's prices
    down restores strict preference for its own goods while scaling its
    deficits by the same factor (keeping them negative).  Buyers frozen
    later never value earlier groups' goods (those groups were declared
    precisely when remaining buyers had zero utility toward them), so one
    backward pass settles every group.
    """
    inst = state.inst
    for batch in reversed(state.frozen):
        worst = None
        for i in sorted(batch.buyers):
            cross = Fraction(0)
            for j in range(inst.g):
                if j not in batch.goods and inst.u[i][j] > 0:
                    cross = max(cross, Fraction(inst.u[i][j]) / p[j])
            if cross > 0:
                need = batch.gamma[i] / cross
                worst = need if worst is None or need < worst else worst
        sigma = Fraction(1) if worst is None or worst > 1 else worst / 2
        for j in batch.goods:
            p[j] = batch.prices[j] * sigma


# ---------------------------------------------------------------------------
# Stage II (equilibrium, ascending prices)


def stage2(state: SolverState):
    """Raise prices from the feasibility witness to the equilibrium.

    Expects the state ``stage1`` leaves on its feasible branch, rebuilt over
    the whole market; each phase is followed by one rebuild.  Returns
    ``(p, x, v)`` over the preprocessed instance's indices.
    """
    inst = state.inst
    state.stage = 2
    guard = 0
    while True:
        if all(t == 0 for t in state.theta):
            break
        if any(t >= 1 for t in state.theta):
            raise SolverError("stage II requires every surplus below 1")
        guard += 1
        if guard > _phase_cap(inst):
            raise SolverError("stage II exceeded its phase safety cap")
        _stage2_phase(state)
        _rebuild(state)
    x = state.flow.allocation()
    v = [Fraction(0)] * inst.n
    for (i, j) in state.flow.pair_flow:
        v[i] += inst.u[i][j] * x[i][j]
    _trace(state, stage=2, type="equilibrium")
    return tuple(state.p), x, tuple(v)


def _stage2_phase(state):
    n = state.inst.n
    phi_start = sum((t * t for t in state.theta), Fraction(0))
    peak = max(state.theta)
    target = {i for i in range(n) if state.theta[i] == peak}

    def stretched(x_edge, block, goods, iteration):
        stretch = min(Fraction(-1) / state.beta(i) for i in block)
        if stretch <= 1:
            raise SolverError("stage II stretch factor must exceed 1")
        if x_edge is not None and x_edge < stretch:
            return False
        tight_buyers = {i for i in block if Fraction(-1) / state.beta(i) == stretch}
        tight_goods = {
            j for j in goods
            if any(state.flow.pair_flow.get((i, j), 0) > 0 for i in tight_buyers)
        }
        state.theta = list(scale_flow(state.edges, state.theta, stretch, block, goods))
        _scale(state, block, goods, stretch)
        for i in tight_buyers:
            if state.theta[i] != 0:
                raise SolverError("tight buyers must end with zero surplus")
        denom = max(state.p[j].denominator for j in tight_goods) if tight_goods else 1
        state.stats["tight_denominators"].append(denom)
        state.log("tight", iteration, x=stretch,
                  tight_goods=sorted(tight_goods), tight_buyers=sorted(tight_buyers))
        return True

    _, iterations = _price_phase(state, target, True, stretched)
    phi_end = sum((t * t for t in state.theta), Fraction(0))
    state.stats["stage2_phases"].append(
        {"iterations": iterations, "phi_start": phi_start, "phi_end": phi_end}
    )


# ---------------------------------------------------------------------------
# Certificates of infeasibility (constructed from the terminal stage-I state)


def _lp_dual_certificate(state):
    """Dual prices proving no allocation clears every disagreement payoff.

    At the terminal state the active buyers' deficits sum to a nonnegative
    value; normalizing their inverse ratios gives dual weights ``y`` with
    unit sum, and the active prices scale into ``z``.  Frozen buyers and
    goods get zero weight: active buyers have zero utility toward frozen
    goods, so the dual constraints hold with ``z = 0`` there.
    """
    active = sorted(state.active_buyers)
    mu_hat = sum((1 / state.gamma[i] for i in active), Fraction(0))
    y = [Fraction(0)] * state.inst.n
    for i in active:
        y[i] = 1 / (mu_hat * state.gamma[i])
    z = [Fraction(0)] * state.inst.g
    for j in state.active_goods:
        z[j] = state.p[j] / mu_hat
    return {"y": y, "z": z}


def _convex_dual_certificate(state):
    """Partition + prices witnessing unboundedness of the smooth dual.

    The frozen buyers/goods form the split side.  Frozen groups' prices are
    scaled with the same backward pass as the feasible-branch restore so that
    every frozen buyer's best ratio stays inside its own group; the active
    side keeps its terminal prices, where the deficits sum to a nonnegative
    value.
    """
    p = list(state.p)
    _scale_frozen(state, p)
    buyers = sorted(i for batch in state.frozen for i in batch.buyers)
    goods = sorted(j for batch in state.frozen for j in batch.goods)
    return {"buyers": buyers, "goods": goods, "p": p}


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
    trace: list = field(default_factory=list)


def solve(inst: BargainingInstance, collect_trace: bool = False) -> Solution:
    """Decide the game and compute the exact solution or certificates.

    Feasible: returns equilibrium prices, allocation, utilities, and the
    feasibility witness prices.  Infeasible: returns two independently
    checkable certificates.  Every output but the witness prices (a balanced
    flow to check, left to ``nashflow check``) is re-verified before return.
    """
    flows0 = maxflow_call_count()
    reduced, report = preprocess(inst)

    if report.verdict == "infeasible":
        i0 = report.zero_buyers[0]
        cert = {
            "lp_dual": lp_dual_for_zero_row(inst, i0),
            "convex_dual": {"zero_row": i0},
        }
        sol = Solution(
            verdict="infeasible", certificate=cert, report=report,
            stats={"phases": 0, "iterations": 0, "maxflows": 0},
        )
        _verify_infeasible(inst, sol)
        return sol

    state = initialize(reduced)
    verdict = stage1(state)

    if verdict == "infeasible":
        lp = _lp_dual_certificate(state)
        cx = _convex_dual_certificate(state)
        cert = {
            "lp_dual": {"y": lp["y"], "z": report.expand(lp["z"])},
            "convex_dual": {
                "buyers": cx["buyers"],
                "goods": sorted(
                    {report.kept_goods[j] for j in cx["goods"]}
                    | set(report.removed_goods)
                ),
                "p": report.expand(cx["p"], fill=Fraction(1)),
                "zero_row": None,
            },
        }
        sol = Solution(
            verdict="infeasible", certificate=cert, report=report,
            stats=_final_stats(state, flows0),
            trace=state.trace if collect_trace else [],
        )
        _verify_infeasible(inst, sol)
        return sol

    p_red, x_red, v = stage2(state)
    p = tuple(report.expand(p_red))
    x = [report.expand(row) for row in x_red]
    witness = tuple(report.expand(state.feasible_prices))

    ok, why = check_kkt(inst, p, x, v)
    if ok:
        ok, why = check_equilibrium(reduced, p_red)
    if not ok:
        raise SolverError(f"computed equilibrium failed verification: {why}")

    return Solution(
        verdict="feasible", p=p, x=x, v=v, feasible_prices=witness,
        report=report,
        stats=_final_stats(state, flows0),
        trace=state.trace if collect_trace else [],
    )


def _final_stats(state, flows0):
    """A solve's counts, its max-flow budget and the per-stage detail."""
    stats, inst = state.stats, state.inst
    phases = stats["stage1_phases"] + stats["stage2_phases"]
    return {
        "phases": len(phases),
        "iterations": sum(ph["iterations"] for ph in phases),
        "maxflows": maxflow_call_count() - flows0,
        "detail": stats,
        "mu": state.mu,
        "budget": maxflow_budget(inst.n, inst.g, inst.u_max, inst.c_max, state.mu),
    }


def _verify_infeasible(inst, sol: Solution):
    cert = sol.certificate
    if not verify_lp_dual(inst, cert["lp_dual"]["y"], cert["lp_dual"]["z"]):
        raise SolverError("emitted dual certificate failed verification")
    cx = cert["convex_dual"]
    if cx.get("zero_row") is not None:
        ok = verify_convex_dual(inst, zero_row=cx["zero_row"])
    else:
        ok = verify_convex_dual(
            inst, buyers=cx["buyers"], goods=cx["goods"], p=cx["p"]
        )
    if not ok:
        raise SolverError("emitted partition certificate failed verification")


def solution_to_json(sol: Solution) -> dict:
    """Canonical JSON form of a solution (rationals as "num/den" strings)."""
    stats = {key: sol.stats.get(key, 0) for key in ("phases", "iterations", "maxflows")}
    return to_json({
        "verdict": sol.verdict, "p": sol.p, "x": sol.x, "v": sol.v,
        "certificate": sol.certificate, "feasible_prices": sol.feasible_prices,
        "stats": stats,
    })
