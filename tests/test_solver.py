"""Two-stage exact solver: state setup, both stages, end-to-end solve."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from nashflow import (
    balanced_flow,
    check_equilibrium,
    check_feasibility_witness,
    check_kkt,
    feasibility_lp,
    gen_random,
    initialize,
    make_instance,
    max_flow,
    maxflow_budget,
    preprocess,
    solution_to_json,
    solve,
    SolverError,
    SolverState,
    stage1,
    stage2,
    verify_convex_dual,
    verify_lp_dual,
)
from nashflow import solver
from nashflow.balanced import scale_flow
from nashflow.fisher import _block_goods, _next_tie
from conftest import (
    balanced_values,
    budget_values,
    check_tight_denominators,
    checked_market,
    reference_balanced_flow,
    reference_bang_per_buck,
    reference_market_network,
    residual_signs,
    scalar_feasible,
    scalar_infeasible,
    scaled_network,
    split_infeasible,
    unit_game,
)
from test_golden import _instances


# ---------------------------------------------------------------------------
# Initialization (unit-budget equilibrium, then flexible budgets)


def test_initialize_zero_disagreement_is_already_settled():
    state = initialize(unit_game())
    assert state.p == [Fraction(1)]
    assert state.gamma == [Fraction(1)]
    assert budget_values(state) == (Fraction(1),)
    assert state.theta == (0,)


def test_initialize_saturated_buyer_shows_full_surplus():
    state = initialize(scalar_infeasible())
    assert state.p == [Fraction(1)]
    assert budget_values(state) == (Fraction(2),)
    assert (state.theta, state.flow.scale) == ((1,), 1)


def test_initialize_partial_surplus():
    state = initialize(scalar_feasible())
    assert state.p == [Fraction(1)]
    assert state.gamma == [Fraction(2)]
    assert budget_values(state) == (Fraction(3, 2),)
    # Surpluses are ints over the flow's scale: 1/2 is 1 over 2.
    assert (state.theta, state.flow.scale) == ((1,), 2)


# ---------------------------------------------------------------------------
# Descending stage (feasibility decision)


def test_stage1_detects_immediate_infeasibility():
    state = initialize(scalar_infeasible())
    assert stage1(state) == "infeasible"


def test_stage1_accepts_strict_surplus_without_any_phase():
    state = initialize(scalar_feasible())
    assert stage1(state) == "feasible"
    assert state.stats["stage1_phases"] == []
    assert tuple(state.feasible_prices) == (Fraction(1),)
    ok, why = check_feasibility_witness(scalar_feasible(), state.feasible_prices)
    assert ok, why


def test_stage1_disconnected_hopeless_buyer_is_infeasible():
    state = initialize(split_infeasible())
    assert stage1(state) == "infeasible"
    # Nothing can be frozen: the deficit never improves, prices stay put.
    assert state.frozen == []
    assert tuple(state.p) == (Fraction(1), Fraction(1))


def test_stage1_verdict_matches_the_margin_program_sign():
    rng = random.Random(3)
    for _ in range(60):
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 3), 3, 2, rng.randint(0, 10**6))
        state = initialize(inst)
        verdict = stage1(state)
        assert (feasibility_lp(inst) > 0) == (verdict == "feasible")


# ---------------------------------------------------------------------------
# Price-drop event solving


def _deepest_deficit_block(state):
    low = min(state.theta[i] for i in state.active_buyers)
    block = {i for i in state.active_buyers if state.theta[i] == low}
    return block, _block_goods(state, block, ascending=False)


def test_falling_tie_pins_first_outside_interest():
    # The outside buyer's ratio catches the falling target price at x = 1/2.
    state = initialize(make_instance([[2, 1], [0, 1]], [2, 0]))
    x, pairs = _next_tie(state, *_deepest_deficit_block(state), ascending=False)
    assert x == Fraction(1, 2)
    assert pairs == [(0, 1)]


def test_falling_tie_no_outside_interest():
    state = initialize(split_infeasible())
    assert _next_tie(state, *_deepest_deficit_block(state), ascending=False) == (None, [])


def test_falling_tie_accepts_explicit_blocks():
    state = initialize(make_instance([[2, 1], [0, 1]], [2, 0]))
    x, pairs = _next_tie(state, {1}, {1}, ascending=False)
    assert x == Fraction(1, 2)
    assert pairs == [(0, 1)]


def test_falling_tie_reports_all_tied_pairs():
    state = initialize(make_instance([[2, 1, 1], [0, 1, 0], [0, 0, 1]], [2, 0, 0]))
    x, pairs = _next_tie(state, {1, 2}, {1, 2}, ascending=False)
    assert x == Fraction(1, 2)
    assert pairs == [(0, 1), (0, 2)]


# ---------------------------------------------------------------------------
# Ascending stage (equilibrium computation)


def test_stage2_raises_prices_to_the_equilibrium():
    state = initialize(scalar_feasible())
    assert stage1(state) == "feasible"
    p, x, v = stage2(state)
    assert tuple(p) == (Fraction(2),)
    assert x == [[Fraction(1)]]
    assert tuple(v) == (Fraction(2),)


def test_stage2_emits_the_tight_event_in_the_trace():
    state = initialize(scalar_feasible(), collect_trace=True)
    stage1(state)
    stage2(state)
    tight = [e for e in state.trace if e.get("type") == "tight"]
    assert len(tight) == 1
    assert tight[0]["x"] == Fraction(2)
    assert tight[0]["tight_goods"] == [0]
    assert tight[0]["tight_buyers"] == [0]
    assert tight[0]["iteration"] == 1


def test_stage2_utilities_are_those_of_the_allocation_on_the_golden_set():
    # Stage II reads v_i = gamma_i + c_i off the ratios; on every feasible
    # golden answer that is sum_j u_ij x_ij, summed here in ``Fraction``s,
    # and every utility is a ``Fraction``, as the JSON writes it.
    feasible = 0
    for _, inst in _instances():
        sol = solve(inst)
        if sol.verdict != "feasible":
            continue
        feasible += 1
        assert all(type(a) is Fraction for a in sol.v)
        assert sol.v == tuple(sum((w * s for w, s in zip(row, shares)), Fraction(0))
                              for row, shares in zip(inst.u, sol.x)), inst
    assert feasible > 300, feasible


# ---------------------------------------------------------------------------
# End-to-end solve


def test_solve_unit_game():
    sol = solve(unit_game())
    assert sol.verdict == "feasible"
    assert sol.p == (Fraction(1),)
    assert sol.v == (Fraction(1),)
    assert sol.x == [[Fraction(1)]]


def test_solve_scalar_feasible_pins():
    sol = solve(scalar_feasible())
    assert sol.verdict == "feasible"
    assert sol.p == (Fraction(2),)
    assert sol.v == (Fraction(2),)
    assert sol.x == [[Fraction(1)]]
    assert sol.feasible_prices == (Fraction(1),)
    assert set(sol.stats) >= {"budget", "detail", "iterations", "maxflows", "mu", "phases"}


def test_solve_infeasible_emits_both_certificates():
    sol = solve(scalar_infeasible())
    assert sol.verdict == "infeasible"
    assert sol.p is None and sol.x is None and sol.v is None
    cert = sol.certificate
    assert verify_lp_dual(scalar_infeasible(), cert["lp_dual"]["y"], cert["lp_dual"]["z"])
    cx = cert["convex_dual"]
    assert verify_convex_dual(
        scalar_infeasible(), buyers=cx["buyers"], goods=cx["goods"], p=cx["p"]
    )


def test_solve_split_infeasible_certificate_pins():
    sol = solve(split_infeasible())
    assert sol.verdict == "infeasible"
    lp = sol.certificate["lp_dual"]
    assert lp["y"] == [Fraction(1, 2), Fraction(1, 2)]
    assert lp["z"] == [Fraction(1, 2), Fraction(1, 2)]
    cx = sol.certificate["convex_dual"]
    assert (cx["buyers"], cx["goods"]) == ([], [])
    assert cx["p"] == [Fraction(1), Fraction(1)]
    assert verify_convex_dual(split_infeasible(), buyers=cx["buyers"], goods=cx["goods"], p=cx["p"])
    # The single-buyer split passes the same checker: certificates need not
    # be unique, only verifiable.
    assert verify_convex_dual(
        split_infeasible(), buyers=[1], goods=[1], p=[Fraction(1), Fraction(1)]
    )


def test_solve_zero_row_buyer_short_circuits():
    sol = solve(make_instance([[0], [1]], [0, 0]))
    assert sol.verdict == "infeasible"
    assert sol.certificate["convex_dual"] == {"zero_row": 0}
    assert sol.certificate["lp_dual"]["y"] == [Fraction(1), Fraction(0)]
    assert sol.report.zero_buyers == [0]


def test_solve_reports_zero_price_for_unwanted_goods():
    sol = solve(make_instance([[1, 0]], [0]))
    assert sol.verdict == "feasible"
    assert sol.p == (Fraction(1), Fraction(0))
    assert sol.report.removed_goods == [1]


def test_solve_vacuously_rich_buyer():
    # Buyer 0's disagreement payoff is high but still beatable; the
    # equilibrium hands them the whole first good plus half the second.
    inst = make_instance([[4, 1], [1, 2]], [4, 0])
    sol = solve(inst)
    assert sol.verdict == "feasible"
    assert sol.p == (Fraction(8), Fraction(2))
    assert sol.v == (Fraction(9, 2), Fraction(1))
    assert sol.x == [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]
    assert sol.feasible_prices == (Fraction(1), Fraction(1, 4))


def test_solve_restores_frozen_groups_on_the_feasible_branch():
    # Stage exits infeasible-looking pockets get frozen, then the verdict
    # flips feasible and every frozen group must come back consistently.
    inst = make_instance(
        [
            [4, 1, 1, 0, 0],
            [1, 2, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 1, 16, 0],
            [0, 0, 1, 0, 8],
        ],
        [4, 0, Fraction(1, 2), 0, 8],
    )
    sol = solve(inst)
    assert sol.verdict == "feasible"
    assert sol.p == (Fraction(8), Fraction(2), Fraction(4), Fraction(1), Fraction(32))
    assert sol.v == (Fraction(9, 2), Fraction(1), Fraction(3, 4), Fraction(16), Fraction(33, 4))
    assert sol.feasible_prices == (
        Fraction(1, 4),
        Fraction(1, 16),
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1),
    )
    assert feasibility_lp(inst) == Fraction(1, 4)
    ok, why = check_kkt(inst, list(sol.p), sol.x, sol.v)
    assert ok, why


def test_frozen_groups_keep_their_freeze_prices_and_ratios(monkeypatch):
    # A frozen group is only its buyers and goods: every later phase, the
    # restore and the partition certificate must find its goods' prices and
    # its buyers' best ratios as they were at the freeze, and no active buyer
    # valuing its goods.
    taken, seen = {}, {"freezes": 0, "checks": 0}

    def check(state):
        groups = taken.setdefault(state, [])
        for buyers, goods, *_ in state.frozen[len(groups):]:
            groups.append(({j: state.p[j] for j in goods}, {i: state.gamma[i] for i in buyers}))
            seen["freezes"] += 1
        for (buyers, goods, *_), (prices, ratios) in zip(state.frozen, groups):
            assert {j: state.p[j] for j in goods} == prices
            assert {i: state.gamma[i] for i in buyers} == ratios
            assert not any(state.inst.u[i][j] for i in state.active_buyers for j in goods)
            seen["checks"] += 1

    def checked(run, before):
        def wrapper(state, *args):
            if before:
                check(state)
            out = run(state, *args)
            if not before:
                check(state)
            return out
        return wrapper

    monkeypatch.setattr(solver, "_stage1_phase", checked(solver._stage1_phase, False))
    monkeypatch.setattr(solver, "_restore", checked(solver._restore, True))
    monkeypatch.setattr(
        solver, "_convex_dual_certificate", checked(solver._convex_dual_certificate, True)
    )
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    for shape in shapes:
        solve(gen_random(*shape))
        taken.clear()
    assert seen["freezes"] >= 40 and seen["checks"] > seen["freezes"]


def test_solve_mixed_connectivity_regression():
    # A partly connected market where one buyer's payoff is out of reach.
    inst = make_instance([[2, 2], [0, 3], [1, 0]], [0, 0, 1])
    sol = solve(inst)
    assert sol.verdict == "infeasible"
    lp = sol.certificate["lp_dual"]
    assert lp["y"] == [Fraction(0), Fraction(0), Fraction(1)]
    assert lp["z"] == [Fraction(1), Fraction(0)]
    cx = sol.certificate["convex_dual"]
    assert (cx["buyers"], cx["goods"]) == ([0, 1], [1])
    assert cx["p"] == [Fraction(3, 2), Fraction(3, 4)]


def test_solve_verifies_feasible_output_before_returning():
    rng = random.Random(17)
    for _ in range(30):
        inst = gen_random(rng.randint(1, 4), rng.randint(1, 4), 4, 2, rng.randint(0, 10**6))
        sol = solve(inst)
        if sol.verdict == "feasible":
            eq_ok, _ = check_equilibrium(inst, list(sol.p))
            kkt_ok, why = check_kkt(inst, list(sol.p), sol.x, sol.v)
            assert eq_ok and kkt_ok, why
            assert all(vi > ci for vi, ci in zip(sol.v, inst.c))
        else:
            cert = sol.certificate
            assert verify_lp_dual(inst, cert["lp_dual"]["y"], cert["lp_dual"]["z"])


def test_maxflow_budget_rounds_a_rational_c_max_up():
    budgets = {maxflow_budget(3, 2, 5, c, 4) for c in (3, Fraction(3), Fraction(5, 2))}
    assert len(budgets) == 1
    assert budgets != {maxflow_budget(3, 2, 5, 2, 4)}


def test_solve_stays_within_the_max_flow_budget():
    rng = random.Random(23)
    for _ in range(20):
        inst = gen_random(3, 3, 5, 3, rng.randint(0, 10**6))
        sol = solve(inst)
        assert sol.stats["maxflows"] <= 4 * sol.stats["budget"]
        assert sol.stats["budget"] == maxflow_budget(
            inst.n, inst.g, inst.u_max, inst.c_max, sol.stats["mu"]
        )



def test_mu_is_the_reciprocal_of_the_smallest_start_price_rounded_up():
    # At unit money the start prices are max_i u_ij / (g u_max) over the
    # preprocessed instance's goods, so ``mu`` is ceil(g u_max / min_j max_i u_ij).
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    for shape in shapes:
        inst = gen_random(*shape)
        reduced, _ = preprocess(inst)
        lowest = min(max(col) for col in zip(*reduced.u))
        mu = -(-(reduced.g * reduced.u_max) // lowest)
        stats = solve(inst).stats
        assert type(stats["mu"]) is int and stats["mu"] == mu, shape

@pytest.mark.parametrize("seed, verdict", [(0, "feasible"), (2, "infeasible")])
def test_maxflows_stat_counts_the_max_flows_of_both_stages(monkeypatch, seed, verdict):
    # ``stats["maxflows"]`` is every max-flow run inside ``initialize``,
    # ``stage1`` and ``stage2``, and none of the self-verification's.
    depth = {"stage": 0, "check": 0}
    calls = [0]
    real_max_flow = max_flow

    def counted(net):
        calls[0] += depth["stage"] > 0 and not depth["check"]
        return real_max_flow(net)

    def nested(fn, key):
        def wrapped(*args, **kwargs):
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1
        return wrapped

    for module in ("flownet", "balanced", "fisher", "certify"):
        monkeypatch.setattr(f"nashflow.{module}.max_flow", counted)
    for name in ("initialize", "stage1", "stage2"):
        monkeypatch.setattr(solver, name, nested(getattr(solver, name), "stage"))
    for name in ("check_kkt", "check_equilibrium", "verify_lp_dual", "verify_convex_dual"):
        monkeypatch.setattr(solver, name, nested(getattr(solver, name), "check"))
    sol = solve(gen_random(12, 12, 1000, 1500, seed))
    assert sol.verdict == verdict
    assert sol.stats["maxflows"] == calls[0] > 0


def test_rebalance_keeps_edges_tight_and_ratios_current(monkeypatch):
    # After every rebalance each network edge attains its buyer's recorded
    # best ratio, and each active buyer's recorded ratio is still their best
    # over the active goods.
    rebalance = SolverState.rebalance
    calls = []

    def checked(state):
        rebalance(state)
        u, p, gamma = state.u, state.p, state.gamma
        for (i, j) in state.edges:
            assert Fraction(u[i][j]) / p[j] == gamma[i], f"effective edge ({i},{j}) is not tight"
        for i in state.active_buyers:
            best = max(Fraction(u[i][j]) / p[j] for j in state.active_goods if u[i][j] > 0)
            assert best == gamma[i], f"buyer {i} ratio is stale"
        calls.append(state)

    monkeypatch.setattr(SolverState, "rebalance", checked)
    for seed in range(600):
        solve(gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed))
    solve(gen_random(12, 12, 1000, 1500, 0))
    assert len(calls) > 1000


def test_phase_ends_leave_the_market_on_its_best_ratio_edges(monkeypatch):
    # The price-phase kernel keeps the market's edges exact, so no phase end
    # re-derives them: after every stage-0, Stage I and Stage II phase,
    # ``reference_bang_per_buck`` over the active buyers returns exactly the
    # market's ratios and edges.  That needs the pairs that tie at a rising stop, the
    # edges a Stage I phase keeps when its stop moves no price, and no edge
    # of a frozen buyer.
    ends = []

    def checked(phase):
        def wrapped(state, *args):
            phase(state, *args)
            buyers = sorted(state.active_buyers)
            gamma, pairs = reference_bang_per_buck([state.u[i] for i in buyers], state.p)
            where = (state.inst.u, state.inst.c, state.stage)
            assert gamma == [state.gamma[i] for i in buyers], where
            assert {(buyers[k], j) for (k, j) in pairs} == state.edges, where
            ends.append(state.stage)
        return wrapped

    for name in ("_stage1_phase", "_stage2_phase"):
        monkeypatch.setattr(solver, name, checked(getattr(solver, name)))
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes.append((40, 40, 10, 10, 0))
    for shape in shapes:
        solve(gen_random(*shape))
    assert ends.count(0) > 500 and ends.count(1) > 40 and ends.count(2) > 250, Counter(ends)


def test_no_rebalance_runs_on_an_empty_active_market(monkeypatch):
    rebalance = SolverState.rebalance
    sizes = []

    def counted(state):
        sizes.append(len(state.active_buyers))
        rebalance(state)

    monkeypatch.setattr(SolverState, "rebalance", counted)
    for seed in range(525):
        solve(gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed))
    for seed in range(3):
        solve(gen_random(12, 12, 1000, 1500, seed))
    assert len(sizes) > 900 and 0 not in sizes


def _watch_kept_scaled_flows(monkeypatch, on_kept):
    """Call ``on_kept(state)`` at each rising phase end that keeps its scaled flow.

    The flow is kept when the one ``scale_flow`` made at the phase's stop is
    still the state's flow once the phase has ended: when the next phase
    starts or the rising loop returns, before anything else moves the market.
    """
    scale, phase, rise = solver.scale_flow, solver._stage2_phase, solver._rise
    made = [None]

    def scaled(flow, *args):
        result = scale(flow, *args)
        made[0] = None if result[0] is flow else result[0]
        return result

    def settle(state):
        if made[0] is not None and state.flow is made[0]:
            on_kept(state)
        made[0] = None

    def phased(state, name):
        settle(state)
        return phase(state, name)

    def rising(state):
        phases = rise(state)
        settle(state)
        return phases

    monkeypatch.setattr(solver, "scale_flow", scaled)
    monkeypatch.setattr(solver, "_stage2_phase", phased)
    monkeypatch.setattr(solver, "_rise", rising)


def test_market_is_rebuilt_at_the_start_and_after_a_thaw(monkeypatch):
    # ``_rebuild`` re-derives the ratios and edges only at stage 0's start
    # prices and when the restore brings frozen groups back: the price-phase
    # kernel keeps them exact everywhere else.  Outside the kernel and those
    # rebuilds the market rebalances once when the instance's c takes over
    # and once after each Stage I freeze that leaves some buyer active; a
    # Stage I phase that freezes nothing ends on the network it has just
    # balanced.  Each rising phase (stage 0 and Stage II) ends in exactly one
    # rebalance or one kept scaled flow, and both are counted.
    rebuild, rebalance, phase = solver._rebuild, SolverState.rebalance, solver._price_phase
    depth = [0]
    rebuilds, rebalances, kept = [], [], []

    def nested(fn, calls=None):
        def wrapped(state, *args):
            if calls is not None:
                calls.append(state)
            depth[0] += 1
            try:
                return fn(state, *args)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(state):
        if not depth[0]:
            rebalances.append(state)
        rebalance(state)

    monkeypatch.setattr(solver, "_rebuild", nested(rebuild, rebuilds))
    monkeypatch.setattr(solver, "_price_phase", nested(phase))
    monkeypatch.setattr(SolverState, "rebalance", counted)
    _watch_kept_scaled_flows(monkeypatch, kept.append)
    seen = set()
    total = Counter()
    for seed in range(525):
        rebuilds.clear()
        rebalances.clear()
        kept.clear()
        inst = gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed)
        sol = solve(inst, collect_trace=True)
        detail = sol.stats.get("detail")
        if detail is None:
            assert rebuilds == rebalances == kept == []
            continue
        freezes = sum(ph["reason"] == "isolated" for ph in detail["stage1_phases"])
        thawed = sol.verdict == "feasible" and freezes > 0
        emptied = sum(len(e["buyers"]) for e in sol.trace if e["type"] == "freeze") == inst.n
        assert len(rebuilds) == 1 + thawed, seed
        expected = detail["fisher_phases"] + 1 + freezes - emptied + len(detail["stage2_phases"])
        assert len(rebalances) + len(kept) == expected, seed
        total.update(rebalances=len(rebalances), kept=len(kept))
        seen.add((sol.verdict, freezes > 0, emptied))
    assert {("feasible", True, True), ("feasible", False, False), ("infeasible", True, False)} <= seen
    assert total["kept"] > 600 and total["rebalances"] > 500, total


def test_solve_rejects_utilities_that_disagree_with_the_allocation(monkeypatch):
    real_stage2 = solver.stage2

    def wrong_v(state):
        p, x, v = real_stage2(state)
        return p, x, (v[0] + 1,) + v[1:]

    monkeypatch.setattr(solver, "stage2", wrong_v)
    with pytest.raises(SolverError, match="claimed utilities do not match the allocation"):
        solve(scalar_feasible())


def test_stage2_surplus_update_matches_the_scaled_balanced_flow(monkeypatch):
    # At a tight event the rising loop moves the block's surpluses by formula
    # instead of recomputing the balanced flow, in stage 0 (every budget 1)
    # and in Stage II.  Each update must equal the balanced surpluses of the
    # network handed in, the market just after the move (in integers, its
    # ``Fraction`` reference over the same scale): undoing the move gives
    # back the network whose balanced surpluses the update starts from.
    states = []
    calls = []
    phase = solver._stage2_phase

    def captured(state, name):
        states.append(state)
        return phase(state, name)

    def checked(flow, theta, x, buyers, goods, net, keep):
        updated = scale_flow(flow, theta, x, buyers, goods, net, keep)
        state = states[-1]
        ref = reference_market_network(state)
        assert ref == net
        before = balanced_flow(scaled_network(ref, 1 / x, buyers, goods))
        assert balanced_values(*before).theta == tuple(Fraction(t, flow.scale) for t in theta)
        expected = balanced_values(*balanced_flow(ref)).theta
        # A scaled flow's surpluses are over its scale; moved ones alone over
        # the old flow's scale times the factor's denominator.
        scale = updated[0].scale if updated[0] is not flow else flow.scale * x.denominator
        moved = tuple(Fraction(t, scale) for t in updated[1])
        assert moved == expected, (state.inst.u, state.inst.c, x)
        calls.append(state.stage)
        return updated

    monkeypatch.setattr(solver, "_stage2_phase", captured)
    monkeypatch.setattr(solver, "scale_flow", checked)
    for seed in range(525):
        solve(gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed))
    solve(gen_random(12, 12, 1000, 1500, 0))
    assert calls.count(0) > 250 and calls.count(2) > 250


def test_every_kept_scaled_flow_is_the_rebalance_it_replaces(monkeypatch):
    # A rising phase end keeps the stop's scaled flow only when the market's
    # edges are those of the last balanced network.  Each kept flow must be
    # the flow a rebalance would have computed there, from the same network
    # and hint: pair flows, value, network, surpluses, the residual graph's
    # arcs and which of them have room, and residual reach.  (Every balanced
    # flow saturates its caps, so its cut is every node whatever its graph.)
    kept = Counter()

    def compare(state):
        flow, theta = balanced_flow(state.network(), (state.flow, state.theta))
        where = (state.inst.u, state.inst.c, state.stage)
        assert state.flow.scale == flow.scale, where
        assert state.flow.pair_flow == flow.pair_flow, where
        assert state.flow.value == flow.value and state.flow.net == flow.net, where
        assert state.theta == theta, where
        assert residual_signs(state.flow) == residual_signs(flow), where
        for i in range(state.inst.n):
            for reverse in (False, True):
                assert (state.flow.residual_reach({i}, reverse)
                        == flow.residual_reach({i}, reverse)), where
        kept[state.stage] += 1

    _watch_kept_scaled_flows(monkeypatch, compare)
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes += [(40, 40, 10, 10, 0), (3, 3, 3, 2, 1229284897)]
    for shape in shapes:
        solve(gen_random(*shape))
    assert kept[0] > 400 and kept[2] > 250, kept


def _watch_market_flows(monkeypatch, on_flow):
    """Call ``on_flow(state)`` after every rebalance and at every kept scaled flow.

    These are the two ways a flow reaches the market; at both,
    ``state.network()`` is the network the flow belongs to.
    """
    rebalance = SolverState.rebalance

    def watched(state):
        rebalance(state)
        on_flow(state)

    monkeypatch.setattr(SolverState, "rebalance", watched)
    _watch_kept_scaled_flows(monkeypatch, on_flow)


def _least_common_denominator(net, flow, theta):
    """The lcm of a network's least common denominator and a flow's values', by ``Fraction``s."""
    values = [Fraction(t, flow.scale) for t in (*theta, *flow.pair_flow.values())]
    return lcm(net.scale, *[x.denominator for x in values])


def test_the_market_holds_integers_whose_values_are_the_reference_flow(monkeypatch):
    # Every flow the market takes, from a rebalance or kept from a stop, is
    # in ints over one scale, surpluses and network included, and that scale
    # is the least common denominator of the network and the flow's values.
    # Divided by it, the value, pair flows, cut and surpluses are the
    # recursion's on the same network.
    seen = Counter()

    def check(state):
        flow, theta = state.flow, state.theta
        net = reference_market_network(state)
        amounts = (flow.value, *flow.pair_flow.values(), *theta, *flow.net.p, *flow.net.m)
        assert all(type(x) is int for x in amounts)
        ref = reference_balanced_flow(net)
        where = (state.inst.u, state.inst.c, state.stage)
        assert balanced_values(flow, theta) == ref, where
        assert flow.scale == _least_common_denominator(net, flow, theta), where
        seen[state.stage] += 1

    _watch_market_flows(monkeypatch, check)
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes.append((40, 40, 10, 10, 0))
    for shape in shapes:
        solve(gen_random(*shape))
    assert seen[0] > 1000 and seen[1] > 50 and seen[2] > 250, seen


def test_the_integer_market_is_its_fraction_reference_on_the_golden_set():
    # The market keeps prices, ratios and budgets as integers.  On every
    # golden instance each network it hands out is the one its ``Fraction``
    # views describe, as ``conftest`` converts it, each flow it holds carries its
    # scale on its network, and each Stage II tight denominator is the
    # largest denominator of the tight goods' prices.
    seen = Counter()
    tights = 0
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes.append((40, 40, 10, 10, 0))
    with checked_market(seen):
        for shape in shapes:
            tights += check_tight_denominators(solve(gen_random(*shape), collect_trace=True))
    assert seen["networks"] > 2000 and seen["flows"] > 2000 and tights > 250, (seen, tights)


def test_scale_bits_is_the_widest_held_flow_by_its_fraction_lcm(monkeypatch):
    # ``stats["detail"]["scale_bits"]`` is the bit length of the widest scale
    # of a flow the market held, which is the lcm of the denominators of the
    # network's amounts and the flow's values as ``Fraction``s.  It stays out
    # of the solution's JSON.
    widest = []

    def width(state):
        net = reference_market_network(state)
        bits = _least_common_denominator(net, state.flow, state.theta).bit_length()
        widest[-1] = max(widest[-1], bits)

    _watch_market_flows(monkeypatch, width)
    for seed in range(3):
        widest.append(0)
        sol = solve(gen_random(12, 12, 1000, 1500, seed))
        assert sol.stats["detail"]["scale_bits"] == widest[-1] > 100, (seed, widest)
        assert "scale_bits" not in json.dumps(solution_to_json(sol))


def test_every_surplus_a_stage_reads_is_over_the_flows_scale(monkeypatch):
    # The market holds one denominator: after ``initialize``, every Stage I
    # and rising phase and the restore, each surplus is an int over the
    # flow's scale, and divided by it the active buyers' surpluses are the
    # reference's on the market's network.  A rising phase whose stop kept
    # no scaled flow rebalances before it ends, so each Stage II
    # ``phi_end`` is the reference surpluses' l2 too.
    seen = Counter()

    def checked(fn, name):
        def wrapped(*args):
            out = fn(*args)
            state = out if name == "initialize" else args[0]
            ref = reference_balanced_flow(reference_market_network(state)).theta
            where = (state.inst.u, state.inst.c, name)
            assert all(type(t) is int for t in state.theta), where
            scale = state.flow.scale
            assert all(Fraction(state.theta[i], scale) == ref[i] for i in state.active_buyers), where
            key = name
            if name == "_stage2_phase" and state.stage == 2:
                assert state.stats["stage2_phases"][-1]["phi_end"] == sum(r * r for r in ref), where
                key = "stage II phase"
            seen[key] += 1
            return out
        return wrapped

    for name in ("initialize", "_stage1_phase", "_stage2_phase", "_restore"):
        monkeypatch.setattr(solver, name, checked(getattr(solver, name), name))
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes.append((40, 40, 10, 10, 0))
    for shape in shapes:
        solve(gen_random(*shape))
    assert seen["initialize"] > 500 and seen["_stage2_phase"] > 500, seen
    assert seen["_stage1_phase"] > 40 and seen["_restore"] > 300, seen
    assert seen["stage II phase"] > 250, seen


def test_every_scaled_flow_a_stop_forms_is_kept(monkeypatch):
    # A stop that ties the next edge event adds the tied pairs, and its phase
    # end rebalances: ``scale_flow`` moves the surpluses there and forms no
    # scaled flow, so every scaled flow formed and gated is one a phase end
    # keeps.  The ties do occur on these shapes.
    formed, kept, ties = [], [], []
    scale = solver.scale_flow

    def counted(flow, theta, x, buyers, goods, net, keep):
        result = scale(flow, theta, x, buyers, goods, net, keep)
        if result[0] is not flow:
            formed.append(result[0])
        ties.append(not keep)
        return result

    monkeypatch.setattr(solver, "scale_flow", counted)
    _watch_kept_scaled_flows(monkeypatch, lambda state: kept.append(state.flow))
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    for shape in shapes:
        solve(gen_random(*shape))
    assert formed == kept and len(kept) > 600 and sum(ties) > 5, (len(kept), sum(ties))


def test_a_stop_that_dropped_an_edge_rebalances():
    # Stage II's last stop here drops an edge of the last balanced network
    # that crosses the block.  Keeping the scaled flow there would keep a
    # balanced flow with the right surpluses, but not the Edmonds-Karp flow
    # of the new network: buyers 0 and 1 would swap their goods.
    sol = solve(gen_random(3, 3, 3, 2, 1063641966))
    F = Fraction
    assert sol.x == [[0, 1, F(1, 3)], [0, 0, F(2, 3)], [1, 0, 0]]


def test_solution_to_json_round_trips_rationals_as_strings():
    doc = solution_to_json(solve(scalar_feasible()))
    assert doc["verdict"] == "feasible"
    assert doc["p"] == ["2"]
    assert doc["v"] == ["2"]
    assert doc["x"] == [["1"]]
    assert doc["feasible_prices"] == ["1"]
    doc2 = solution_to_json(solve(scalar_infeasible()))
    assert doc2["verdict"] == "infeasible"
    assert set(doc2["certificate"]) == {"lp_dual", "convex_dual"}
