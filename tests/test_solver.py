"""Two-stage exact solver: state setup, both stages, end-to-end solve."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from nashflow import (
    MarketNetwork,
    balanced_flow,
    bang_per_buck,
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
    scalar_feasible,
    scalar_infeasible,
    scaled_network,
    split_infeasible,
    unit_game,
)


# ---------------------------------------------------------------------------
# Initialization (unit-budget equilibrium, then flexible budgets)


def test_initialize_zero_disagreement_is_already_settled():
    state = initialize(unit_game())
    assert state.p == [Fraction(1)]
    assert state.gamma == [Fraction(1)]
    assert state.money == (Fraction(1),)
    assert state.theta == [Fraction(0)]


def test_initialize_saturated_buyer_shows_full_surplus():
    state = initialize(scalar_infeasible())
    assert state.p == [Fraction(1)]
    assert state.money == (Fraction(2),)
    assert state.theta == [Fraction(1)]
    assert state.beta(0) == Fraction(0)


def test_initialize_partial_surplus():
    state = initialize(scalar_feasible())
    assert state.p == [Fraction(1)]
    assert state.gamma == [Fraction(2)]
    assert state.money == (Fraction(3, 2),)
    assert state.theta == [Fraction(1, 2)]
    assert state.beta(0) == Fraction(-1, 2)


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
    low = min(state.beta(i) for i in state.active_buyers)
    block = {i for i in state.active_buyers if state.beta(i) == low}
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
        for buyers, goods in state.frozen[len(groups):]:
            groups.append(({j: state.p[j] for j in goods}, {i: state.gamma[i] for i in buyers}))
            seen["freezes"] += 1
        for (buyers, goods), (prices, ratios) in zip(state.frozen, groups):
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
    # ``bang_per_buck`` over the active buyers returns exactly the market's
    # ratios and edges.  That needs the pairs that tie at a rising stop, the
    # edges a Stage I phase keeps when its stop moves no price, and no edge
    # of a frozen buyer.
    ends = []

    def checked(phase):
        def wrapped(state, *args):
            phase(state, *args)
            buyers = sorted(state.active_buyers)
            gamma, pairs = bang_per_buck([state.u[i] for i in buyers], state.p)
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


def test_market_is_rebuilt_at_the_start_and_after_a_thaw(monkeypatch):
    # ``_rebuild`` re-derives the ratios and edges only at stage 0's start
    # prices and when the restore brings frozen groups back: the price-phase
    # kernel keeps them exact everywhere else.  Outside the kernel and those
    # rebuilds the market rebalances once after each rising phase (stage 0
    # and Stage II), once when the instance's c takes over, and once after
    # each Stage I freeze that leaves some buyer active; a Stage I phase that
    # freezes nothing ends on the network it has just balanced.
    rebuild, rebalance, phase = solver._rebuild, SolverState.rebalance, solver._price_phase
    depth = [0]
    rebuilds, rebalances = [], []

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
    seen = set()
    for seed in range(525):
        rebuilds.clear()
        rebalances.clear()
        inst = gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed)
        sol = solve(inst, collect_trace=True)
        detail = sol.stats.get("detail")
        if detail is None:
            assert rebuilds == rebalances == []
            continue
        freezes = sum(ph["reason"] == "isolated" for ph in detail["stage1_phases"])
        thawed = sol.verdict == "feasible" and freezes > 0
        emptied = sum(len(e["buyers"]) for e in sol.trace if e["type"] == "freeze") == inst.n
        assert len(rebuilds) == 1 + thawed, seed
        expected = detail["fisher_phases"] + 1 + freezes - emptied + len(detail["stage2_phases"])
        assert len(rebalances) == expected, seed
        seen.add((sol.verdict, freezes > 0, emptied))
    assert {("feasible", True, True), ("feasible", False, False), ("infeasible", True, False)} <= seen


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
    # scaled network, built here from the state the update was called on:
    # its prices have just moved, and undoing the move gives back the
    # network whose balanced surpluses the update starts from.
    states = []
    calls = []
    phase = solver._stage2_phase

    def captured(state, name):
        states.append(state)
        return phase(state, name)

    def checked(edges, theta, x, buyers, goods):
        updated = scale_flow(edges, theta, x, buyers, goods)
        state = states[-1]
        net = MarketNetwork(tuple(state.p), state.money, frozenset(edges))
        assert balanced_flow(scaled_network(net, 1 / x, buyers, goods))[1] == tuple(theta)
        _, expected = balanced_flow(net)
        assert updated == expected, (state.inst.u, state.inst.c, x)
        calls.append(state.stage)
        return updated

    monkeypatch.setattr(solver, "_stage2_phase", captured)
    monkeypatch.setattr(solver, "scale_flow", checked)
    for seed in range(525):
        solve(gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed))
    solve(gen_random(12, 12, 1000, 1500, 0))
    assert calls.count(0) > 250 and calls.count(2) > 250


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
