"""Mutant catalogue: guarded lines of ``src/`` and the tests that kill them.

Each entry of ``MUTANTS`` names a module of ``src/nashflow/``, the exact old
text (which must occur there exactly once), the new text, and the test that
must fail once the old text is replaced.  An entry whose mutant no test can
tell apart gives ``equivalent``, the reason, in place of ``killer``.
``tests/test_mutants.py`` checks only that every old text occurs exactly
once and that every killing test exists, so a refactor that moves a guarded
line updates its entry here too.

Run from anywhere, with the names of some entries or with none for all::

    python tests/mutants.py [NAME ...]

Each mutant is applied to a fresh copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory outside the repository, and its
killing test runs there under a timeout, one mutant at a time.  A first run
on the unmutated copy makes sure the killing tests pass.  Each mutant prints
``killed``, ``survived``, ``timed out``, ``error`` (pytest could not run the
test) or ``equivalent``; the exit status is 1 unless every mutant that is
not equivalent was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run
VERDICTS = {"fail": "killed", "pass": "survived", "timeout": "timed out"}

MUTANTS = [
    # The flow core (flownet.max_flow).
    dict(
        name="bottleneck-without-money-room",
        file="flownet.py",
        old="bottleneck = min(price[node], money[last], *(cap[arc] for arc in path))",
        new="bottleneck = min(price[node], *(cap[arc] for arc in path))",
        killer="tests/test_flownet.py::"
               "test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them",
    ),
    dict(
        name="cut-from-every-buyer",
        file="flownet.py",
        old="to_sink = _reach(residual, [g + i for i in range(n) if money[g + i]], True)",
        new="to_sink = _reach(residual, [g + i for i in range(n)], True)",
        killer="tests/test_flownet.py::test_max_flow_money_short_cuts_agree",
    ),
    dict(
        name="sold-out-good-stays-a-start",
        file="flownet.py",
        old="if not price[node]:  # the path's first good",
        new="if False:  # the path's first good",
        killer="tests/test_flownet.py::"
               "test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them",
    ),
    dict(
        name="max-flow-without-path-cap",
        file="flownet.py",
        old='raise FlowError(f"max-flow did not end within {bound} augmenting paths")',
        new="pass",
        killer="tests/test_flownet.py::"
               "test_max_flow_whose_paths_ship_nothing_raises_at_the_path_bound",
    ),
    # The direct-pair sweep (flownet.max_flow).
    dict(
        name="sweep-goods-reversed",
        file="flownet.py",
        old="for j in range(g):\n            room = price[j]",
        new="for j in reversed(range(g)):\n            room = price[j]",
        killer="tests/test_flownet.py::"
               "test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them",
    ),
    dict(
        name="sweep-arcs-reversed",
        file="flownet.py",
        old="for arc in head[j]:",
        new="for arc in reversed(head[j]):",
        killer="tests/test_flownet.py::"
               "test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them",
    ),
    dict(
        name="sweep-push-past-the-money-room",
        file="flownet.py",
        old="bottleneck = min(room, money[buyer])",
        new="bottleneck = room",
        killer="tests/test_flownet.py::"
               "test_max_flow_sweeps_the_direct_pairs_as_the_reference_searches_them",
    ),
    # The forest peel (flownet.max_flow).
    dict(
        name="peel-without-mass-check",
        file="flownet.py",
        old="peeled = len(pairs) < g + n and mass == sum(money)",
        new="peeled = len(pairs) < g + n",
        killer="tests/test_flownet.py::test_max_flow_peels_exactly_the_saturating_forests",
    ),
    dict(
        name="peel-accepts-an-overdraw",
        file="flownet.py",
        old="if room[node] < room[leaf]:  # an overdraw: no flow saturates",
        new="if False:",
        killer="tests/test_flownet.py::test_max_flow_peels_exactly_the_saturating_forests",
    ),
    dict(
        name="peel-accepts-unsettled-pairs",
        file="flownet.py",
        old="peeled = peeled and -1 not in settled and not any(room[:g])",
        new="peeled = peeled and not any(room[:g])",
        killer="tests/test_flownet.py::test_max_flow_augments_a_cycle_whose_leaves_sell_its_goods",
    ),
    dict(
        name="peeled-far-side-drops-a-buyer",
        file="flownet.py",
        old="far_side = (frozenset(range(n)), frozenset(range(g)))",
        new="far_side = (frozenset(range(1, n)), frozenset(range(g)))",
        killer="tests/test_flownet.py::test_max_flow_peels_exactly_the_saturating_forests",
    ),
    dict(
        name="peel-leaves-the-residual-graph",
        file="flownet.py",
        old="cap = [c for f in settled for c in (unbounded - f, f)]",
        new="pass",
        killer="tests/test_flownet.py::test_max_flow_peels_exactly_the_saturating_forests",
    ),
    # The market's rebalance (fisher.Market).
    dict(
        name="rebalance-without-sell-check",
        file="fisher.py",
        old="if self.flow.value != sum(self.flow.net.p):",
        new="if False:",
        killer="tests/test_fisher.py::test_rebalance_rejects_an_active_good_that_no_longer_sells",
    ),
    # A fixed-budget phase end (fisher.fisher_equilibrium) re-derives the
    # buyers the move left with no edge.
    dict(
        name="phase-end-rebuild-skips-edgeless-buyers",
        file="fisher.py",
        old="_rebuild(market, market.active_buyers - {i for (i, _) in market.edges})",
        new="_rebuild(market, set())",
        killer="tests/test_fisher.py::"
               "test_phase_ends_rederive_only_the_buyers_left_without_an_edge",
    ),
    # The edge rule: the kernel's move (fisher._scale), its stop
    # (fisher._price_phase) and Stage I's freeze (solver._stage1_phase) keep
    # the market's edges its best-ratio edges.
    dict(
        name="stop-without-tied-pairs",
        file="fisher.py",
        old="market.edges.update(tied)",
        new="pass",
        killer="tests/test_solver.py::test_phase_ends_leave_the_market_on_its_best_ratio_edges",
    ),
    dict(
        name="stop-tie-without-price-scale",
        file="fisher.py",
        old="if u[i][j] * ratio[i][1] * scale == ratio[i][0] * price[j]]",
        new="if u[i][j] * ratio[i][1] == ratio[i][0] * price[j]]",
        killer="tests/test_solver.py::test_phase_ends_leave_the_market_on_its_best_ratio_edges",
    ),
    dict(
        name="block-ratio-scaled-by-x",
        file="fisher.py",
        old="num, den = num * b, den * a",
        new="num, den = num * a, den * b",
        killer="tests/test_solver.py::test_rebalance_keeps_edges_tight_and_ratios_current",
    ),
    dict(
        name="price-move-without-gcd",
        file="fisher.py",
        old="d = gcd(scale, *price)",
        new="d = 1",
        killer="tests/test_solver.py::"
               "test_the_integer_market_is_its_fraction_reference_on_the_golden_set",
    ),
    dict(
        name="budget-numerator-from-the-wrong-half",
        file="flownet.py",
        old="out.append((cd + cn * den, cd))",
        new="out.append((cd + cn * num, cd))",
        killer="tests/test_solver.py::"
               "test_the_integer_market_is_its_fraction_reference_on_the_golden_set",
    ),
    dict(
        name="budget-without-the-ratio-denominator",
        file="flownet.py",
        old="out.append((cd + cn * den, cd))",
        new="out.append((cd + cn, cd))",
        killer="tests/test_flownet.py::"
               "test_build_network_is_the_fraction_reference_on_the_golden_shapes",
    ),
    dict(
        name="move-keeps-crossing-edges",
        file="fisher.py",
        old="market.edges -= crossing",
        new="pass",
        killer="tests/test_solver.py::test_phase_ends_leave_the_market_on_its_best_ratio_edges",
    ),
    dict(
        name="tight-search-on-crossing-edges",
        file="fisher.py",
        old="edges = [e for e in self.edges if (e[0] in block) == (e[1] in goods)]",
        new="edges = self.edges",
        killer="tests/test_fisher.py::test_tight_search_matches_the_reference_descent",
    ),
    dict(
        name="freeze-keeps-frozen-edges",
        file="solver.py",
        old="state.edges -= {e for e in state.edges if e[0] in target}",
        new="pass",
        killer="tests/test_solver.py::test_phase_ends_leave_the_market_on_its_best_ratio_edges",
    ),
    # The fixed-budget tight stop (fisher._FixedBudgets) and the rising
    # loop's stop (solver._stage2_phase).
    dict(
        name="descent-without-progress-check",
        file="fisher.py",
        old="if not (1 <= x_new < x):",
        new="if False:",
        killer="tests/test_fisher.py::test_tight_descent_rejects_a_stale_cut",
    ),
    dict(
        name="rising-stop-lets-a-tied-edge-through",
        file="solver.py",
        old="if x_edge is not None and x_edge < stretch:",
        new="if x_edge is not None and x_edge <= stretch:",
        killer="tests/test_fisher.py::"
               "test_stage0_reaches_the_fixed_budget_equilibrium_by_its_tight_events",
    ),
    # The integer reads of the surpluses over the market's scale
    # (solver.stage1 and the rising stop).
    dict(
        name="stage1-sum-over-unit-scale",
        file="solver.py",
        old="if sum([theta[i] for i in active]) >= len(active) * scale:",
        new="if sum([theta[i] for i in active]) >= len(active):",
        killer="tests/test_solver.py::test_stage1_verdict_matches_the_margin_program_sign",
    ),
    dict(
        name="stretch-at-the-block-peak",
        file="solver.py",
        old="low = min([theta[i] for i in block])",
        new="low = max([theta[i] for i in block])",
        killer="tests/test_fisher.py::"
               "test_stage0_reaches_the_fixed_budget_equilibrium_by_its_tight_events",
    ),
    # The balanced-flow loop and its gate (balanced.balanced_flow).
    dict(
        name="round-cap-doubled",
        file="balanced.py",
        old="for attempt in range(2 * n + 3):",
        new="for attempt in range(4 * n + 6):",
        killer="tests/test_balanced.py::"
               "test_balanced_flow_over_a_broken_flow_core_raises_within_2n_plus_3_max_flows",
    ),
    dict(
        name="split-rounds-merge",
        file="balanced.py",
        old="if whole is None:  # split rounds never merge",
        new="if True:  # split rounds never merge",
        killer="tests/test_balanced.py::test_hinted_balanced_flow_matches_the_plain_recursion",
    ),
    dict(
        name="guess-proof-misses-a-due-merge",
        file="balanced.py",
        old="due = True  # the union-find loop merges, from the first edge on",
        new="due = False",
        killer="tests/test_balanced.py::test_guess_round_matches_its_former_loop_call_by_call",
    ),
    dict(
        name="split-rounds-without-charge",
        file="balanced.py",
        old="            cash[r] += x\n        due = False",
        new="            pass\n        due = False",
        killer="tests/test_balanced.py::test_balanced_flow_that_cannot_sell_runs_the_split_rounds",
    ),
    dict(
        name="charge-to-the-outside-part",
        file="balanced.py",
        old="charge = {side[r, True]: x for r, x in charge.items() if (r, True) in side}",
        new="charge = {side[r, False]: x for r, x in charge.items() if (r, False) in side}",
        killer="tests/test_balanced.py::test_balanced_flow_matches_reference_on_random_networks",
    ),
    dict(
        name="split-rounds-on-all-edges",
        file="balanced.py",
        old="inner = net.edges if whole is None or final else frozenset(",
        new="inner = net.edges if True else frozenset(",
        killer="tests/test_balanced.py::test_balanced_flow_without_a_hint_can_miss_on_a_sellable_network",
    ),
    dict(
        name="whole-flow-never-reused",
        file="balanced.py",
        old="reuse = whole is not None and full and mult == 1 and caps == money",
        new="reuse = False",
        killer="tests/test_balanced.py::test_balanced_flow_that_cannot_sell_runs_the_split_rounds",
    ),
    dict(
        name="gate-property1-on-the-unscaled-network",
        file="balanced.py",
        old="net if mult == 1 else MarketNetwork(",
        new="net if True else MarketNetwork(",
        killer="tests/test_balanced.py::test_guess_round_matches_its_former_loop_call_by_call",
    ),
    dict(
        name="gate-without-level-range",
        file="balanced.py",
        old="if full and fits and flow.value",
        new="if full and flow.value",
        killer="tests/test_balanced.py::test_gate_rejects_a_split_round_level_below_zero",
    ),
    dict(
        name="gate-without-property1",
        file="balanced.py",
        old="flow.value == target * mult == sum(caps) and verify_property1(",
        new="flow.value == target * mult == sum(caps) and (lambda *_: True)(",
        killer="tests/test_balanced.py::test_gate_rejects_a_round_flow_that_fails_property1",
    ),
    # The closed form at a rising stop (balanced.scale_flow) and the phase
    # end that keeps it or rebalances (solver._stage2_phase).
    dict(
        name="scaled-flow-on-a-subset-of-edges",
        file="balanced.py",
        old="if not keep or net.edges != flow.net.edges:",
        new="if not keep or not net.edges <= flow.net.edges:",
        killer="tests/test_solver.py::test_a_stop_that_dropped_an_edge_rebalances",
    ),
    dict(
        name="scaled-flow-kept-after-tied-pairs",
        file="solver.py",
        old="if state.edges != state.flow.net.edges:",
        new="if not state.edges >= state.flow.net.edges:",
        killer="tests/test_solver.py::test_every_kept_scaled_flow_is_the_rebalance_it_replaces",
    ),
    dict(
        name="phase-end-without-rebalance",
        file="solver.py",
        old="    if state.edges != state.flow.net.edges:\n        state.rebalance()\n",
        new="",
        killer="tests/test_solver.py::test_every_surplus_a_stage_reads_is_over_the_flows_scale",
    ),
    dict(
        name="phi-end-before-the-phase-end-rebalance",
        file="solver.py",
        old=("    if state.edges != state.flow.net.edges:\n        state.rebalance()\n"
             "    if record:\n        state.stats[\"stage2_phases\"].append(\n"
             "            {\"iterations\": iterations, \"phi_start\": phi_start, "
             "\"phi_end\": state.l2()}\n        )\n"),
        new=("    if record:\n        state.stats[\"stage2_phases\"].append(\n"
             "            {\"iterations\": iterations, \"phi_start\": phi_start, "
             "\"phi_end\": state.l2()}\n        )\n"
             "    if state.edges != state.flow.net.edges:\n        state.rebalance()\n"),
        killer="tests/test_solver.py::test_every_surplus_a_stage_reads_is_over_the_flows_scale",
    ),
    dict(
        name="scaled-flow-block-left-unscaled",
        file="balanced.py",
        old="paid = [f * a if e[0] in buyers else f * b for e, f in flow.pair_flow.items()]",
        new="paid = [f * b for e, f in flow.pair_flow.items()]",
        killer="tests/test_solver.py::test_a_stop_that_dropped_an_edge_rebalances",
    ),
    dict(
        name="scaled-flow-unchecked-against-its-network",
        file="balanced.py",
        old="if any(q * common != v * net.scale for q, v in amounts):",
        new="if False:",
        killer="tests/test_balanced.py::test_scale_flow_rejects_a_network_its_flow_does_not_price",
    ),
    dict(
        name="scaled-flow-formed-at-an-edge-tie",
        file="solver.py",
        old="state.flow, theta, stretch, block, goods, state.network(), x_edge != stretch)",
        new="state.flow, theta, stretch, block, goods, state.network(), True)",
        killer="tests/test_solver.py::test_every_scaled_flow_a_stop_forms_is_kept",
    ),
    dict(
        name="scaled-flow-gate-without-value",
        file="balanced.py",
        old="if not (value == sum(price) == sum(caps) and verify_property1(",
        new="if not (verify_property1(",
        killer="tests/test_balanced.py::test_scale_flow_rejects_a_scaled_flow_that_sells_short",
    ),
    dict(
        name="scaled-flow-gate-without-property1",
        file="balanced.py",
        old="== sum(caps) and verify_property1(\n            MarketNetwork(price,",
        new="== sum(caps) and (lambda *_: True)(\n            MarketNetwork(price,",
        killer="tests/test_balanced.py::test_scale_flow_rejects_a_scaled_flow_that_fails_property1",
    ),
    # The integer hand-off: levels, caps and prices over scale * mult.
    dict(
        name="gate-target-without-mult",
        file="balanced.py",
        old="flow.value == target * mult == sum(caps)",
        new="flow.value == target == sum(caps)",
        killer="tests/test_balanced.py::test_balanced_flow_splits_contested_good_evenly",
    ),
    dict(
        name="return-over-scale-without-mult",
        file="balanced.py",
        old="flow = whole if reuse else max_flow(MarketNetwork(prices, caps, inner, scale * mult))",
        new="flow = whole if reuse else max_flow(MarketNetwork(prices, caps, inner, scale))",
        killer="tests/test_balanced.py::"
               "test_balanced_flow_hands_the_flow_core_integers_and_returns_the_reference_flow",
    ),
    dict(
        name="round-caps-from-a-generator",
        file="balanced.py",
        old="caps = tuple([max(x * mult - t, 0) for x, t in zip(money, theta)])",
        new="caps = tuple(max(x * mult - t, 0) for x, t in zip(money, theta))",
        killer="tests/test_balanced.py::test_solves_hold_the_tuple_free_lists_steady",
    ),
    dict(
        name="int-network-returns-fractions",
        file="flownet.py",
        old="pair_flow[(i, j)] = f\n",
        new="pair_flow[(i, j)] = Fraction(f, net.scale)\n",
        killer="tests/test_flownet.py::"
               "test_max_flow_of_a_network_scaled_to_integers_is_the_scaled_flow",
    ),
    dict(
        name="max-flow-forgets-its-scale",
        file="flownet.py",
        old="return FlowResult(value, pair_flow, far_side, net, residual, net.scale)",
        new="return FlowResult(value, pair_flow, far_side, net, residual)",
        killer="tests/test_flownet.py::"
               "test_max_flow_of_a_network_scaled_to_integers_is_the_scaled_flow",
    ),
    # The one network assembly (flownet.int_network): the market's, the
    # checkers' and the tight search's networks over their least common
    # denominator.  The checkers and the tight search hand in reduced
    # denominators, so only a market's unreduced budget pairs and zeroed
    # inactive prices need the gcd.
    dict(
        name="network-assembly-without-gcd",
        file="flownet.py",
        old="d = gcd(common, *amounts)",
        new="d = 1",
        killer="tests/test_solver.py::"
               "test_the_integer_market_is_its_fraction_reference_on_the_golden_set",
    ),
    # Input validation (instance.make_instance, instance.parse_instance).
    dict(
        name="ragged-rows-accepted",
        file="instance.py",
        old="if len(row) != width:",
        new="if False:",
        killer="tests/test_instance.py::test_parse_instance_rejects_malformed",
    ),
    dict(
        name="bool-utilities-accepted",
        file="instance.py",
        old="if isinstance(entry, bool) or not isinstance(entry, int):",
        new="if not isinstance(entry, int):",
        killer="tests/test_instance.py::test_parse_instance_rejects_malformed",
    ),
    dict(
        name="negative-payoffs-accepted",
        file="instance.py",
        old="if ci < 0:",
        new="if False:",
        killer="tests/test_instance.py::test_parse_instance_rejects_malformed",
    ),
    dict(
        name="unknown-keys-accepted",
        file="instance.py",
        old="if extra:",
        new="if False:",
        killer="tests/test_instance.py::test_parse_instance_rejects_malformed",
    ),
    # Claim parsing for ``nashflow check`` (cli._check_claim and helpers).
    dict(
        name="claim-memo-keys-every-value",
        file="cli.py",
        old="if isinstance(v, str):",
        new="if True:",
        killer="tests/test_cli.py::test_malformed_input_exits_one_without_traceback",
    ),
    dict(
        name="bool-index-accepted",
        file="cli.py",
        old="if isinstance(value, bool) or not isinstance(value, int):",
        new="if not isinstance(value, int):",
        killer="tests/test_cli.py::test_malformed_input_exits_one_without_traceback",
    ),
    dict(
        name="claim-object-unchecked",
        file="cli.py",
        old="if not isinstance(value, dict):",
        new="if False:",
        killer="tests/test_cli.py::test_malformed_input_exits_one_without_traceback",
    ),
    # The checkers' rejections (certify).
    dict(
        name="kkt-oversold-bound-doubled",
        file="certify.py",
        old="if sold[j] > 1:",
        new="if sold[j] > 2:",
        killer="tests/test_certify.py::test_check_kkt_rejects_a_valueless_good_sold_half_again_over",
    ),
    dict(
        name="kkt-accepts-a-zero-gain",
        file="certify.py",
        old="if gn <= 0:",
        new="if gn < 0:",
        killer="tests/test_certify.py::"
               "test_check_kkt_rejects_a_buyer_left_at_the_disagreement_payoff",
    ),
    dict(
        name="kkt-row-pass-skips-support-equality",
        file="certify.py",
        old="if a * gn != row[j] * b * gd:",
        new="if False:",
        killer="tests/test_certify.py::"
               "test_check_kkt_matches_the_pair_by_pair_check_on_single_changes",
    ),
    dict(
        name="kkt-row-pass-strict",
        file="certify.py",
        old="if a * gn < w * b * gd:",
        new="if a * gn <= w * b * gd:",
        killer="tests/test_certify.py::"
               "test_check_kkt_matches_the_pair_by_pair_check_on_single_changes",
    ),
    dict(
        name="witness-prices-valueless-goods",
        file="certify.py",
        old="if p[j] != 0:",
        new="if False:",
        killer="tests/test_certify.py::test_witness_rejects_a_priced_valueless_good",
    ),
    dict(
        name="lp-dual-without-unit-sum",
        file="certify.py",
        old="if sum(y, Fraction(0)) != 1:",
        new="if False:",
        killer="tests/test_certify.py::test_verify_lp_dual_rejects_weights_that_do_not_sum_to_one",
    ),
    dict(
        name="lp-dual-without-price-cover",
        file="certify.py",
        old="if u * a * d > c * b:",
        new="if False:",
        killer="tests/test_certify.py::"
               "test_verify_lp_dual_rejects_a_good_priced_below_a_weighted_utility",
    ),
    dict(
        name="lp-dual-cover-rejects-equality",
        file="certify.py",
        old="if u * a * d > c * b:",
        new="if u * a * d >= c * b:",
        killer="tests/test_certify.py::"
               "test_verify_lp_dual_matches_the_fraction_check_on_the_golden_certificates",
    ),
    dict(
        name="lp-dual-gap-loosened",
        file="certify.py",
        old="return gap >= 0",
        new="return gap >= -1",
        killer="tests/test_certify.py::test_verify_lp_dual_rejects_a_negative_gap",
    ),
    # The margin LP (oracle.feasibility_lp, oracle.maximize).
    dict(
        name="margin-without-shift",
        file="oracle.py",
        old="return value - top",
        new="return value",
        killer="tests/test_oracle.py::test_feasibility_lp_trio",
    ),
    dict(
        name="simplex-accepts-negative-bounds",
        file="oracle.py",
        old="if b < 0:",
        new="if False:",
        killer="tests/test_oracle.py::test_simplex_requires_nonnegative_bounds_and_a_bounded_objective",
    ),
]


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tree, tests):
    """Run ``tests`` in ``tree``: ``pass``, ``fail``, ``timeout`` or an ``error`` line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "pass", 1: "fail"}.get(code, f"error (pytest exit {code})")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutant among {names}", file=sys.stderr)
        return 2
    killers = sorted({m["killer"] for m in chosen if "killer" in m})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        clean = _pytest(Path(tmp), killers) if killers else "pass"
    if clean != "pass":
        print(f"the killing tests do not pass without a mutant: {clean}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        if "equivalent" in mutant:
            print(f"{mutant['name']}: equivalent ({mutant['equivalent']})")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            _copy(tree)
            path = tree / "src" / "nashflow" / mutant["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(mutant["old"]) != 1:
                outcome = "error (old text does not occur exactly once)"
            else:
                path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
                outcome = _pytest(tree, [mutant["killer"]])
        verdict = VERDICTS.get(outcome, outcome)
        failed += verdict != "killed"
        print(f"{mutant['name']}: {verdict} ({mutant['killer']})", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed or equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
