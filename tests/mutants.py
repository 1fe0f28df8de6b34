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
        killer="tests/test_flownet.py::test_max_flow_money_short_cuts_agree",
    ),
    dict(
        name="cut-from-every-buyer",
        file="flownet.py",
        old="to_sink = _reach(residual, [g + i for i in range(n) if money[g + i]], True)",
        new="to_sink = _reach(residual, [g + i for i in range(n)], True)",
        killer="tests/test_flownet.py::test_max_flow_saturates_single_edge",
    ),
    dict(
        name="sold-out-good-stays-a-start",
        file="flownet.py",
        old="if not price[node]:  # the path's first good",
        new="if False:  # the path's first good",
        killer="tests/test_flownet.py::test_max_flow_interior_edges_never_bind",
    ),
    dict(
        name="max-flow-without-path-cap",
        file="flownet.py",
        old='raise FlowError(f"max-flow did not end within {bound} augmenting paths")',
        new="pass",
        killer="tests/test_flownet.py::"
               "test_max_flow_whose_paths_ship_nothing_raises_at_the_path_bound",
    ),
    # The market's rebalance (fisher.Market).
    dict(
        name="rebalance-without-sell-check",
        file="fisher.py",
        old="if self.flow.value != sum((self.p[j] for j in goods), Fraction(0)):",
        new="if False:",
        killer="tests/test_fisher.py::test_rebalance_rejects_an_active_good_that_no_longer_sells",
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
        old="merged = whole is None",
        new="merged = True",
        killer="tests/test_balanced.py::test_hinted_balanced_flow_matches_the_plain_recursion",
    ),
    dict(
        name="split-rounds-without-charge",
        file="balanced.py",
        old="            cash[r] += x\n        merged",
        new="            pass\n        merged",
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
        old="reuse = whole is not None and full and caps == net.m",
        new="reuse = False",
        killer="tests/test_balanced.py::test_balanced_flow_that_cannot_sell_runs_the_split_rounds",
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
        old="flow.value == target == sum(caps) and verify_property1(net, flow):",
        new="flow.value == target == sum(caps):",
        killer="tests/test_balanced.py::test_gate_rejects_a_round_flow_that_fails_property1",
    ),
    # The margin LP (oracle.feasibility_lp, simplex.maximize).
    dict(
        name="margin-without-shift",
        file="oracle.py",
        old="return value - top",
        new="return value",
        killer="tests/test_oracle.py::test_feasibility_lp_trio",
    ),
    dict(
        name="simplex-accepts-negative-bounds",
        file="simplex.py",
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
