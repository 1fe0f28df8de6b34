"""Command-line interface: verbs, exit codes, JSON I/O, determinism."""

import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashflow import (
    BalanceError,
    FisherError,
    FlowError,
    SolverError,
    gen_random,
    parse_instance,
    solution_to_json,
    solve,
)
from nashflow.cli import main


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def feasible_file(tmp_path):
    path = tmp_path / "feasible.json"
    path.write_text('{"u":[[2]],"c":["1"]}')
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "infeasible.json"
    path.write_text('{"u":[[1]],"c":["1"]}')
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_feasible_exits_zero_with_exact_prices(run, feasible_file):
    code, out, _ = run(["solve", feasible_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "feasible"
    assert doc["p"] == ["2"]
    assert doc["v"] == ["2"]
    assert doc["x"] == [["1"]]


def test_solve_infeasible_exits_two_with_certificates(run, infeasible_file):
    code, out, _ = run(["solve", infeasible_file])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "infeasible"
    assert set(doc["certificate"]) == {"lp_dual", "convex_dual"}


def test_solve_reads_stdin(run):
    code, out, _ = run(["solve", "-"], stdin_text='{"u":[[2]],"c":["1"]}')
    assert code == 0
    assert json.loads(out)["p"] == ["2"]


def test_solve_output_is_byte_deterministic(run, feasible_file):
    _, first, _ = run(["solve", feasible_file])
    _, second, _ = run(["solve", feasible_file])
    assert first == second


def test_solve_cross_check_passes_on_small_instances(run, feasible_file):
    code, out, _ = run(["solve", feasible_file, "--cross-check"])
    assert code == 0
    assert json.loads(out)["verdict"] == "feasible"


def test_solve_cross_check_past_the_oracle_cap_still_runs_the_rest(run, tmp_path, monkeypatch):
    # 14 positive pairs exceed the oracle's cap of 12: only the oracle
    # comparison is skipped, and the limit iteration and margin program run.
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(gen_random(4, 4, 5, 2, 3).to_json_dict()))
    code, out, err = run(["solve", str(path), "--cross-check"])
    assert code == 0 and json.loads(out)["verdict"] == "feasible"
    assert err.count("\n") == 2 and "oracle comparison skipped" in err
    assert err.endswith("cross-check passed\n")
    monkeypatch.setattr("nashflow.cli.feasibility_lp", lambda inst: 0)
    code, out, err = run(["solve", str(path), "--cross-check"])
    assert code == 1 and out == ""
    assert "margin program disagrees" in err


def test_solve_writes_trace_file(run, feasible_file, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run(["solve", feasible_file, "--trace", str(trace_path)])
    assert code == 0
    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert entries[0]["type"] == "initialized"
    assert any(e["type"] == "tight" for e in entries)
    assert entries[-1]["type"] == "equilibrium"


# Feasible; partition-infeasible with a valueless good; a buyer who values
# nothing.
PINNED_INSTANCES = (
    '{"u": [[3, 1, 0], [1, 2, 2], [0, 1, 4]], "c": ["1/2", "0", "1"]}',
    '{"u": [[1, 0, 0], [0, 1, 0]], "c": ["2", "0"]}',
    '{"u": [[0, 0], [1, 2]], "c": ["0", "1"]}',
)
CLI_ANSWERS_SHA256 = "022549999f9049ba384a118b5410f89cc18f6c4d2c3247d125088ce9c5e7b852"
# The ``stats`` object of each instance's ``solve`` output, key order included.
CLI_STATS = [
    '{"phases": 2, "iterations": 2, "maxflows": 6}',
    '{"phases": 0, "iterations": 0, "maxflows": 2}',
    '{"phases": 0, "iterations": 0, "maxflows": 0}',
]
_STATS_OBJECT = re.compile(r'(\n  "stats": )\{.*?\n  \}', re.S)


def test_cli_output_bytes_are_pinned(run, tmp_path):
    """Exact stdout and exit codes, key order included, of the JSON verbs.

    Each ``solve``'s ``stats`` object is cut out of its stdout before
    hashing and compared on its own, so answers and work counts are pinned
    apart.
    """
    h = hashlib.sha256()
    stats = []
    for k, text in enumerate(PINNED_INSTANCES):
        inst = tmp_path / f"instance{k}.json"
        inst.write_text(text)
        trace = tmp_path / f"trace{k}.jsonl"
        code, out, _ = run(["solve", str(inst), "--trace", str(trace)])
        sol = tmp_path / f"solution{k}.json"
        sol.write_text(out)
        stats.append(json.dumps(json.loads(out)["stats"]))
        answers, cuts = _STATS_OBJECT.subn(r"\1{}", out)
        assert cuts == 1
        h.update(f"{code}\n{answers}".encode())
        h.update(trace.read_bytes())
        for argv in (
            ["check", str(inst), str(sol)],
            ["oracle", str(inst)],
            ["limit", str(inst), "--max-iter", "30"],
        ):
            code, out, _ = run(argv)
            h.update(f"{code}\n{out}".encode())
    code, out, _ = run(["gen", "l1adv", "--n", "5"])
    h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == CLI_ANSWERS_SHA256
    assert stats == CLI_STATS


# ---------------------------------------------------------------------------
# check


def test_check_validates_solver_output(run, feasible_file, tmp_path):
    sol_path = tmp_path / "solution.json"
    code, _, _ = run(["solve", feasible_file, "--output", str(sol_path)])
    assert code == 0
    code2, out2, _ = run(["check", feasible_file, str(sol_path)])
    assert code2 == 0
    assert json.loads(out2) == {"valid": True, "reason": "ok"}


def test_solve_and_check_print_rationals_past_the_digit_limit(run, tmp_path):
    # Every integer in the instance is under Python's 4300-digit limit on
    # integer string conversion, but the exact prices have 8101-digit
    # numerators.  Both verbs lift the limit for the call only.
    a, b = 10**4000 + 7, 10**3999 + 3
    c, d = 10**4100 + 9, 10**4100 + 13
    inst_path, sol_path = tmp_path / "instance.json", tmp_path / "solution.json"
    inst_path.write_text(f'{{"u": [[{a}, {b}], [{b}, {a}]], "c": ["{c - 1}/{c}", "{d - 5}/{d}"]}}')
    limit = sys.get_int_max_str_digits()
    code, _, err = run(["solve", str(inst_path), "--output", str(sol_path)])
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(["check", str(inst_path), str(sol_path)])
    assert code == 0
    assert json.loads(out) == {"valid": True, "reason": "ok"}
    assert sys.get_int_max_str_digits() == limit


def test_check_validates_infeasibility_certificates(run, infeasible_file, tmp_path):
    sol_path = tmp_path / "solution.json"
    code, _, _ = run(["solve", infeasible_file, "--output", str(sol_path)])
    assert code == 2
    code2, out2, _ = run(["check", infeasible_file, str(sol_path)])
    assert code2 == 0
    assert json.loads(out2)["valid"] is True


def test_check_rejects_tampered_prices(run, feasible_file, tmp_path):
    sol_path = tmp_path / "solution.json"
    run(["solve", feasible_file, "--output", str(sol_path)])
    doc = json.loads(sol_path.read_text())
    doc["p"] = ["3"]
    sol_path.write_text(json.dumps(doc))
    code, out, _ = run(["check", feasible_file, str(sol_path)])
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize(
    "v, reason",
    [
        (["3"], "claimed utilities do not match the allocation"),
        (None, "feasible claim lacks prices, allocation or utilities"),
    ],
)
def test_check_rejects_wrong_or_missing_utilities(run, feasible_file, tmp_path, v, reason):
    sol_path = tmp_path / "solution.json"
    run(["solve", feasible_file, "--output", str(sol_path)])
    doc = json.loads(sol_path.read_text())
    if v is None:
        del doc["v"]
    else:
        doc["v"] = v
    sol_path.write_text(json.dumps(doc))
    code, out, _ = run(["check", feasible_file, str(sol_path)])
    assert (code, json.loads(out)) == (1, {"valid": False, "reason": reason})


def test_check_rejects_certificate_swapped_to_wrong_instance(run, infeasible_file, tmp_path):
    sol_path = tmp_path / "solution.json"
    run(["solve", infeasible_file, "--output", str(sol_path)])
    other = tmp_path / "other.json"
    other.write_text('{"u":[[2]],"c":["1"]}')
    code, out, _ = run(["check", str(other), str(sol_path)])
    assert code == 1
    assert json.loads(out)["valid"] is False


# ---------------------------------------------------------------------------
# oracle


def test_oracle_verb_reports_the_reference_solution(run, feasible_file):
    code, out, _ = run(["oracle", feasible_file])
    assert code == 0
    assert json.loads(out) == {"verdict": "feasible", "p": ["2"], "v": ["2"]}


def test_oracle_verb_infeasible_exit(run, infeasible_file):
    code, out, _ = run(["oracle", infeasible_file])
    assert code == 2
    assert json.loads(out) == {"verdict": "infeasible"}


# ---------------------------------------------------------------------------
# gen


def test_gen_random_emits_a_solvable_instance(run, tmp_path):
    code, out, _ = run(["gen", "random", "--n", "2", "--g", "2", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"u", "c"}
    inst_path = tmp_path / "gen.json"
    inst_path.write_text(out)
    code2, out2, _ = run(["solve", str(inst_path)])
    assert code2 in (0, 2)
    assert json.loads(out2)["verdict"] in ("feasible", "infeasible")


def test_gen_l1adv_emits_the_ladder_configuration(run):
    code, out, _ = run(["gen", "l1adv", "--n", "2", "--big", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["money"] == ["2", "1921/3840", "5/2"]
    assert doc["prices"] == ["1", "1/2", "5/2"]
    assert doc["u"][0][:2] == [3841, 1920]


def test_gen_wireless_adapts_states_to_goods(run):
    code, out, err = run(
        ["gen", "wireless", "--input", "-"],
        stdin_text='{"pi":["1/2","1/2"],"rates":[[2,2]],"c":["0"]}',
    )
    assert code == 0
    assert json.loads(out) == {"u": [[2, 2]], "c": ["0"]}
    assert "money scale: 2" in err


# ---------------------------------------------------------------------------
# limit


def test_limit_verb_reports_convergence(run, feasible_file):
    code, out, _ = run(["limit", feasible_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["reason"] == "eps"
    assert doc["converged"] is True
    assert doc["iterations"] == 20


def test_limit_verb_honors_max_iter(run, feasible_file):
    code, out, _ = run(["limit", feasible_file, "--max-iter", "5"])
    assert code == 0
    assert json.loads(out)["iterations"] == 5


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_limit_verb_rejects_max_iter_below_one(run, feasible_file, max_iter):
    code, out, err = run(["limit", feasible_file, "--max-iter", max_iter])
    assert code == 1
    assert out == ""
    assert err == "error: max_iter must be at least 1\n"


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_budget_table(run):
    code, out, _ = run(["bench", "--count", "2", "--n", "2", "--g", "2", "--seed", "0"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert list(row) == ["seed", "n", "g", "verdict", "phases", "iterations",
                             "maxflows", "budget", "within_budget"]
        assert row["within_budget"] is True  # every run stays within budget


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_exits_one(run, tmp_path):
    code, _, err = run(["solve", str(tmp_path / "missing.json")])
    assert code == 1
    assert err.startswith("error:")


def test_invalid_instance_exits_one(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"u":[[1]],"c":["-1"]}')
    code, _, err = run(["solve", str(path)])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, instance, solution",
    [
        (["check"], '{"u":[[1]],"c":["1"]}', "[]"),
        (
            ["check"],
            '{"u":[[1]],"c":["1"]}',
            '{"verdict":"infeasible","certificate":{"lp_dual":{"y":null}}}',
        ),
        (["solve"], '{"u":[[1,2]],"c":5}', None),
        (["solve"], '{"u":5,"c":[1]}', None),
        # Nesting deeper than the JSON decoder's recursion limit.
        pytest.param(["solve"], "[" * 100000 + "]" * 100000, None, id="deep-instance"),
        pytest.param(["check"], '{"u":[[1]],"c":["1"]}', "[" * 100000 + "]" * 100000,
                     id="deep-solution"),
        # A boolean after a one: the parse memo keys on strings alone, so
        # ``true`` (equal to 1, and hashed alike) is still rejected.
        pytest.param(["check"], '{"u":[[1,1]],"c":["1"]}',
                     '{"verdict":"feasible","p":["1","1"],"x":[["1",true]],"v":["1"]}',
                     id="bool-after-string-one"),
        pytest.param(["check"], '{"u":[[1,1]],"c":["1"]}',
                     '{"verdict":"feasible","p":["1","1"],"x":[[1,true]],"v":["1"]}',
                     id="bool-after-int-one"),
        pytest.param(["solve"], '{"u":[[1]],"c":["1e10000000"]}', None, id="exponent-payoff"),
        # ``true`` is not buyer 1, though it indexes the zero row as 1 would.
        pytest.param(["check"], '{"u":[[1],[0]],"c":["0","0"]}',
                     '{"verdict":"infeasible","certificate":{"convex_dual":{"zero_row":true}}}',
                     id="bool-zero-row"),
    ],
)
def test_malformed_input_exits_one_without_traceback(run, tmp_path, argv, instance, solution):
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(instance)
    argv = argv + [str(inst_path)]
    if solution is not None:
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(solution)
        argv.append(str(sol_path))
    code, _, err = run(argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payload",
    [
        '{"pi":["1/2","1/2"],"rates":[[2.7, true]],"c":"0"}',
        '{"pi":["1"],"rates":"3","c":["0"]}',
        "[1]",
        '{"pi":5,"rates":[[1]],"c":["0"]}',
        '{"pi":["1"],"rates":[[1]],"c":5}',
    ],
)
def test_gen_wireless_rejects_malformed_payload(run, payload):
    code, out, err = run(["gen", "wireless", "--input", "-"], stdin_text=payload)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stdin_text, key",
    [
        (["check", "instance", "-"],
         '{"verdict":"infeasible","certificate":{"lp_dual":{"z":["0","0"]}}}', "y"),
        (["check", "instance", "-"],
         '{"verdict":"infeasible","certificate":{"convex_dual":{"buyers":[0],"goods":[0]}}}',
         "p"),
        (["gen", "wireless", "--input", "-"], '{"pi":["1"],"rates":[[1]]}', "c"),
    ],
)
def test_missing_key_is_named(run, feasible_file, argv, stdin_text, key):
    argv = [feasible_file if a == "instance" else a for a in argv]
    code, out, err = run(argv, stdin_text=stdin_text)
    assert code == 1
    assert out == ""
    assert err == f"error: missing key '{key}'\n"


def test_unparseable_json_exits_one(run, tmp_path):
    path = tmp_path / "notjson.json"
    path.write_text("not json")
    code, _, _ = run(["solve", str(path)])
    assert code == 1


@pytest.mark.parametrize("error", [SolverError, BalanceError, FisherError, FlowError])
def test_internal_invariant_failure_exits_three(run, monkeypatch, feasible_file, error):
    def broken(state):
        raise error("stage I lost its deficit buyer")

    monkeypatch.setattr("nashflow.solver.stage1", broken)
    code, out, err = run(["solve", feasible_file])
    assert code == 3
    assert out == ""
    assert err == (
        f"internal error: {error.__name__}: stage I lost its deficit buyer "
        f"(instance: {feasible_file})\n"
    )


def test_block_crossing_edge_at_a_stage_two_scaling_exits_three(run, monkeypatch, feasible_file):
    # An edge across a scaled block is a broken invariant, not bad input.
    from nashflow.balanced import scale_flow

    def crossing(flow, theta, scale, x, buyers, goods, net, keep):
        net = replace(net, edges=net.edges | {(min(buyers), max(goods) + 1)})
        return scale_flow(flow, theta, scale, x, buyers, goods, net, keep)

    monkeypatch.setattr("nashflow.solver.scale_flow", crossing)
    code, out, err = run(["solve", feasible_file])
    assert code == 3
    assert out == ""
    assert err == (
        "internal error: BalanceError: edge (0,1) crosses the scaled block "
        f"(instance: {feasible_file})\n"
    )


# ---------------------------------------------------------------------------
# Fuzzing the input boundary with generated instance and solution files

_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "-1/3", "2/0", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, node):
    """``node`` with one part replaced by generated JSON, or deleted."""
    keys = []
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    actions = ["replace", "descend", "descend", "delete"]
    action = draw(st.sampled_from(actions)) if keys else "replace"
    if action == "replace":
        return draw(_json)
    key = draw(st.sampled_from(keys))
    node = node.copy()
    if action == "delete":
        del node[key]
    else:
        node[key] = _mutate(draw, node[key])
    return node


@st.composite
def _files(draw):
    """An instance and a solution file: the solver's own, then damaged."""
    n, g = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 4), min_size=g, max_size=g)
    payoff = st.integers(0, 3) | st.sampled_from(["0", "1/2", "5/3"])
    instance = {
        "u": draw(st.lists(row, min_size=n, max_size=n)),
        "c": draw(st.lists(payoff, min_size=n, max_size=n)),
    }
    solution = solution_to_json(solve(parse_instance(instance)))
    for _ in range(draw(st.integers(0, 2))):
        solution = _mutate(draw, solution)
    if draw(st.integers(0, 3)) == 0:
        instance = _mutate(draw, instance)
    return instance, solution


@settings(max_examples=250)
@given(_files())
def test_generated_files_never_raise(files):
    instance, solution = files
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = Path(tmp) / "instance.json", Path(tmp) / "solution.json"
        inst.write_text(json.dumps(instance))
        sol.write_text(json.dumps(solution))
        for argv in (
            ["check", str(inst), str(sol)],
            ["solve", str(inst)],
            ["oracle", str(inst)],
            ["limit", str(inst), "--max-iter", "3"],
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
