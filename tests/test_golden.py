"""Golden output: solver answers and max-flow counts, pinned separately.

The answers digest covers, for a fixed set of instances, the canonical
solution JSON without its ``stats.maxflows`` count, every trace event of a
traced solve as ``nashflow solve --trace`` writes it, and fixed-budget
equilibria and traces at the non-unit budgets the limit iteration visits.  A
refactor that changes any byte of that output changes the digest; an
intended change of output must update the constant on purpose.

The max-flow count of each instance is compared with the committed table in
``golden_maxflows.json``, so a change that saves work shows which instances
it touched.  A change that lowers counts regenerates the table with
``PYTHONPATH=src python tests/test_golden.py``: it recomputes every count,
prints each instance whose count changed as ``label: before -> after`` and
then on how many instances the count fell, held and rose, with the totals of
the balanced-flow guesses' hits, repairs and misses and of the max-flows'
augmenting paths and peeled forests beside it, exits 1 if
any count rose, and otherwise rewrites the table and prints the old and new
totals.
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from nashflow import (
    fisher_equilibrium,
    gen_random,
    limit_algorithm,
    preprocess,
    solution_to_json,
    solve,
    to_json,
)

ANSWERS_SHA256 = "972c0163709340ca66532f43e447fdc9b8c75724b8f75935d12c50c579729bcf"
MAXFLOWS_TABLE = Path(__file__).with_name("golden_maxflows.json")


def _instances():
    """``(label, instance)`` for every pinned instance."""
    shapes = [(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed) for seed in range(525)]
    shapes += [(12, 12, 1000, 1500, seed) for seed in range(3)]
    shapes.append((40, 40, 10, 10, 0))
    for n, g, u_max, c_max, seed in shapes:
        yield f"{n}x{g} U={u_max} C={c_max} seed={seed}", gen_random(n, g, u_max, c_max, seed)


def _fisher_runs():
    """Fixed-budget runs at the budgets of the first limit-iteration rounds."""
    for seed in range(4):
        inst = gen_random(4, 4, 10, 10, seed)
        reduced, _ = preprocess(inst)
        history = limit_algorithm(inst, max_iter=3).history
        for _, money in history[1:]:
            yield fisher_equilibrium(reduced.u, money)


def _digest_and_counts(guesses=None):
    """The answers digest and the max-flow count of each instance.

    ``guesses``, a ``Counter`` if given, gathers the solves' guess outcomes
    and their max-flows' ``augments`` and ``peels``.
    """
    h = hashlib.sha256()
    maxflows = {}
    for label, inst in _instances():
        sol = solve(inst, collect_trace=True)
        if guesses is not None:
            detail = sol.stats.get("detail", {})
            guesses.update(detail.get("guess", {}))
            guesses.update({key: detail.get(key, 0) for key in ("augments", "peels")})
        doc = solution_to_json(sol)
        maxflows[label] = doc["stats"].pop("maxflows")
        h.update(json.dumps(doc, sort_keys=True).encode())
        for entry in sol.trace:
            h.update(json.dumps(to_json(entry)).encode())
    for p, x, trace in _fisher_runs():
        h.update(json.dumps(to_json([p, x, trace])).encode())
    return h.hexdigest(), maxflows


@pytest.fixture(scope="module")
def golden():
    return _digest_and_counts()


def test_golden_output_digest(golden):
    assert golden[0] == ANSWERS_SHA256


def test_golden_maxflow_counts(golden):
    expected = json.loads(MAXFLOWS_TABLE.read_text(encoding="utf-8"))
    maxflows = golden[1]
    changed = {k: (expected.get(k), v) for k, v in maxflows.items() if expected.get(k) != v}
    assert maxflows.keys() == expected.keys()
    assert not changed, f"(table, now) per instance: {changed}"


def _regenerate_table():
    """Rewrite the count table unless some instance's count rose."""
    old = json.loads(MAXFLOWS_TABLE.read_text(encoding="utf-8"))
    guesses = Counter()
    _, new = _digest_and_counts(guesses)
    changed = {k: (old.get(k), v) for k, v in new.items() if old.get(k) != v}
    for label, (before, after) in changed.items():
        print(f"{label}: {before} -> {after}")
    rose = sum(k in old and v > old[k] for k, v in new.items())
    fell = sum(k in old and v < old[k] for k, v in new.items())
    held = len(new) - len(changed)
    print(f"{fell} fell, {held} held, {rose} rose of {len(new)} instances; guesses: "
          f"{guesses['hits']} hits, {guesses['repairs']} repairs, {guesses['misses']} misses; "
          f"{guesses['augments']} augmenting paths, {guesses['peels']} peels")
    if rose:
        print(f"count rose on {rose} of {len(new)} instances; table left as it is")
        return 1
    MAXFLOWS_TABLE.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"max-flows: {sum(old.values())} -> {sum(new.values())} over {len(new)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate_table())
