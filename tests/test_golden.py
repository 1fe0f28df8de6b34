"""Golden output: one digest over solver answers, traces and work counts.

The digest covers, for a fixed set of instances, the canonical solution JSON,
every trace event of a traced solve as ``nashflow solve --trace`` writes it,
and the max-flow count, plus fixed-budget equilibria and traces at the
non-unit budgets the limit iteration visits.  A refactor that changes any
byte of ``solve`` output, any event or any count changes the digest; an
intended change of output must update the constant on purpose.
"""

import hashlib
import json

from nashflow import (
    fisher_equilibrium,
    gen_random,
    limit_algorithm,
    preprocess,
    solution_to_json,
    solve,
    to_json,
)

GOLDEN_SHA256 = "47535746026af005fed703d408b1311d84370f29758e9c1208cd03e56fdb5fca"


def _instances():
    for seed in range(525):
        yield gen_random(seed % 3 + 1, seed // 3 % 3 + 1, 3, 2, seed)
    for seed in range(3):
        yield gen_random(12, 12, 1000, 1500, seed)
    yield gen_random(40, 40, 10, 10, 0)


def _fisher_runs():
    """Fixed-budget runs at the budgets of the first limit-iteration rounds."""
    for seed in range(4):
        inst = gen_random(4, 4, 10, 10, seed)
        reduced, _ = preprocess(inst)
        history = limit_algorithm(inst, max_iter=3, collect_history=True).history
        for _, money in history[1:]:
            yield fisher_equilibrium(reduced.u, money, collect_trace=True)


def test_golden_output_digest():
    h = hashlib.sha256()
    for inst in _instances():
        sol = solve(inst, collect_trace=True)
        h.update(json.dumps(solution_to_json(sol), sort_keys=True).encode())
        for entry in sol.trace:
            h.update(json.dumps(to_json(entry)).encode())
        h.update(str(sol.stats["maxflows"]).encode())
    for p, x, trace in _fisher_runs():
        h.update(json.dumps(to_json([p, x, trace])).encode())
    assert h.hexdigest() == GOLDEN_SHA256
