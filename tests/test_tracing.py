"""The benchmark's tracer still binds every layer it wraps.

``perfbench/tracing.py`` patches ``max_flow``, ``balanced_flow`` and the
other traced functions at each name their callers bind, and raises
``TraceError`` when one has gone.  Loading it here, read-only, makes a
refactor that unbinds a traced name fail this suite, not only a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nashflow.balanced
import nashflow.flownet
import nashflow.solver
from nashflow import counting, gen_random

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py`` under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
WORKLOADS = _load("workloads").WORKLOADS
MAX_FLOW = nashflow.flownet.max_flow


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_records_one_solve_of_each_workload_shape(name):
    # The largest shape each workload draws, at generator seed 0.
    w = WORKLOADS[name]
    inst = gen_random(max(w.n), max(w.g), w.u_max, w.c_max, 0)
    tracer = tracing.Tracer()
    with tracer, counting() as tally:
        nashflow.solver.solve(inst)  # through the module, as the benchmark calls it
    metrics = tracer.metrics()
    assert metrics["solver.solve.calls"][0] == 1
    # One span per counted max-flow: the solve's and its self-check's.
    assert metrics["flownet.max_flow.calls"][0] == tally["maxflows"] > 0
    assert metrics["balanced.balanced_flow.calls"][0] > 0
    # Leaving the block restores every binding.
    assert nashflow.balanced.max_flow is nashflow.flownet.max_flow is MAX_FLOW
