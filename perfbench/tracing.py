"""Per-layer tracing of nashflow from outside the program.

``Tracer`` replaces each traced function at every name its callers look it up
by (``balanced_flow`` is bound in ``solver``, ``fisher`` and ``certify``;
``max_flow`` in ``balanced``, ``fisher``, ``certify`` and ``flownet``) and
restores the originals on exit.  Every call becomes a span: name, parent,
root, start, end and whether it raised.  Spans stay in memory until the run
ends.  Patching fails loudly if a traced name has gone or a caller no longer
binds the same function, so a refactor cannot silently zero out a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
from math import lcm
from time import perf_counter_ns


class TraceError(RuntimeError):
    """A traced name is gone, a reached layer recorded no calls, or counts drifted."""


# (span name, module defining the function, function name, modules whose
# global the callers read).  The benchmark itself calls ``solve``,
# ``solution_to_json``, ``parse_instance`` and ``_check_claim`` (the body of
# ``nashflow check``) through their module attributes.
TARGETS = (
    ("instance.parse_instance", "instance", "parse_instance", ("instance",)),
    ("instance.preprocess", "instance", "preprocess", ("solver",)),
    ("solver.solve", "solver", "solve", ("solver",)),
    ("solver.initialize", "solver", "initialize", ("solver",)),
    ("solver.stage1", "solver", "stage1", ("solver",)),
    ("solver.stage2", "solver", "stage2", ("solver",)),
    ("solver.solution_to_json", "solver", "solution_to_json", ("solver",)),
    ("balanced.balanced_flow", "balanced", "balanced_flow", ("solver", "fisher", "certify")),
    ("balanced.verify_property1", "balanced", "verify_property1", ("balanced",)),
    ("balanced.scale_flow", "balanced", "scale_flow", ("solver",)),
    ("flownet.max_flow", "flownet", "max_flow", ("balanced", "fisher", "certify", "flownet")),
    ("certify.check_kkt", "certify", "check_kkt", ("solver",)),
    ("certify.check_equilibrium", "certify", "check_equilibrium", ("solver",)),
    ("certify.verify_lp_dual", "certify", "verify_lp_dual", ("solver",)),
    ("certify.verify_convex_dual", "certify", "verify_convex_dual", ("solver",)),
    ("certify.check", "cli", "_check_claim", ("cli",)),
)

# Checker calls made inside ``solve`` before it returns.
SELF_VERIFY = (
    "certify.check_kkt",
    "certify.check_equilibrium",
    "certify.verify_lp_dual",
    "certify.verify_convex_dual",
)

_NAME, _PARENT, _ROOT, _T0, _T1, _ERR, _EXTRA_NS, _SHAPE = range(8)


def _maxflow_shape(net, money=None):
    """Network size and Edmonds-Karp integer width as passed to ``max_flow``."""
    m = net.m if money is None else money
    scale = lcm(*(x.denominator for x in net.p), *(x.denominator for x in m))
    return net.n + net.g, len(net.edges), scale.bit_length()


class Tracer:
    """Context manager that patches the ``TARGETS`` and records spans.

    It may be entered again after it has exited; the spans accumulate.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        try:
            for span, home, fn, callers in TARGETS:
                original = getattr(_module(home), fn, None)
                if original is None:
                    raise TraceError(f"nashflow.{home}.{fn} is gone")
                shape = _maxflow_shape if span == "flownet.max_flow" else None
                wrapper = self._wrap(span, original, shape)
                for caller in callers:
                    mod = _module(caller)
                    if getattr(mod, fn, None) is not original:
                        raise TraceError(
                            f"nashflow.{caller}.{fn} is no longer nashflow.{home}.{fn}"
                        )
                    self._patched.append((mod, fn, original))
                    setattr(mod, fn, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for mod, fn, original in reversed(self._patched):
            setattr(mod, fn, original)
        self._patched.clear()

    def _wrap(self, name, fn, shape):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra_ns, extra = 0, None
            if shape is not None:
                t = perf_counter_ns()
                extra = shape(*args, **kwargs)
                extra_ns = perf_counter_ns() - t
            sid = len(spans)
            record = [name, stack[-1] if stack else -1, stack[0] if stack else sid,
                      0, 0, False, extra_ns, extra]
            spans.append(record)
            stack.append(sid)
            record[_T0] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[_ERR] = True
                raise
            finally:
                record[_T1] = perf_counter_ns()
                stack.pop()

        return traced

    def called(self):
        """Names with at least one span on the solve path or at the top level."""
        return {self.spans[i][_NAME] for i in self._solve_path()}

    def _solve_path(self):
        # Spans under the external re-check repeat the solve path's layers
        # on another caller's behalf; they count only toward certify.check.
        spans = self.spans
        return [i for i, s in enumerate(spans)
                if s[_ROOT] == i or spans[s[_ROOT]][_NAME] == "solver.solve"]

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        maxflow_children = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_T1] - s[_T0] + s[_EXTRA_NS]
                if s[_NAME] == "flownet.max_flow":
                    maxflow_children[s[_PARENT]] += 1
        calls, total, own, errors = ({name: 0 for name, *_ in TARGETS} for _ in range(4))
        for s in spans:
            errors[s[_NAME]] += s[_ERR]
        solve_path = self._solve_path()
        for i in solve_path:
            name, dur = spans[i][_NAME], spans[i][_T1] - spans[i][_T0]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_ns[i]
        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (total[name] / 1e9, "s")
            out[f"{name}.self_s"] = (own[name] / 1e9, "s")
            out[f"{name}.errors"] = (errors[name], "count")

        shapes = [spans[i][_SHAPE] for i in solve_path if spans[i][_NAME] == "flownet.max_flow"]
        per_balanced = [maxflow_children[i] for i in solve_path
                        if spans[i][_NAME] == "balanced.balanced_flow"]
        nflows = max(len(shapes), 1)
        inside = sum(per_balanced)
        out["balanced.maxflows_per_call"] = (inside / max(len(per_balanced), 1), "ratio")
        out["balanced.maxflows_per_call.max"] = (max(per_balanced, default=0), "count")
        out["flownet.max_flow.us_per_call"] = (total["flownet.max_flow"] / 1e3 / nflows, "us")
        out["flownet.max_flow.nodes.mean"] = (sum(s[0] for s in shapes) / nflows, "count")
        out["flownet.max_flow.pairs.mean"] = (sum(s[1] for s in shapes) / nflows, "count")
        out["flownet.max_flow.scale_bits.mean"] = (sum(s[2] for s in shapes) / nflows, "bits")
        out["flownet.max_flow.scale_bits.max"] = (max((s[2] for s in shapes), default=0), "bits")
        out["flownet.max_flow.outside_balanced.calls"] = (len(shapes) - inside, "count")
        out["certify.self_verify.calls"] = (sum(calls[n] for n in SELF_VERIFY), "count")
        out["certify.self_verify.s"] = (sum(total[n] for n in SELF_VERIFY) / 1e9, "s")
        return out

    def write(self, path):
        """Write the spans as JSON lines: id, parent, name, start and duration in us, error."""
        base = self.spans[0][_T0] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[_PARENT], s[_NAME], (s[_T0] - base) / 1e3,
                                     (s[_T1] - s[_T0]) / 1e3, s[_ERR]]) + "\n")


def _module(name):
    return importlib.import_module(f"nashflow.{name}")
