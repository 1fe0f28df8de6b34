"""Property-based invariants of ``solve``, all checked for exact equality.

Each of the first four properties compares the solution of a generated
instance with the solution of a transformed copy: relabelled buyers and
goods, one buyer's utilities and payoff scaled by an integer, an appended
good nobody values, and lowered disagreement payoffs.  The fifth sends
every output through its JSON form to the checker of ``nashflow check``,
and the last checks the solver's integer market against the ``Fraction``
network its views describe.
"""

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from nashflow import make_instance, solution_to_json, solve
from nashflow.cli import _check_claim
from conftest import check_tight_denominators, checked_market


@st.composite
def instances(draw, max_n=4, max_g=4, u_max=9, c_max=4):
    """Small games in which every buyer values some good; goods may be valueless."""
    n = draw(st.integers(1, max_n))
    g = draw(st.integers(1, max_g))
    row = st.lists(st.integers(0, u_max), min_size=g, max_size=g).filter(any)
    u = draw(st.lists(row, min_size=n, max_size=n))
    payoff = st.fractions(min_value=0, max_value=c_max, max_denominator=4)
    c = draw(st.lists(payoff, min_size=n, max_size=n))
    return make_instance(u, c)


@given(instances(), st.data())
def test_relabelling_permutes_prices_and_utilities(inst, data):
    # The allocation is left out: among several optimal allocations the one
    # returned depends on the order in which ties are broken.
    buyers = data.draw(st.permutations(range(inst.n)))
    goods = data.draw(st.permutations(range(inst.g)))
    u = [[inst.u[i][j] for j in goods] for i in buyers]
    sol = solve(inst)
    relabelled = solve(make_instance(u, [inst.c[i] for i in buyers]))
    assert relabelled.verdict == sol.verdict
    if sol.verdict == "feasible":
        assert list(relabelled.p) == [sol.p[j] for j in goods]
        assert list(relabelled.v) == [sol.v[i] for i in buyers]


@given(instances(), st.data())
def test_scaling_a_buyer_scales_only_their_utility(inst, data):
    i = data.draw(st.integers(0, inst.n - 1))
    k = data.draw(st.integers(2, 7))
    u = [list(row) for row in inst.u]
    u[i] = [k * e for e in u[i]]
    c = list(inst.c)
    c[i] *= k
    sol = solve(inst)
    scaled = solve(make_instance(u, c))
    assert scaled.verdict == sol.verdict
    if sol.verdict == "feasible":
        assert scaled.p == sol.p
        assert scaled.x == sol.x
        assert scaled.v == sol.v[:i] + (k * sol.v[i],) + sol.v[i + 1:]


@given(instances())
def test_a_valueless_good_is_free_and_changes_nothing(inst):
    sol = solve(inst)
    extended = solve(make_instance([list(row) + [0] for row in inst.u], list(inst.c)))
    assert extended.verdict == sol.verdict
    if sol.verdict == "feasible":
        assert extended.p == sol.p + (0,)
        assert extended.x == [row + [0] for row in sol.x]
        assert extended.v == sol.v


@given(instances(), st.data())
def test_lowering_disagreement_payoffs_keeps_feasibility(inst, data):
    shrink = st.fractions(min_value=0, max_value=1, max_denominator=4)
    factors = data.draw(st.lists(shrink, min_size=inst.n, max_size=inst.n))
    sol = solve(inst)
    lowered = solve(make_instance(inst.u, [c * t for c, t in zip(inst.c, factors)]))
    if sol.verdict == "feasible":
        assert lowered.verdict == "feasible"


@settings(max_examples=60)
@given(instances(max_n=6, max_g=6, u_max=1000, c_max=1500))
def test_every_output_passes_its_checker(inst):
    doc = json.loads(json.dumps(solution_to_json(solve(inst))))
    assert _check_claim(inst, doc) == (True, "ok")


@settings(max_examples=60)
@given(instances(max_n=5, max_g=5, u_max=1000, c_max=1500))
def test_the_integer_market_is_its_fraction_reference(inst):
    # Every network the solver's market hands out is the converter's network of its
    # ``Fraction`` reference, every flow it holds carries its scale, and the
    # tight denominators are read off the prices (``conftest``).
    with checked_market(Counter()):
        sol = solve(inst, collect_trace=True)
    check_tight_denominators(sol)
