"""Instance parsing, preprocessing, and generators."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from nashflow import (
    InstanceError,
    balanced_flow,
    format_rational,
    gen_l1_adversarial,
    gen_random,
    make_instance,
    max_flow,
    oracle_solve,
    parse_instance,
    parse_rational,
    preprocess,
    wireless_adapter,
)
from conftest import integer_network, reference_bang_per_buck, unit_game


# ---------------------------------------------------------------------------
# Rational wire format


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(2) == Fraction(2)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, True, "x/y", "1/0", None])
def test_parse_rational_rejects_nonrationals(bad):
    with pytest.raises(InstanceError):
        parse_rational(bad)


@pytest.mark.parametrize("bad, message", [
    (1.5, "not a rational: 1.5 (floats are not accepted)"),
    (None, "not a rational: None"),
    (["1"], "not a rational: ['1']"),
])
def test_parse_rational_names_floats_only_when_rejecting_a_float(bad, message):
    with pytest.raises(InstanceError) as exc:
        parse_rational(bad)
    assert str(exc.value) == message



@pytest.mark.parametrize("text", ["0", "007", "+3", " 3", "\u0663", "\u00b2", "1" * 5000],
                         ids=["zero", "leading-zeros", "plus", "space", "arabic-indic-three",
                              "superscript-two", "5000-digits"])
def test_parse_rational_reads_plain_digits_as_fraction_would(text):
    # ASCII digit strings take a shortcut through ``int``; every string must
    # still give ``Fraction``'s value, or the same error when it has none
    # (a 5000-digit string passes the int digit limit in neither).
    try:
        want = Fraction(text)
    except ValueError:
        with pytest.raises(InstanceError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"not a rational: {text!r}"
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want


class _Count(int):
    """An ``int`` subclass: a valid utility, though not of type ``int``."""


@pytest.mark.parametrize("u, want", [
    ([[0, 3], [5, 0]], ((0, 3), (5, 0))),
    ([[1, True]], "utility entry (0,1) must be an integer, got True"),
    ([[2], [1.0]], "utility entry (1,0) must be an integer, got 1.0"),
    ([[2, -1]], "utility entry (0,1) is negative: -1"),
    ([[_Count(2), 1]], ((2, 1),)),
], ids=["ints", "bool", "float", "negative", "int-subclass"])
def test_make_instance_accepts_and_rejects_rows_entry_by_entry(u, want):
    # A row of nonnegative plain ints is accepted in one pass; any other row
    # is checked entry by entry, so each error names its entry.
    c = ["0"] * len(u)
    if isinstance(want, str):
        with pytest.raises(InstanceError) as exc:
            make_instance(u, c)
        assert str(exc.value) == want
    else:
        inst = make_instance(u, c)
        assert inst.u == want
        assert [type(e) for row in inst.u for e in row] == [type(e) for row in u for e in row]


def test_parse_rational_accepts_decimals():
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-1.5") == Fraction(-3, 2)


@pytest.mark.parametrize("text", ["1e10000000", "1E3", "2.5e-1", "-1e0"])
def test_parse_rational_rejects_exponent_notation(text):
    # ``Fraction`` would expand "1e10000000" into a ten-million-digit integer.
    with pytest.raises(InstanceError) as exc:
        parse_rational(text)
    assert str(exc.value) == f"not a rational: {text!r} (exponent notation is not accepted)"

def test_format_rational_is_canonical():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    # An int is read as it is, a bool as its int; other rationals convert exactly.
    assert [format_rational(q) for q in (0, 7, -12, True)] == ["0", "7", "-12", "1"]
    assert format_rational(0.75) == "3/4"
    assert format_rational(Decimal("-2.50")) == "-5/2"
    assert format_rational("6/4") == "3/2"


def test_rational_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_instance_unit():
    inst = parse_instance({"u": [[1]], "c": ["0"]})
    assert (inst.n, inst.g) == (1, 1)
    assert inst.u == ((1,),)
    assert inst.c == (Fraction(0),)


def test_parse_instance_two_by_two():
    inst = parse_instance({"u": [[2, 1], [1, 2]], "c": ["0", "0"]})
    assert (inst.n, inst.g) == (2, 2)
    assert inst.u_max == 2 and inst.c_max == 0


@pytest.mark.parametrize(
    "payload",
    [
        {"u": [[1]], "c": ["-1"]},          # negative disagreement payoff
        {"u": [[1.5]], "c": ["0"]},          # non-integer utility
        {"u": [[-1]], "c": ["0"]},           # negative utility
        {"u": [[1]], "c": ["0", "0"]},       # dimension mismatch
        {"u": [[1, 2], [3]], "c": ["0", "0"]},  # ragged matrix
        {"u": [[1]], "c": ["0"], "x": 1},    # unknown key
        {"u": [[1]]},                         # missing c
        {"u": [[1]], "c": [0.5]},             # float payoff
        {"u": [[True]], "c": ["0"]},          # bool is not an integer count
        [],                                   # not an object
    ],
)
def test_parse_instance_rejects_malformed(payload):
    with pytest.raises(InstanceError):
        parse_instance(payload)


def test_dump_then_parse_round_trips_exactly():
    inst = make_instance([[2, 0], [1, 3]], [Fraction(1, 2), Fraction(2)])
    import json

    assert parse_instance(json.loads(json.dumps(inst.to_json_dict()))) == inst


# ---------------------------------------------------------------------------
# Preprocessing


def test_preprocess_removes_unwanted_good():
    reduced, report = preprocess(make_instance([[1, 0]], [0]))
    assert reduced.u == ((1,),)
    assert report.removed_goods == [1]
    assert report.kept_goods == [0]
    assert report.zero_buyers == []
    assert report.verdict is None


def test_preprocess_flags_zero_buyer_as_infeasible():
    reduced, report = preprocess(make_instance([[0], [1]], [0, 0]))
    assert reduced is None
    assert report.zero_buyers == [0]
    assert report.verdict == "infeasible"


def test_preprocess_leaves_clean_instance_alone():
    inst = unit_game()
    same, report = preprocess(inst)
    assert same is inst
    assert report.removed_goods == [] and report.zero_buyers == []


def test_preprocess_is_idempotent():
    reduced, _ = preprocess(make_instance([[1, 0], [2, 0]], [0, 0]))
    again, report = preprocess(reduced)
    assert again.u == reduced.u
    assert report.removed_goods == []


# ---------------------------------------------------------------------------
# Random generator


def test_gen_random_smallest_shape_is_forced():
    inst = gen_random(1, 1, 1, 0, seed=7)
    assert inst.u == ((1,),)
    assert inst.c == (Fraction(0),)


def test_gen_random_is_deterministic_per_seed():
    assert gen_random(2, 2, 3, 1, 11) == gen_random(2, 2, 3, 1, 11)
    assert gen_random(2, 2, 3, 1, 11) != gen_random(2, 2, 3, 1, 12)


def test_gen_random_respects_bounds_and_positivity():
    rng = random.Random(1)
    for _ in range(100):
        n, g = rng.randint(1, 5), rng.randint(1, 5)
        inst = gen_random(n, g, 4, 3, rng.randint(0, 10**6))
        assert (inst.n, inst.g) == (n, g)
        assert all(0 <= e <= 4 for row in inst.u for e in row)
        assert all(any(row) for row in inst.u)
        assert all(any(inst.u[i][j] for i in range(n)) for j in range(g))
        assert all(0 <= ci <= 3 and ci.denominator == 1 for ci in inst.c)


def test_gen_random_rejects_bad_parameters():
    with pytest.raises(InstanceError):
        gen_random(0, 1, 1, 0, 0)
    with pytest.raises(InstanceError):
        gen_random(1, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# Surplus-ladder family (the instrumented worst case for l1 progress)


def test_ladder_family_money_and_prices_pin():
    u, money, prices = gen_l1_adversarial(2, Fraction(1), Fraction(2))
    assert [list(row) for row in u] == [[3841, 1920, 0], [0, 3842, 19205], [0, 0, 1]]
    # First buyer holds 1 + delta; last holds big + delta/n; middle money
    # sits a tiny sliver above delta/2 so later events still move flow.
    assert tuple(money) == (Fraction(2), Fraction(1921, 3840), Fraction(5, 2))
    assert tuple(prices) == (Fraction(1), Fraction(1, 2), Fraction(5, 2))
    sliver = money[1] - Fraction(1, 2)
    assert 0 < sliver <= Fraction(1, 1000)


def test_ladder_family_start_is_a_saturating_price_vector():
    # All goods fully sell at the listed prices: the max flow moves the
    # whole price mass for every family size.
    for n in (2, 3, 5):
        u, money, prices = gen_l1_adversarial(n)
        gamma, edges = reference_bang_per_buck(u, list(prices))
        net = integer_network(prices, money, edges)
        flow = max_flow(net)
        assert Fraction(flow.value, flow.scale) == sum(prices, Fraction(0))


def test_ladder_family_start_surpluses_concentrate_on_buyer_zero():
    u, money, prices = gen_l1_adversarial(2, Fraction(1), Fraction(2))
    gamma, edges = reference_bang_per_buck(u, list(prices))
    net = integer_network(prices, money, edges)
    flow, theta = balanced_flow(net)
    theta = [Fraction(t, flow.scale) for t in theta]
    assert theta[0] == Fraction(1)          # exactly delta
    assert theta[-1] == Fraction(0)
    assert all(t <= 2 * Fraction(1, 3840) for t in theta[1:])  # slivers only


# ---------------------------------------------------------------------------
# Wireless scheduling adapter


def test_wireless_identity_state():
    inst, scale = wireless_adapter([Fraction(1)], [[3]], [Fraction(0)])
    assert inst.u == ((3,),)
    assert inst.c == (Fraction(0),)
    assert scale == 1


def test_wireless_clears_denominators():
    inst, scale = wireless_adapter([Fraction(1, 2), Fraction(1, 2)], [[2, 2]], [Fraction(0)])
    assert inst.u == ((2, 2),) and scale == 2
    inst3, scale3 = wireless_adapter([Fraction(1, 3)], [[1]], [Fraction(0)])
    assert inst3.u == ((1,),) and scale3 == 3


def test_wireless_scales_rates_and_payoffs_together():
    inst, scale = wireless_adapter(
        [Fraction(1, 2), Fraction(1, 3)], [[4, 6], [2, 9]], [Fraction(1), Fraction(1, 2)]
    )
    assert inst.u == ((12, 12), (6, 18))
    assert inst.c == (Fraction(6), Fraction(3))
    assert scale == 6


def test_wireless_rejects_zero_probability_state():
    with pytest.raises((InstanceError, ValueError)):
        wireless_adapter([Fraction(0)], [[1]], [Fraction(0)])


def test_wireless_round_trip_respects_state_budgets():
    # Solve the adapted unit-supply game, map the allocation back, and check
    # each state's total usage stays within its probability.
    pi = [Fraction(1, 2), Fraction(1, 3)]
    rates = [[4, 6], [2, 9]]
    c = [Fraction(1), Fraction(1, 2)]
    inst, scale = wireless_adapter(pi, rates, c)
    ref = oracle_solve(inst)
    assert ref.verdict == "feasible"
    x_back = [[pi[j] * ref.x[i][j] for j in range(len(pi))] for i in range(inst.n)]
    for j in range(len(pi)):
        assert sum(row[j] for row in x_back) <= pi[j]
    # Utilities scale back by the clearing factor.
    v_back = [
        sum(rates[i][j] * x_back[i][j] for j in range(len(pi))) for i in range(inst.n)
    ]
    assert v_back == [vi / scale for vi in ref.v]
