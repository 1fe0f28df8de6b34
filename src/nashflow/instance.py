"""Problem instances: parsing, validation, preprocessing, and generators.

An instance of the bargaining game is a nonnegative integer utility matrix
``u`` (one row per buyer, one column per good) together with a nonnegative
rational disagreement payoff ``c_i`` per buyer.  Every good has one divisible
unit of supply.  A solution assigns fractions ``x[i][j]`` of each good so that
no good is oversold; buyer ``i`` derives utility ``v_i = sum_j u[i][j]*x[i][j]``
and the game asks for the allocation maximizing ``sum_i log(v_i - c_i)``,
which only makes sense when every buyer can be pushed strictly above their
disagreement payoff.

Rationals are ``fractions.Fraction`` end to end.  On the wire (JSON) they are
strings like ``"3/4"`` or ``"2"`` — never floats, so nothing is ever rounded.
``to_json`` writes this form for every artifact the package emits.
All indices in reports and JSON are 0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm


class InstanceError(ValueError):
    """Raised for malformed instance data."""


def parse_rational(value) -> Fraction:
    """Parse a rational: an int, a ``Fraction``, or a string like ``"7"`` / ``"7/4"``."""
    # Strings first: they are the wire form, and an isinstance test against
    # ``Fraction`` (an ABC) costs several times one against ``str``.
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {value!r}") from exc
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    hint = " (floats are not accepted)" if isinstance(value, float) else ""
    raise InstanceError(f"not a rational: {value!r}{hint}")


def format_rational(q: Fraction) -> str:
    """Render a rational canonically: ``"3"`` for integers, else ``"num/den"``."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def to_json(value):
    """The wire form of a value: rationals as strings, tuples as lists.

    Dict keys become strings and sets become sorted lists; everything else
    (ints, bools, strings, ``None``) passes through unchanged.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_json(v) for v in value)
    return value


@dataclass(frozen=True)
class BargainingInstance:
    """A validated bargaining-game instance.

    Attributes
    ----------
    u : tuple[tuple[int, ...], ...]
        Utility matrix, ``u[i][j] >= 0`` integral, rectangular and nonempty.
    c : tuple[Fraction, ...]
        Disagreement payoffs, ``c[i] >= 0``, one per buyer.
    """

    u: tuple
    c: tuple

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def g(self) -> int:
        return len(self.u[0])

    @property
    def u_max(self) -> int:
        return max(max(row) for row in self.u)

    @property
    def c_max(self) -> Fraction:
        return max(self.c)

    def to_json_dict(self) -> dict:
        return to_json({"u": self.u, "c": self.c})


def make_instance(u, c) -> BargainingInstance:
    """Validate raw utility/disagreement data and build an instance.

    Raises
    ------
    InstanceError
        If the matrix is empty or ragged, entries are not nonnegative
        integers, or any ``c_i`` is negative / not rational.  Error messages
        name the offending index.
    """
    rows_ok = isinstance(u, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in u)
    if not u or not rows_ok:
        raise InstanceError("utility matrix must be a nonempty list of rows")
    width = len(u[0])
    if width == 0:
        raise InstanceError("utility matrix must have at least one column")
    rows = []
    for i, row in enumerate(u):
        if len(row) != width:
            raise InstanceError(f"utility row {i} has length {len(row)}, expected {width}")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise InstanceError(f"utility entry ({i},{j}) must be an integer, got {entry!r}")
            if entry < 0:
                raise InstanceError(f"utility entry ({i},{j}) is negative: {entry}")
        rows.append(tuple(row))
    if not isinstance(c, (list, tuple)):
        raise InstanceError("disagreement payoffs must be a list")
    if len(c) != len(rows):
        raise InstanceError(f"expected {len(rows)} disagreement payoffs, got {len(c)}")
    payoffs = []
    for i, raw in enumerate(c):
        ci = parse_rational(raw)
        if ci < 0:
            raise InstanceError(f"disagreement payoff for buyer {i} is negative: {format_rational(ci)}")
        payoffs.append(ci)
    return BargainingInstance(u=tuple(rows), c=tuple(payoffs))


def parse_instance(data) -> BargainingInstance:
    """Parse the JSON object form ``{"u": [[int]], "c": ["num/den", ...]}``."""
    if not isinstance(data, dict):
        raise InstanceError("instance JSON must be an object")
    extra = set(data) - {"u", "c"}
    if extra:
        raise InstanceError(f"unknown instance keys: {sorted(extra)}")
    if "u" not in data or "c" not in data:
        raise InstanceError('instance JSON needs both "u" and "c"')
    return make_instance(data["u"], data["c"])


# ---------------------------------------------------------------------------
# Preprocessing


@dataclass
class PreprocessReport:
    """What preprocessing did, and whether it already decided the instance.

    ``removed_goods`` lists goods no buyer values (their equilibrium price is
    0 and they are dropped from the reduced instance; callers must report
    price 0 for them).  ``zero_buyers`` lists buyers with an all-zero utility
    row: no allocation can lift them above ``c_i >= 0``, so the instance is
    immediately infeasible and ``verdict`` says so.
    """

    removed_goods: list = field(default_factory=list)
    zero_buyers: list = field(default_factory=list)
    kept_goods: list = field(default_factory=list)
    verdict: str | None = None

    def expand(self, values, fill=Fraction(0)):
        """Lift values over the kept goods to all goods, ``fill`` at removed ones."""
        out = [fill] * (len(self.kept_goods) + len(self.removed_goods))
        for pos, j in enumerate(self.kept_goods):
            out[j] = values[pos]
        return out


def preprocess(inst: BargainingInstance):
    """Drop worthless goods and detect hopeless buyers.

    Returns ``(reduced, report)``.  ``reduced`` is ``None`` when a zero
    buyer already decides the verdict; otherwise every buyer values some
    good, so at least one good is kept.
    """
    report = PreprocessReport()
    for j in range(inst.g):
        if any(inst.u[i][j] > 0 for i in range(inst.n)):
            report.kept_goods.append(j)
        else:
            report.removed_goods.append(j)
    for i in range(inst.n):
        if all(e == 0 for e in inst.u[i]):
            report.zero_buyers.append(i)
    if report.zero_buyers:
        report.verdict = "infeasible"
        return None, report
    if not report.removed_goods:
        return inst, report
    u = tuple(tuple(row[j] for j in report.kept_goods) for row in inst.u)
    return BargainingInstance(u=u, c=inst.c), report


# ---------------------------------------------------------------------------
# Generators


def gen_random(n: int, g: int, u_max: int, c_max: int, seed: int) -> BargainingInstance:
    """Random instance with no all-zero row or column.

    Utilities are uniform on ``{0..u_max}`` (rows redrawn until nonzero,
    matrices redrawn until every column is hit); disagreement payoffs are
    uniform integers on ``{0..c_max}``.  Deterministic in ``seed``.
    """
    if n < 1 or g < 1:
        raise InstanceError("need at least one buyer and one good")
    if u_max < 1:
        raise InstanceError("u_max must be at least 1")
    if c_max < 0:
        raise InstanceError("c_max must be nonnegative")
    rng = random.Random(seed)
    while True:
        rows = []
        for _ in range(n):
            row = [rng.randint(0, u_max) for _ in range(g)]
            while not any(row):
                row = [rng.randint(0, u_max) for _ in range(g)]
            rows.append(row)
        if all(any(rows[i][j] for i in range(n)) for j in range(g)):
            break
    c = [rng.randint(0, c_max) for _ in range(n)]
    return make_instance(rows, c)


def gen_l1_adversarial(n: int, delta: Fraction = Fraction(1), big: Fraction | None = None):
    """Fixed-money market family on which total surplus barely moves per phase.

    Builds a ladder of ``n + 1`` buyers and goods.  Buyer 0 starts as the only
    buyer with surplus (``delta``); each middle buyer ``i`` has money
    ``delta/2**i`` and its own good priced the same; the last good is heavy
    (price ``big + delta/n``, default ``big = n``).  Utilities put each buyer
    on its own good plus a carefully weighted interest in the next good, so a
    single price phase walks the ladder: the phase's sets absorb one
    buyer/good pair per event via a new best-ratio edge, and the phase ends
    with the heavy good going tight.  The l1 surplus norm barely drops while
    the l2 norm drops by a constant factor.

    Returns ``(u, money, prices)`` with ``u`` integral (rows scaled by their
    common denominator, which leaves per-row utility ratios unchanged) and
    ``money``/``prices`` tuples of rationals suitable for a fixed-money
    market started at exactly those prices.
    """
    if n < 2:
        raise InstanceError("ladder needs n >= 2")
    delta = Fraction(delta)
    if delta <= 0:
        raise InstanceError("delta must be positive")
    big = Fraction(big) if big is not None else Fraction(n)
    if big <= 0:
        raise InstanceError("big must be positive")

    heavy = big + Fraction(delta, n)

    # Cumulative event factors 1, 1+eta, 1+2*eta, ...: eta is tiny enough that
    # every edge event fires before any set can go tight and the extra l1
    # absorbed by the factors stays negligible against delta/2**n.
    eta = delta / ((n + 1) * 4 ** (n + 2) * (big + delta + 2))
    factors = [1 + k * eta for k in range(n + 1)]

    prices = [Fraction(1)] + [delta / 2**i for i in range(1, n)] + [heavy]
    # Middle buyers carry a strictly increasing sliver of money above their
    # good's price.  Without it the rebalance after each new edge hands the
    # reached good's own buyer exactly zero flow (its surplus equals its whole
    # budget), leaving it without a residual path into the active set, and the
    # absorption cascade stalls.  With slivers i*eta the buyer reached at step
    # k ends up spending eta*(1 - 2**-k) > 0, so the walk never breaks.
    money = [1 + delta] + [delta / 2**i + i * eta for i in range(1, n)] + [heavy]

    u_rows = []
    for i in range(n + 1):
        row = [Fraction(0)] * (n + 1)
        row[i] = Fraction(1)
        if i + 1 <= n:
            row[i + 1] = (prices[i + 1] / prices[i]) * (factors[i] / factors[i + 1])
        scale = lcm(*(entry.denominator for entry in row))
        u_rows.append([int(entry * scale) for entry in row])
    return u_rows, tuple(money), tuple(prices)


def wireless_adapter(pi, rates, c):
    """Convert a time-shared broadcast scheduling problem to a bargaining instance.

    ``pi[j]`` is the probability of channel state ``j`` (positive rationals),
    ``rates[i][j]`` the integral rate user ``i`` gets while state ``j``'s time
    is assigned to them, and ``c`` the per-user disagreement rates.  State
    time shares are the goods; expected rates scale by ``M`` (the common
    denominator of the probabilities) to keep utilities integral:
    ``u[i][j] = M * pi[j] * rates[i][j]`` and the disagreement payoffs become
    ``M * c_i``.  Time shares map through unchanged, and true expected rates
    are the scaled solution's utilities divided by ``M``.

    Returns ``(instance, M)``.
    """
    for name, value in (("pi", pi), ("rates", rates), ("c", c)):
        if not isinstance(value, (list, tuple)):
            raise InstanceError(f"{name} must be a list")
    if not all(isinstance(row, (list, tuple)) for row in rates):
        raise InstanceError("each row of rates must be a list")
    probs = [parse_rational(p) for p in pi]
    if not probs:
        raise InstanceError("need at least one channel state")
    for j, p in enumerate(probs):
        if p <= 0:
            raise InstanceError(f"state probability {j} must be positive, got {format_rational(p)}")
    if not rates or any(len(row) != len(probs) for row in rates):
        raise InstanceError("rates must be rectangular with one column per state")
    scale = lcm(*(p.denominator for p in probs))
    u = []
    for i, row in enumerate(rates):
        out = []
        for j, r in enumerate(row):
            if isinstance(r, bool) or not isinstance(r, int) or r < 0:
                raise InstanceError(f"rate ({i},{j}) must be a nonnegative integer, got {r!r}")
            out.append(int(probs[j] * r * scale))
        u.append(out)
    payoffs = [scale * parse_rational(ci) for ci in c]
    return make_instance(u, payoffs), scale
