"""Shared test helpers: fixed games, a reference surplus oracle, generators.

The reference computations here are deliberately independent of the package's
own algorithms.  ``reference_surpluses`` finds the l2-minimal surplus vector
of a market network by exhaustive subset enumeration over buyers, so when the
flow-based computation in :mod:`nashflow.balanced` agrees with it the
agreement is evidence, not circularity.  Everything is exact rationals.
"""

from __future__ import annotations

import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import configuration, settings

from nashflow import MarketNetwork, gen_l1_adversarial, make_instance
from nashflow.fisher import _run

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches what it reads from the source tree in its
# home directory, so that lives outside the working tree.
settings.register_profile(
    "nashflow", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("nashflow")
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nashflow-hypothesis")

# ---------------------------------------------------------------------------
# Small fixed games pinned across the suite.


def unit_game():
    """One buyer, one good, zero disagreement payoff: p=1, v=1."""
    return make_instance([[1]], [0])


def scalar_feasible():
    """One buyer valuing one good at 2 against disagreement payoff 1 (p*=2)."""
    return make_instance([[2]], [1])


def scalar_infeasible():
    """One buyer capped at v=1=c: no outcome strictly beats disagreement."""
    return make_instance([[1]], [1])


def symmetric_pair():
    """Two buyers, two goods, symmetric preferences, zero disagreement."""
    return make_instance([[2, 1], [1, 2]], [0, 0])


def split_infeasible():
    """Two disconnected single-buyer markets; buyer 0 needs v > 2 but tops at 1."""
    return make_instance([[1, 0], [0, 1]], [2, 0])


# ---------------------------------------------------------------------------
# Reference surplus oracle (exponential, for small networks only).


def reference_surpluses(net: MarketNetwork) -> tuple:
    """l2-minimal surplus vector of a market network, by subset enumeration.

    The most money a buyer set ``S`` can jointly spend is
    ``rho(S) = min over T ⊆ S of p(goods adjacent to T) + m(S − T)``
    (a min cut restricted to ``S``); the common leftover
    ``(m(S) − rho(S)) / |S|`` is maximized exactly by the buyers sharing the
    largest surplus, and the union of all maximizing sets is that whole
    block.  Peeling blocks in decreasing surplus order yields the unique
    balanced surplus vector.
    """
    n = net.n
    goods_of = [frozenset(j for (i, j) in net.edges if i == b) for b in range(n)]

    def spendable(buyers):
        members = sorted(buyers)
        best = None
        for bits in range(1 << len(members)):
            chosen = [members[k] for k in range(len(members)) if bits >> k & 1]
            reach = frozenset().union(*(goods_of[i] for i in chosen)) if chosen else frozenset()
            val = sum((net.p[j] for j in reach), Fraction(0)) + sum(
                (net.m[i] for i in members if i not in chosen), Fraction(0)
            )
            if best is None or val < best:
                best = val
        return best

    theta = [None] * n
    settled = frozenset()
    settled_spend = Fraction(0)
    remaining = set(range(n))
    while remaining:
        rem = sorted(remaining)
        best_val, best_set = None, None
        for bits in range(1, 1 << len(rem)):
            group = frozenset(rem[k] for k in range(len(rem)) if bits >> k & 1)
            leftover = (
                sum((net.m[i] for i in group), Fraction(0))
                - (spendable(group | settled) - settled_spend)
            ) / len(group)
            if best_val is None or leftover > best_val:
                best_val, best_set = leftover, group
            elif leftover == best_val:
                best_set = best_set | group
        for i in best_set:
            theta[i] = best_val
        settled |= best_set
        settled_spend = spendable(settled)
        remaining -= best_set
    return tuple(theta)


def scaled_network(net: MarketNetwork, x, buyers, goods) -> MarketNetwork:
    """``net`` with a block's prices times ``x`` and its budgets ``1 + x*(m - 1)``.

    This is the flexible-budget network after Stage II raises the block's
    prices by ``x``: each budget ``1 + c_i/gamma_i`` becomes
    ``1 + x*c_i/gamma_i`` as the best ratio ``gamma_i`` divides by ``x``.
    """
    p = tuple(q * x if j in goods else q for j, q in enumerate(net.p))
    m = tuple(1 + x * (q - 1) if i in buyers else q for i, q in enumerate(net.m))
    return MarketNetwork(p, m, net.edges)


# ---------------------------------------------------------------------------
# One fixed-budget phase on the surplus-ladder family (acceptance criterion 08).


def measure_l1_vs_l2(n, delta=Fraction(1), big=None):
    """Run one phase on the surplus-ladder family and report both norms.

    The family is built so a single phase performs ``n`` edge events followed
    by one tight event; the total surplus (l1) hardly moves while the squared
    norm (l2) drops by a constant factor.  Returns a dict with the event list
    and the start / after-edge-events / end values of both norms.
    """
    u, money, prices = gen_l1_adversarial(n, delta, big)
    trace = []
    _run(u, money, start_prices=prices, max_phases=1, trace=trace)
    states = [e for e in trace if e["kind"] == "state"]
    events = [e for e in trace if e["kind"] == "event"]
    edge_events = [e for e in events if e["type"] == "edge"]
    return {
        "n": n,
        "delta": Fraction(delta),
        "events": events,
        "l1_start": states[0]["l1"],
        "l2_start": states[0]["l2"],
        "l1_after_edges": edge_events[-1]["l1"] if edge_events else states[0]["l1"],
        "l1_end": states[-1]["l1"],
        "l2_end": states[-1]["l2"],
        "l1_drop": states[0]["l1"] - states[-1]["l1"],
        "l2_drop_factor": states[-1]["l2"] / states[0]["l2"],
    }


# ---------------------------------------------------------------------------
# Random generators (callers seed their own ``random.Random``).


def random_network(rng: random.Random, max_buyers: int = 4, max_goods: int = 4) -> MarketNetwork:
    """Random small market network: positive prices, buyers may be isolated."""
    n = rng.randint(1, max_buyers)
    g = rng.randint(1, max_goods)
    p = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(g))
    m = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n))
    edges = frozenset((i, j) for i in range(n) for j in range(g) if rng.random() < 0.55)
    return MarketNetwork(p, m, edges)


def exhaustive_small_instances():
    """Every game with n,g ≤ 2, u entries in 0..3, c_i in {0, 1/2, 1, 2}.

    Matrices with an all-zero row or column are skipped (they are either
    rejected at validation or settled by preprocessing, covered elsewhere).
    """
    c_choices = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    for n, g in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for bits in range(4 ** (n * g)):
            flat, v = [], bits
            for _ in range(n * g):
                flat.append(v % 4)
                v //= 4
            rows = [flat[i * g:(i + 1) * g] for i in range(n)]
            if any(not any(row) for row in rows):
                continue
            if any(not any(rows[i][j] for i in range(n)) for j in range(g)):
                continue
            for cbits in range(4 ** n):
                payoff, w = [], cbits
                for _ in range(n):
                    payoff.append(c_choices[w % 4])
                    w //= 4
                yield make_instance(rows, payoff)
