"""Independent reference solvers for cross-checking the main algorithm.

Everything here is deliberately naive: support enumeration with exact
linear algebra, a one-phase LP for the feasibility margin, and a fixpoint
iteration of fixed-budget equilibria.  The enumeration and the LP share only
instance handling with the two-stage solver, which is what makes agreement
with them meaningful.  The fixpoint iteration does not: it runs
``fisher_equilibrium``, which shares the price-phase kernel,
``balanced_flow``, ``max_flow`` and ``bang_per_buck`` with the solver, so it
cross-checks the two-stage logic, not those layers.  Its tight stop is its
own: a descent over min cuts, where the solver reads each tight factor off
the balanced flow.  The LP measures the margin from ``-max(c)``, which the
empty allocation already reaches, so every bound is nonnegative and
``simplex.maximize`` starts from its slack basis.  The enumeration's
Gauss-Jordan elimination pivots with the LP's own ``simplex._pivot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .fisher import fisher_equilibrium
from .flownet import bang_per_buck
from .instance import BargainingInstance, preprocess
from . import simplex


class OracleCapError(ValueError):
    """The instance exceeds the enumeration cap for the reference solver."""


@dataclass
class OracleResult:
    verdict: str
    p: list | None = None
    x: list | None = None
    v: list | None = None


def _solve_linear(rows, ncols, free_default):
    """Exact Gauss-Jordan elimination; ``rows`` are coefficient lists + rhs.

    Returns the solution list or ``None`` when inconsistent.  Columns never
    pivoted (underdetermined systems) take ``free_default[col]``.  Each
    pivot row ends zero in every other pivot column, so a pivot variable is
    its row's rhs less the free columns' terms.
    """
    rows = [list(r) for r in rows]
    basis = [None] * len(rows)
    for col in range(ncols):
        r = next((r for r, row in enumerate(rows) if basis[r] is None and row[col] != 0), None)
        if r is not None:
            simplex._pivot(rows, basis, r, col)
    if any(col is None and row[-1] != 0 for col, row in zip(basis, rows)):
        return None
    free = [col for col in range(ncols) if col not in basis]
    solution = list(free_default)
    for col, row in zip(basis, rows):
        if col is not None:
            solution[col] = row[-1] - sum(row[f] * free_default[f] for f in free)
    return solution


def oracle_solve(inst: BargainingInstance, max_pairs: int = 12) -> OracleResult:
    """Solve the game by exhaustive support enumeration.

    Tries every subset of the positive-utility pairs (smallest first) as
    the support of an optimal allocation, solves the implied exact linear
    system (each good fully sold; each supporting pair priced so the
    buyer's gain equals utility divided by price), and accepts the first
    candidate satisfying nonnegativity and the stationarity inequalities.
    Optimal allocations always exist on supports of this kind, so finding
    none proves infeasibility.

    The number of positive pairs is capped (default 12) because the search
    is exponential; raise ``max_pairs`` explicitly for bigger instances.
    """
    reduced, report = preprocess(inst)
    if report.verdict == "infeasible":
        return OracleResult(verdict="infeasible")
    n, g = reduced.n, reduced.g
    pairs = [
        (i, j) for i in range(n) for j in range(g) if reduced.u[i][j] > 0
    ]
    if len(pairs) > max_pairs:
        raise OracleCapError(
            f"{len(pairs)} positive pairs exceed the enumeration cap {max_pairs}"
        )

    for size in range(max(n, g), len(pairs) + 1):
        for support in combinations(pairs, size):
            buyers = {i for (i, _) in support}
            goods = {j for (_, j) in support}
            if len(buyers) < n or len(goods) < g:
                continue
            result = _try_support(reduced, support)
            if result is not None:
                p, x, v = result
                x_full = [report.expand(row) for row in x]
                return OracleResult(verdict="feasible", p=report.expand(p), x=x_full, v=v)
    return OracleResult(verdict="infeasible")


def _try_support(inst, support):
    """Solve and check one candidate support: ``(p, x, v)``, or ``None`` if it fails."""
    n, g = inst.n, inst.g
    nx = len(support)
    ncols = nx + g
    col_of = {pair: k for k, pair in enumerate(support)}
    rows = []
    for j in range(g):
        row = [Fraction(0)] * (ncols + 1)
        for (i, jj), k in col_of.items():
            if jj == j:
                row[k] = Fraction(1)
        row[-1] = Fraction(1)
        rows.append(row)
    for (i, j), k in col_of.items():
        row = [Fraction(0)] * (ncols + 1)
        for (ii, jj), kk in col_of.items():
            if ii == i:
                row[kk] = Fraction(inst.u[ii][jj])
        row[nx + j] = Fraction(-inst.u[i][j])
        row[-1] = inst.c[i]
        rows.append(row)
    free = [Fraction(0)] * nx + [Fraction(1)] * g
    sol = _solve_linear(rows, ncols, free)
    if sol is None:
        return None
    xs = sol[:nx]
    q = sol[nx:]
    if any(v < 0 for v in xs) or any(v <= 0 for v in q):
        return None
    x = [[Fraction(0)] * g for _ in range(n)]
    for (i, j), k in col_of.items():
        x[i][j] = xs[k]
    v = [
        sum((inst.u[i][j] * x[i][j] for j in range(g)), Fraction(0))
        for i in range(n)
    ]
    for i in range(n):
        gain = v[i] - inst.c[i]
        if gain <= 0:
            return None
        for j in range(g):
            if inst.u[i][j] > 0 and gain < inst.u[i][j] * q[j]:
                return None
    return [1 / qj for qj in q], x, v


def feasibility_lp(inst: BargainingInstance) -> Fraction:
    """Largest ``t`` with an allocation giving every buyer gain >= ``t``.

    The game is feasible exactly when the value is positive.  Solved as an
    exact LP over the allocation ``x`` and ``s = t + max(c)``: maximize ``s``
    subject to ``s - sum_j u_ij x_ij <= max(c) - c_i`` for each buyer and
    ``sum_i x_ij <= 1`` for each good.  Every bound is nonnegative, so the
    simplex starts at its slack basis.  The empty allocation already gives
    every buyer a gain of at least ``-max(c)``, so the optimum has ``s >= 0``
    and the sign constraint on ``s`` loses nothing.
    """
    n, g = inst.n, inst.g
    top = max(inst.c)
    rows, bounds = [], []  # x_ij in column j * n + i (good-major: fewer Bland pivots), s last
    for i in range(n):
        row = [0] * (n * g) + [1]
        row[i:n * g:n] = [-v for v in inst.u[i]]
        rows.append(row)
        bounds.append(top - inst.c[i])
    for j in range(g):
        rows.append([0] * (j * n) + [1] * n + [0] * ((g - 1 - j) * n + 1))
        bounds.append(1)
    value, _ = simplex.maximize([0] * (n * g) + [1], rows, bounds)
    return value - top


@dataclass
class LimitResult:
    p: list
    m: list
    iterations: int
    converged: bool
    reason: str
    history: list


def limit_algorithm(
    inst: BargainingInstance,
    eps: Fraction = Fraction(1, 10**6),
    max_iter: int = 1000,
) -> LimitResult:
    """Iterate fixed-budget equilibria toward the flexible-budget one.

    Start everyone at unit money; repeatedly compute the fixed-budget
    equilibrium and reset each budget to ``1 + c_i / gamma_i``.  On feasible
    instances the budgets rise monotonically and converge to the
    flexible-budget equilibrium; the loop stops at an exact fixpoint, when
    the update drops below ``eps``, or after ``max_iter`` rounds.  ``history``
    holds one ``(prices, budgets)`` pair per round, prices over all goods.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    reduced, report = preprocess(inst)
    if report.verdict == "infeasible":
        raise ValueError("a buyer with no valued good has no market limit")
    n, g = reduced.n, reduced.g
    money = [Fraction(1)] * n
    history = []
    reason = "max_iter"
    iterations = 0
    p_full = None
    for _ in range(max_iter):
        iterations += 1
        p, _x, _tr = fisher_equilibrium(reduced.u, money)
        gamma, _ = bang_per_buck(reduced.u, p)
        p_full = report.expand(p)
        history.append((list(p_full), list(money)))
        nxt = [1 + reduced.c[i] / gamma[i] for i in range(n)]
        if nxt == money:
            reason = "exact"
            break
        delta = max(abs(a - b) for a, b in zip(nxt, money))
        money = nxt
        if delta < eps:
            reason = "eps"
            break
    return LimitResult(
        p=p_full,
        m=list(money),
        iterations=iterations,
        converged=reason in ("exact", "eps"),
        reason=reason,
        history=history,
    )
