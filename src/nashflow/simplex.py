"""Exact rational linear programming by the simplex method, one phase.

``maximize`` takes ``A x <= b`` with every bound ``b`` nonnegative, so the
slack basis (``x = 0``, each slack at its bound) is a feasible start and no
phase 1 or artificial variable is needed; a negative bound is an error.
Small and dense on purpose: the margin LP here is a side computation whose
instances are tiny, and exactness matters more than speed.  Bland's rule
(the lowest improving column enters, ratio ties leave by the lowest basic
column) guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction


class SimplexError(Exception):
    """The objective is unbounded or a bound is negative."""


def _pivot(tableau, basis, row, col):
    inv = 1 / tableau[row][col]
    pivot_row = tableau[row] = [v * inv for v in tableau[row]]
    support = [k for k, v in enumerate(pivot_row) if v]
    for r, line in enumerate(tableau):
        factor = line[col]
        if r != row and factor:
            for k in support:
                line[k] -= factor * pivot_row[k]
    basis[row] = col


def maximize(c, a_ub, b_ub):
    """Maximize ``c . x`` subject to ``a_ub x <= b_ub`` and ``x >= 0``, exactly.

    Every bound must be nonnegative.  Returns ``(value, x)`` as Fractions
    and raises :class:`SimplexError` when a bound is negative or the
    objective is unbounded.
    """
    nvars, nrows = len(c), len(a_ub)
    tableau = []
    for r, (line, b) in enumerate(zip(a_ub, b_ub)):
        if len(line) != nvars:
            raise ValueError("constraint row has the wrong arity")
        if b < 0:
            raise SimplexError("a negative bound leaves the slack basis infeasible")
        slack = [Fraction(0)] * nrows
        slack[r] = Fraction(1)
        tableau.append([Fraction(v) for v in line] + slack + [Fraction(b)])
    # The last row holds the reduced costs, negated, and the value.
    tableau.append([-Fraction(v) for v in c] + [Fraction(0)] * (nrows + 1))
    basis = list(range(nvars, nvars + nrows))
    while True:
        entering = next((col for col, v in enumerate(tableau[-1][:-1]) if v < 0), None)
        if entering is None:
            break
        best = None
        for r, line in enumerate(tableau[:-1]):
            if line[entering] > 0:
                key = (line[-1] / line[entering], basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise SimplexError("objective is unbounded")
        _pivot(tableau, basis, best[1], entering)
    solution = [Fraction(0)] * nvars
    for r, col in enumerate(basis):
        if col < nvars:
            solution[col] = tableau[r][-1]
    return tableau[-1][-1], solution
