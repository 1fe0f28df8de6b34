"""Exact rational linear programming via the two-phase simplex method.

Small and dense on purpose: the solvers here handle the side computations
(feasibility margins, cross-checks) whose instances are tiny, and exactness
matters more than speed.  Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction


class SimplexError(Exception):
    """The program is unbounded or an internal pivot invariant failed."""


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [v * inv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _solve_phase(tableau, basis, cost):
    """Maximize ``cost`` over the current basic feasible tableau in place."""
    ncols = len(tableau[0])
    while True:
        reduced = list(cost)
        for r, col in enumerate(basis):
            if cost[col] != 0:
                factor = cost[col]
                reduced = [a - factor * b for a, b in zip(reduced, tableau[r])]
        entering = next(
            (jv for jv in range(ncols - 1) if reduced[jv] > 0), None
        )
        if entering is None:
            value = -reduced[-1]
            return value
        best = None
        for r, line in enumerate(tableau):
            if line[entering] > 0:
                ratio = line[-1] / line[entering]
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise SimplexError("objective is unbounded")
        _pivot(tableau, basis, best[1], entering)


def maximize(c, a_ub, b_ub, a_ge, b_ge):
    """Maximize ``c . x`` subject to linear constraints, ``x >= 0``, exactly.

    Constraint groups: ``a_ub x <= b_ub`` and ``a_ge x >= b_ge``.  Returns
    ``(value, x)`` as Fractions, ``None`` if the constraints are
    inconsistent, and raises :class:`SimplexError` when the objective is
    unbounded.
    """
    c = [Fraction(v) for v in c]
    nvars = len(c)
    prepared = []
    for mat, rhs, upper in ((a_ub, b_ub, True), (a_ge, b_ge, False)):
        for line, b in zip(mat, rhs):
            row = [Fraction(v) for v in line]
            if len(row) != nvars:
                raise ValueError("constraint row has the wrong arity")
            b = Fraction(b)
            if b < 0:
                prepared.append(([-v for v in row], -b, not upper))
            else:
                prepared.append((row, b, upper))

    nslack = len(prepared)
    art_start = nvars + nslack
    n_art = sum(1 for (_, _, upper) in prepared if not upper)
    total_cols = art_start + n_art + 1
    tableau = []
    basis = []
    artificial_cols = []
    for r, (row, b, upper) in enumerate(prepared):
        line = row + [Fraction(0)] * (nslack + n_art) + [b]
        if upper:
            line[nvars + r] = Fraction(1)
            basis.append(nvars + r)
        else:
            line[nvars + r] = Fraction(-1)
            col = art_start + len(artificial_cols)
            line[col] = Fraction(1)
            basis.append(col)
            artificial_cols.append(col)
        tableau.append(line)

    if artificial_cols:
        phase1 = [Fraction(0)] * total_cols
        for col in artificial_cols:
            phase1[col] = Fraction(-1)
        value = _solve_phase(tableau, basis, phase1)
        if value != 0:
            return None
        for r, col in enumerate(basis):
            if col in set(artificial_cols):
                swap = next(
                    (
                        jv
                        for jv in range(art_start)
                        if tableau[r][jv] != 0
                    ),
                    None,
                )
                if swap is not None:
                    _pivot(tableau, basis, r, swap)
        for line in tableau:
            del line[art_start:-1]
        basis = [col if col < art_start else -1 for col in basis]
        if -1 in basis:
            keep = [r for r, col in enumerate(basis) if col != -1]
            tableau = [tableau[r] for r in keep]
            basis = [basis[r] for r in keep]

    cost = c + [Fraction(0)] * (len(tableau[0]) - 1 - nvars) + [Fraction(0)]
    value = _solve_phase(tableau, basis, cost)
    solution = [Fraction(0)] * nvars
    for r, col in enumerate(basis):
        if col < nvars:
            solution[col] = tableau[r][-1]
    return value, solution
