"""Exact rational linear feasibility via phase-one simplex.

Small dense systems only (dozens of variables); Fraction arithmetic
throughout and Bland's rule for termination, so the answer is a certificate
rather than a numerical judgement.
"""

from __future__ import annotations

from fractions import Fraction


def solve_feasibility(nvars: int, bounds, constraints):
    """Find x with bounds[j][0] <= x_j <= bounds[j][1] and
    lo <= coeffs . x <= hi for every (coeffs, lo, hi) constraint.

    Lower bounds must be finite; None disables an upper bound or a
    constraint side.  Returns a list of Fractions or None when infeasible.
    """
    lows = [Fraction(lo) for lo, _ in bounds]
    # substitute x = low + u with u >= 0; collect a . u <= b rows
    ineqs: list[tuple[list[Fraction], Fraction]] = []
    for j, (_, hi) in enumerate(bounds):
        if hi is not None:
            row = [Fraction(0)] * nvars
            row[j] = Fraction(1)
            ineqs.append((row, Fraction(hi) - lows[j]))
    for coeffs, lo, hi in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        base = sum(c * l for c, l in zip(coeffs, lows))
        if hi is not None:
            ineqs.append((coeffs[:], Fraction(hi) - base))
        if lo is not None:
            ineqs.append(([-c for c in coeffs], base - Fraction(lo)))
    u = _phase_one(nvars, ineqs)
    if u is None:
        return None
    return [lows[j] + u[j] for j in range(nvars)]


def _phase_one(nvars: int, ineqs):
    """Find u >= 0 with A u <= b, or None; artificials on rows with b < 0."""
    m = len(ineqs)
    if m == 0:
        return [Fraction(0)] * nvars
    art_rows = [i for i, (_, b) in enumerate(ineqs) if b < 0]
    if not art_rows:
        return [Fraction(0)] * nvars
    ncols = nvars + m + len(art_rows)
    art_col = {i: nvars + m + j for j, i in enumerate(art_rows)}
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (a, b) in enumerate(ineqs):
        row = [Fraction(0)] * (ncols + 1)
        sign = -1 if b < 0 else 1
        for j in range(nvars):
            row[j] = sign * Fraction(a[j])
        row[nvars + i] = Fraction(sign)
        row[-1] = sign * Fraction(b)
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(nvars + i)
        tab.append(row)
    # minimize the artificial sum; with artificials basic, the reduced
    # objective is the column-wise sum of the artificial rows
    obj = [Fraction(0)] * (ncols + 1)
    for i in art_rows:
        for col in range(ncols + 1):
            obj[col] += tab[i][col]
    for col in art_col.values():
        obj[col] = Fraction(0)
    while True:
        enter = None
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            break
        _pivot(tab, obj, basis, leave, enter)
    if any(basis[i] >= nvars + m and tab[i][-1] != 0 for i in range(m)):
        return None
    u = [Fraction(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            u[basis[i]] = tab[i][-1]
    return u


def _pivot(tab, obj, basis, leave, enter):
    """Normalize the pivot row and eliminate the entering column from every
    other row and the objective, touching only the pivot row's nonzeros."""
    piv = tab[leave][enter]
    pivot_row = tab[leave] = [x / piv if x else x for x in tab[leave]]
    support = [(j, y) for j, y in enumerate(pivot_row) if y]
    for row in tab + [obj]:
        f = row[enter]
        if f and row is not pivot_row:
            for j, y in support:
                row[j] -= f * y
    basis[leave] = enter
