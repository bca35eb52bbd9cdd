"""Exact integer linear algebra: Hermite normal form and lattice membership.

Everything here runs on Python's arbitrary-precision integers; no floating
point enters any code path.  The row-style Hermite normal form is the single
primitive behind all divisibility checkers and the integral decomposition
oracle: a vector lies in the integer row span of a generator matrix iff
back-substitution through the HNF succeeds with exact divisions, and the
transform matrix turns that into witness coefficients on the original
generators.
"""

from __future__ import annotations

import re

Matrix = list[list[int]]

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _pivot_col(row: list[int]) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def hermite_normal_form(matrix) -> tuple[Matrix, Matrix]:
    """Row-style HNF of an integer matrix.

    Returns (H, U) with U @ M == H and |det U| == 1.  H is in row echelon
    form with positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows at the bottom; this form is unique for the
    row lattice of M, which makes it usable for golden tests.

    Rows of H and U are worked on as {column: nonzero} dicts, so a row
    operation touches only the nonzeros of the row it subtracts; tall
    0/1 incidence matrices keep their transform rows short that way.
    """
    rows = [list(map(int, row)) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    m = [{j: x for j, x in enumerate(row) if x} for row in rows]
    u = [{i: 1} for i in range(nrows)]

    def sub(i: int, k: int, q: int) -> None:
        # row i -= q * row k, in both m and u
        for a, b in ((m[i], m[k]), (u[i], u[k])):
            get = a.get
            for j, x in b.items():
                y = get(j, 0) - q * x
                if y:
                    a[j] = y
                else:
                    del a[j]

    r = 0
    for c in range(ncols):
        # gcd-eliminate column c below row r until one nonzero entry is left
        while True:
            nz = [i for i in range(r, nrows) if c in m[i]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i != i0:
                    q = m[i][c] // m[i0][c]
                    if q:
                        sub(i, i0, q)
        nz = [i for i in range(r, nrows) if c in m[i]]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != r:
            m[r], m[i0] = m[i0], m[r]
            u[r], u[i0] = u[i0], u[r]
        if m[r][c] < 0:
            m[r] = {j: -x for j, x in m[r].items()}
            u[r] = {j: -x for j, x in u[r].items()}
        piv = m[r][c]
        for i in range(r):
            q = m[i].get(c, 0) // piv
            if q:
                sub(i, r, q)
        r += 1
        if r == nrows:
            break
    return _dense(m, ncols), _dense(u, nrows)


def _dense(rows: list[dict[int, int]], ncols: int) -> Matrix:
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def determinant(matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


class SpanChecker:
    """Repeated membership tests against one fixed generator set.

    Precomputes the HNF once; :meth:`membership` then decides whether a
    vector lies in the integer row span, returning witness coefficients on
    the original generators or None (a proven non-member, not a heuristic).
    """

    def __init__(self, generators) -> None:
        self.generators = [tuple(map(int, g)) for g in generators]
        self.ncols = len(self.generators[0]) if self.generators else 0
        if self.generators:
            self.hnf, self.transform = hermite_normal_form(self.generators)
        else:
            self.hnf, self.transform = [], []
        self._pivots = []
        for k, row in enumerate(self.hnf):
            c = _pivot_col(row)
            if c is not None:
                self._pivots.append((k, c))
        self.rank = len(self._pivots)

    def membership(self, vector) -> list[int] | None:
        v = list(map(int, vector))
        if len(v) != self.ncols:
            if not self.generators:
                return [] if not any(v) else None
            raise ValueError("dimension mismatch")
        y = [0] * len(self.hnf)
        for k, c in self._pivots:
            q, rem = divmod(v[c], self.hnf[k][c])
            if rem:
                return None
            if q:
                row = self.hnf[k]
                for j in range(c, self.ncols):
                    v[j] -= q * row[j]
                y[k] = q
        if any(v):
            return None
        coeffs = [0] * len(self.generators)
        for k, yk in enumerate(y):
            if yk:
                urow = self.transform[k]
                for j in range(len(coeffs)):
                    coeffs[j] += yk * urow[j]
        return coeffs


def span_membership(vector, generators) -> list[int] | None:
    """Witness coefficients c with sum(c_i * generators_i) == vector, or None."""
    return SpanChecker(generators).membership(vector)


def matrix_to_json(matrix) -> dict:
    """Exact wire form: entries as decimal strings."""
    return {
        "type": "int-matrix",
        "rows": [[str(x) for x in row] for row in matrix],
    }


def matrix_from_json(doc: dict) -> Matrix:
    if type(doc) is not dict or doc.get("type") != "int-matrix":
        raise ValueError("not an int-matrix document")
    rows = doc.get("rows")
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError("int-matrix rows must be a list of lists")
    return [[_entry(x) for x in row] for row in rows]


def _entry(x) -> int:
    """A matrix entry read from JSON: an integer (not a bool) or a decimal
    string with an optional sign; a float is never truncated."""
    if type(x) is int:
        return x
    if type(x) is str and _DECIMAL.fullmatch(x):
        return int(x)
    raise ValueError(f"int-matrix entries must be integers or decimal strings, not {x!r}")
