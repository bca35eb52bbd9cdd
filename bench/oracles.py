"""Expected answers for every benchmark op, computed without decomp_lab.

Each check takes the plain data of an instance (vertex counts, edge and arc
tuples, class lists) plus the library's answer, and returns None when the
answer is right or a one-line reason when it is wrong.  The expected values
are closed forms, classical existence theorems, or direct recounts over the
instance's own edges; nothing here imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# Labelled decomposition counts with closed-form values.
LATIN_4 = 576  # Latin squares of order 4
STS_9 = 840  # labelled Steiner triple systems on 9 points: 9! / |AGL(2,3)|
SUDOKU_4 = 288  # completed 4x4 Sudoku grids
# Every STS(9) is the affine plane AG(2,3), whose resolution into four
# parallel classes is unique; the classes are labelled by four host vertices.
RESOLVABLE_9 = STS_9 * math.factorial(4)

REL_TOL = 1e-9


def sts_exists(n: int) -> bool:
    """Kirkman (1847): K_n splits into triangles iff n = 1, 3 mod 6."""
    return n % 6 in (1, 3)


def mendelsohn_exists(n: int) -> bool:
    """K*_n splits into cyclic triangles iff n = 0, 1 mod 3, except n = 6
    (Mendelsohn 1971; the order-6 exception)."""
    return n % 3 in (0, 1) and n != 6


def resolvable_admissible(n: int) -> bool:
    """Degree conditions of a resolvable triple system host on n points
    (n odd, so that (n-1)/2 class vertices exist)."""
    return n % 6 == 3


def large_set_admissible(n: int) -> bool:
    return n % 6 in (1, 3)


# ---------------------------------------------------------------------------
# search answers


def count_error(expected: int, got) -> str | None:
    if got != expected:
        return f"count {got!r}, expected {expected}"
    return None


def cover_error(host_edges, pattern_edges, embeddings, directed=False,
                pattern_part=None, host_part=None) -> str | None:
    """Recount the slots the certificate's copies cover: every host edge (or
    arc) exactly once, no other slot, images injective and partwise."""
    want = set(host_edges)
    seen = set()
    for _p, images in embeddings:
        if len(set(images)) != len(images):
            return f"embedding {images} is not injective"
        if pattern_part is not None:
            for x, v in enumerate(images):
                if host_part.get(v) != pattern_part[x]:
                    return f"pattern vertex {x} mapped to {v} outside its part"
        for e in pattern_edges:
            img = tuple(images[x] for x in e)
            slot = img if directed else tuple(sorted(img))
            if slot not in want:
                return f"copy covers {slot}, which is not a host slot"
            if slot in seen:
                return f"host slot {slot} covered twice"
            seen.add(slot)
    if seen != want:
        return f"{len(want - seen)} host slots uncovered"
    return None


def none_error(exists: bool, result) -> str | None:
    """An instance with no decomposition must end in an exhausted search."""
    if exists:
        return "the instance has a decomposition, so it cannot be a none-proof"
    if result.status != "none":
        return f"status {result.status!r} on an instance with no decomposition"
    return None


def budgeted_find_error(result, budget: int, cover) -> str | None:
    """A node-budgeted find on an instance with a known decomposition stops
    at the budget, or returns a certificate that covers the host exactly."""
    if result.status == "timeout":
        if result.nodes != budget + 1:
            return f"timeout after {result.nodes} nodes, not at the budget {budget}"
        return None
    if result.status == "found":
        if result.certificate is None:
            return "found without a certificate"
        return cover(result.certificate.embeddings)
    return f"status {result.status!r} on an instance with a known decomposition"


# ---------------------------------------------------------------------------
# random greedy answers


def bounds_error(n: int, q: int, r: int, edges: int, bounds) -> str | None:
    """Counting bounds of the complete blowup of a q-vertex r-graph pattern
    with `edges` edges: log_upper = (N/R)(log D + 1 - R), N = edges * n^r,
    R = edges, D = n^(q-r); the estimate stays below it and its per-cell
    rate within 1.0 of log n - 2 (the triangle rate)."""
    N, R, D = edges * n**r, edges, n ** (q - r)
    upper = (N / R) * (math.log(D) + 1 - R)
    if not math.isclose(bounds.log_upper, upper, rel_tol=REL_TOL):
        return f"log_upper {bounds.log_upper!r}, closed form {upper!r}"
    if not bounds.log_lower_estimate <= bounds.log_upper:
        return "log_lower_estimate exceeds log_upper"
    rate = math.log(n) - 2
    if abs(bounds.per_cell_lower - rate) > 1.0:
        return f"per-cell rate {bounds.per_cell_lower!r} not within 1.0 of {rate!r}"
    return None


def packing_error(triangles, candidate_triangles) -> str | None:
    """`triangles` are the chosen copies as edge triples; they must be
    triangles, pairwise edge-disjoint, and leave no candidate triangle
    whose three edges are all unused (maximality)."""
    used = set()
    for tri in triangles:
        verts = sorted({v for e in tri for v in e})
        if len(verts) != 3 or sorted(tri) != list(combinations(verts, 2)):
            return f"copy {tri} is not a triangle"
        for e in tri:
            if e in used:
                return f"edge {e} used by two copies"
            used.add(e)
    for a, b, c in candidate_triangles:
        if (a, b) not in used and (a, c) not in used and (b, c) not in used:
            return f"triangle {(a, b, c)} is still free: packing not maximal"
    return None


def complete_triangles(n: int):
    return combinations(range(n), 3)


def partite_triangles(classes):
    for a in classes[0]:
        for b in classes[1]:
            for c in classes[2]:
                yield tuple(sorted((a, b, c)))


# ---------------------------------------------------------------------------
# checker verdicts


def balanced(n: int, arcs) -> bool:
    """Shift regularity of a 2-digraph: in-degree equals out-degree."""
    net = [0] * n
    for u, v in arcs:
        net[u] += 1
        net[v] -= 1
    return not any(net)


def cycle_divisible(n: int, arcs) -> bool:
    """Divisibility of a 2-digraph by the cyclic triangle."""
    return balanced(n, arcs) and len(arcs) % 3 == 0


def tridivisible(n: int, coloured_edges) -> bool:
    """Divisibility of a coloured graph by the rainbow-triangle family:
    every vertex degree even and the edge count a multiple of 3."""
    deg = [0] * n
    for (u, v), _colour in coloured_edges:
        deg[u] += 1
        deg[v] += 1
    return len(coloured_edges) % 3 == 0 and not any(d % 2 for d in deg)


def verdict_error(expected: bool, got: bool, what: str) -> str | None:
    if bool(got) != expected:
        return f"{what} {got!r}, expected {expected}"
    return None


def typicality_expected(mode: str, c: Fraction, s: int, **shape):
    """(typical, worst_deviation, families checked) in closed form.

    plain: complete r-graph on n vertices.  A family of k (r-1)-sets with
    union U has joint neighbourhood n - |U| against n expected, so the
    deviation is |U|/n <= (r-1)k/n, met at k = 1.
    blowup: complete triangle blowup with classes of size m; every joint
    neighbourhood is a whole class, so nothing deviates.  A family of k
    vertices is checked once per class it avoids: 3 * C(2m, k) in total.
    hp: resolvable host on n points with (n-1)/2 class vertices; point
    families deviate by (#points)/n in the point part and nothing else does.
    """
    fam = lambda universe: sum(math.comb(universe, k) for k in range(1, s + 1))
    if mode == "plain":
        n, r = shape["n"], shape["r"]
        worst = Fraction(min((r - 1) * s, n), n)
        return c * n >= r - 1, worst, fam(math.comb(n, r - 1))
    if mode == "blowup":
        m = shape["m"]
        return True, Fraction(0), 3 * fam(2 * m)
    if mode == "hp":
        n = shape["n"]
        return c * n >= 1, Fraction(s, n), 2 * fam(n + (n - 1) // 2)
    raise ValueError(f"unknown typicality mode {mode!r}")


def typicality_error(expected, report) -> str | None:
    typical, worst, checked = expected
    got = (report.typical, report.worst_deviation, report.checked)
    if got != (typical, worst, checked):
        return f"(typical, worst, checked) {got!r}, expected {expected!r}"
    return None
