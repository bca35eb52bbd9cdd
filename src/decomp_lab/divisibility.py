"""Necessary divisibility and balance conditions for decomposition problems.

Every checker reduces a named condition to degree-vector computations plus
one exact span-membership primitive, and returns a report carrying the
first failing witness per level.  These are necessary conditions only; the
solver probes sufficiency at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod

from .core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    host_degree_vector,
    index_set,
    injections,
    is_index_blowup,
    pattern_degree_vector,
)
from .intlattice import SpanChecker


@dataclass
class LevelFailure:
    level: int
    witness: tuple
    expected: str
    vector: tuple


@dataclass
class DivisibilityReport:
    verdict: bool
    failures: list[LevelFailure] = field(default_factory=list)
    checked_levels: tuple = ()
    kind: str = ""
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.verdict


def _report(kind: str, failures, levels, notes=()) -> DivisibilityReport:
    return DivisibilityReport(
        verdict=not failures,
        failures=failures,
        checked_levels=tuple(levels),
        kind=kind,
        notes=list(notes),
    )


# ---------------------------------------------------------------------------
# classical conditions


def steiner_divisible(n: int, q: int, r: int, lam: int = 1) -> DivisibilityReport:
    """binom(q-i, r-i) divides lam * binom(n-i, r-i) for 0 <= i < r."""
    if not (q >= r >= 1):
        raise ValueError("need q >= r >= 1")
    failures = []
    for i in range(r):
        block = comb(q - i, r - i)
        total = lam * comb(n - i, r - i)
        if total % block:
            failures.append(
                LevelFailure(i, (n, q, r, lam), f"{block} | {total}", (total,))
            )
    return _report("steiner", failures, range(r))


def h_divisible(g: Hypergraph, h: Hypergraph) -> DivisibilityReport:
    """Each host degree divisible by the gcd of same-level pattern degrees:
    the index-partite check with one part on each side."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if not h.edges:
        raise ValueError("pattern has no edges; degree gcd undefined")
    report = hp_divisible(g, Partition.trivial(g.n), h, Partition.trivial(h.n))
    report.kind = "h"
    return report


# ---------------------------------------------------------------------------
# index-partite conditions


def hp_divisible(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    pattern_partition: Partition,
) -> DivisibilityReport:
    """Host degree vectors lie in the integer span of the pattern degree
    vectors with matching part index, at every level."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if host_partition.t != pattern_partition.t:
        raise ValueError("partitions have different part counts")
    I = index_set(h, pattern_partition)
    bad = is_index_blowup(g, host_partition, I)
    if bad is not None:
        raise ValueError(f"host edge {bad} has an index outside the pattern index set")
    failures = _span_scan(
        g,
        _pattern_span((h,), pattern_partition, g.r + 1),
        lambda e: host_degree_vector(g, host_partition, e, I),
        host_partition.index_vector,
        "span of pattern degree vectors at index {}",
    )
    return _report("hp", failures, range(g.r + 1))


def h_balanced(g: Hypergraph, host_partition: Partition, h: Hypergraph) -> bool:
    """For each pattern subset f and f-partite partial transversal e, the
    counts into the pattern edges containing f all agree."""
    if host_partition.t != h.n:
        raise ValueError("need one host class per pattern vertex")
    classes = host_partition.parts
    for size in range(h.r + 1):
        for f in combinations(range(h.n), size):
            # a pattern edge as the index of the host edges it footprints
            containing = [
                tuple(int(x in fp) for x in range(h.n))
                for fp in sorted(h.edges)
                if set(f) <= set(fp)
            ]
            if not containing:
                continue
            for e in _partial_transversals(classes, f):
                counts = host_degree_vector(g, host_partition, e, containing)
                if len(set(counts)) > 1:
                    return False
    return True


def _partial_transversals(classes, footprint):
    """All vertex sets picking exactly one vertex from each listed class."""
    pools = [classes[x] for x in footprint]
    for choice in product(*pools):
        if len(set(choice)) == len(choice):
            yield tuple(sorted(choice))


# ---------------------------------------------------------------------------
# pattern lattices


# Pattern lattices are reused across hosts; the bound keeps a long-lived
# process that sees many distinct patterns from growing without limit.
_PATTERN_SPANS = 64


# The span of no generators, for a level or part index no pattern reaches:
# it holds the zero vector only.
_NO_SPAN = SpanChecker(())


@lru_cache(maxsize=_PATTERN_SPANS)
def _pattern_span(patterns, partition, levels: int) -> dict:
    """(level, part index or None) -> the span of the level-i pattern degree
    vectors, for every level i < levels.  Each pattern of the tuple
    ``patterns`` gives one vector per i-set of its vertices, or per
    injection [i] -> V when it is ordered; with a pattern ``partition`` the
    vectors are grouped by the part index of that vertex set, and a plain
    hypergraph's vector counts its containing edges per index of the
    pattern's index set.  One entry holds every level, so a check hashes
    the family once."""
    gens: dict = {}
    for h in patterns:
        plain = not (h._ordered or h._coloured)
        index = index_set(h, partition) if plain else None
        for level in range(levels):
            subsets = injections(level, h.n) if h._ordered else combinations(range(h.n), level)
            for f in subsets:
                key = (level, None if partition is None else partition.index_vector(f))
                vec = pattern_degree_vector(h, partition, f, index) if plain else h.degree_vector(f)
                gens.setdefault(key, set()).add(vec)
    return {key: SpanChecker(sorted(vectors)) for key, vectors in gens.items()}


def _span_scan(g, spans, degree, index_of, expected: str) -> list[LevelFailure]:
    """Per level i <= g.r, the first i-set e of host vertices, in
    lexicographic order, whose vector degree(e) leaves spans[(i, part
    index)], the part index being index_of(e), or None without index_of.
    The failure's expected text is ``expected`` formatted with that index."""
    failures = []
    for level in range(g.r + 1):
        for e in combinations(range(g.n), level):
            idx = None if index_of is None else index_of(e)
            vec = degree(e)
            if spans.get((level, idx), _NO_SPAN).membership(vec) is None:
                failures.append(LevelFailure(level, e, expected.format(idx), vec))
                break
    return failures


# ---------------------------------------------------------------------------
# coloured conditions


def coloured_divisible(g: ColouredMultigraph, patterns) -> DivisibilityReport:
    """Colour degree vectors lie in the span of all pattern colour degree
    vectors of the same level."""
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("empty pattern family")
    for h in patterns:
        if h.r != g.r or h.colours != g.colours:
            raise ValueError("pattern family mismatches host")
    spans = _pattern_span(patterns, None, g.r + 1)
    failures = _span_scan(g, spans, g.degree_vector, None, "span of pattern colour degrees")
    return _report("coloured", failures, range(g.r + 1))


def tridivisible(g: ColouredMultigraph) -> bool:
    """All vertex degrees even and total size divisible by three."""
    if g.r != 2:
        raise ValueError("tridivisibility is a graph condition")
    if g.size() % 3:
        return False
    for v in range(g.n):
        if sum(g.degree_vector((v,))) % 2:
            return False
    return True


@dataclass
class BalanceReport:
    balanced: bool
    weights: dict | None
    closed_form: bool | None = None
    notes: list[str] = field(default_factory=list)


def coloured_balanced(g: ColouredMultigraph, patterns, b, c) -> BalanceReport:
    """Exact rational feasibility of density-matching pattern weights.

    Searches p in [b, 1/b] per pattern with the weighted density vectors
    within a (1 +- c) band of the host's.  For a rainbow-triangle family
    with c == 0 and b <= 1/2 the convexity closed form is evaluated too and
    cross-checked against the simplex verdict.
    """
    from .linprog import solve_feasibility

    b = Fraction(b)
    c = Fraction(c)
    if not (0 < b <= 1):
        raise ValueError("b must lie in (0, 1]")
    target = g.density_vector()
    dens = [h.density_vector() for h in patterns]
    nvars = len(patterns)
    constraints = []
    for d in range(g.colours):
        coeffs = [dens[j][d] for j in range(nvars)]
        lo = target[d] / (1 + c)
        hi = target[d] / (1 - c) if c < 1 else None
        constraints.append((coeffs, lo, hi))
    sol = solve_feasibility(nvars, [(b, 1 / b)] * nvars, constraints)
    report = BalanceReport(
        balanced=sol is not None,
        weights={j: sol[j] for j in range(nvars)} if sol is not None else None,
    )
    if c == 0 and b <= Fraction(1, 2) and _is_rainbow_triangle_family(patterns):
        shifted = [
            target[d] - b * sum(dens[j][d] for j in range(nvars))
            for d in range(g.colours)
        ]
        total = sum(shifted)
        closed = all(x >= 0 for x in shifted) and all(3 * x <= total for x in shifted)
        # the shift construction needs room below the upper bound
        closed = closed and (total + b <= 1 / b)
        report.closed_form = closed
        if closed and not report.balanced:
            raise AssertionError(
                "closed-form balance holds but exact feasibility failed"
            )
        if closed != report.balanced:
            report.notes.append(
                "closed form is sufficient only; exact feasibility differs"
            )
    return report


def _is_rainbow_triangle_family(patterns) -> bool:
    if not patterns:
        return False
    d = patterns[0].colours
    expected = d * (d - 1) * (d - 2)
    if len(patterns) != expected:
        return False
    return all(
        h.n == 3 and h.r == 2 and len(h.mult) == 3 and h.size() == 3
        for h in patterns
    )


# ---------------------------------------------------------------------------
# directed conditions


def digraph_divisible(g: Digraph, h: Digraph) -> DivisibilityReport:
    """Positional degree vectors lie in the span of the pattern's, at every
    level, checked on one injection per image set (the symmetry reduction)."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if not h.is_simple():
        raise ValueError("pattern digraph must be simple")
    spans = _pattern_span((h,), None, g.r + 1)
    failures = _span_scan(g, spans, g.degree_vector, None, "span of pattern positional degrees")
    return _report("digraph", failures, range(g.r + 1))


def shift_regular(g: Digraph) -> bool:
    """Degree vectors constant along order-preserving position shifts."""
    for i in range(1, g.r + 1):
        coordinate = {pi: k for k, pi in enumerate(injections(i, g.r))}
        shift_pairs = []
        for pi in combinations(range(g.r), i):
            for cshift in range(1, g.r):
                moved = tuple(x + cshift for x in pi)
                if moved[-1] < g.r:
                    shift_pairs.append((coordinate[pi], coordinate[moved]))
        if not shift_pairs:
            continue
        for psi in injections(i, g.n):
            vec = g.degree_vector(psi)
            if any(vec[a] != vec[b] for a, b in shift_pairs):
                return False
    return True


# ---------------------------------------------------------------------------
# coloured directed partite conditions


@dataclass
class CanonicalInfo:
    colour_index: list  # per colour: part index vector of its arcs
    position_blocks: list  # per colour: tuple of position blocks
    groups: list  # per colour: tuple of per-block permutation element sets


def _position_blocks(index_vec, r: int):
    blocks = []
    start = 0
    for size in index_vec:
        blocks.append(tuple(range(start, start + size)))
        start += size
    if start != r:
        raise ValueError("index vector does not sum to the arity")
    return tuple(blocks)


def _misplaced_block(arc, idx, partition: Partition) -> int | None:
    """The first j whose position block of the arc, cut by the arc's own
    index vector idx, leaves part j of the partition; None if there is none."""
    for j, block in enumerate(_position_blocks(idx, len(arc))):
        if not {arc[pos] for pos in block} <= set(partition.parts[j]):
            return j
    return None


def canonical_family_check(patterns, partition: Partition) -> CanonicalInfo:
    """Infer per-colour index vectors and per-block symmetry groups, or
    raise naming the violated clause.

    Clauses: every colour-d arc places its position blocks into the
    matching parts; no two colours share an arc image inside one pattern;
    the same-image arcs of a colour form left cosets of one block-product
    group, shared across the family.
    """
    if not patterns:
        raise ValueError("empty pattern family")
    if not partition.is_ordered_intervals():
        raise ValueError("pattern partition must be ordered intervals")
    q = patterns[0].n
    r = patterns[0].r
    D = patterns[0].colours
    family_colours = []
    for h in patterns:
        if (h.n, h.r, h.colours) != (q, r, D):
            raise ValueError("patterns disagree on (q, r, colours)")
        family_colours.append(h.unit_colours())
    colour_index: list = [None] * D
    groups: list = [None] * D
    blocks_per_colour: list = [None] * D
    for arc_colours in family_colours:
        by_colour: dict[int, list] = {}
        for arc, d in arc_colours:
            by_colour.setdefault(d, []).append(arc)
        for d, arcs in by_colour.items():
            for arc in arcs:
                idx = partition.index_vector(arc)
                if colour_index[d] is None:
                    colour_index[d] = idx
                    blocks_per_colour[d] = _position_blocks(idx, r)
                elif colour_index[d] != idx:
                    raise ValueError(
                        f"colour {d} arcs have mixed indices {colour_index[d]} and {idx}"
                    )
                j = _misplaced_block(arc, idx, partition)
                if j is not None:
                    raise ValueError(
                        f"colour {d} arc {arc} does not place block {j} into part {j}"
                    )
            # same-image structure within this pattern
            by_image: dict[frozenset, list] = {}
            for arc in arcs:
                by_image.setdefault(frozenset(arc), []).append(arc)
            image_sets = set()
            for img, same in by_image.items():
                for d2, arcs2 in by_colour.items():
                    if d2 != d and any(frozenset(a) == img for a in arcs2):
                        raise ValueError(
                            f"image {sorted(img)} occurs in colours {d} and {d2}"
                        )
                per_base = set()
                for base in same:
                    pos_of = {v: k for k, v in enumerate(base)}
                    per_base.add(
                        frozenset(
                            tuple(pos_of[other[k]] for k in range(r))
                            for other in same
                        )
                    )
                if len(per_base) > 1:
                    raise ValueError(
                        f"colour {d} same-image arcs at {sorted(img)} are not a coset"
                    )
                image_sets.add(per_base.pop())
            if len(image_sets) > 1:
                raise ValueError(f"colour {d} same-image sets are not uniform")
            # a coset set holds the identity and is closed, so it is a group,
            # and it keeps each block: every arc put block j in part j above
            lam = image_sets.pop()
            projections = [
                {tuple(sigma[pos] for pos in block) for sigma in lam}
                for block in blocks_per_colour[d]
            ]
            if prod(map(len, projections)) != len(lam):
                raise ValueError(
                    f"colour {d} symmetry is not a product over position blocks"
                )
            if groups[d] is None:
                groups[d] = lam
            elif groups[d] != lam:
                raise ValueError(f"colour {d} symmetry differs across the family")
    for d in range(D):
        if colour_index[d] is None:
            raise ValueError(f"colour {d} unused by the family")
    return CanonicalInfo(
        colour_index=colour_index,
        position_blocks=blocks_per_colour,
        groups=groups,
    )


def master_divisible(
    g: ColouredMultidigraph,
    host_partition: Partition,
    patterns,
    pattern_partition: Partition,
) -> DivisibilityReport:
    """Coloured positional degree vectors against index-matched pattern
    generators, plus the support condition that every host arc places its
    position blocks into the matching host parts in ascending order."""
    canonical_family_check(patterns, pattern_partition)
    failures = []
    # support: arcs must be block-ascending for their image index
    for arc in g.arcs():
        idx = host_partition.index_vector(arc)
        j = _misplaced_block(arc, idx, host_partition)
        if j is not None:
            failures.append(
                LevelFailure(g.r, arc, f"position block {j} inside host part {j}", idx)
            )
    if not failures:
        failures = _span_scan(
            g,
            _pattern_span(tuple(patterns), pattern_partition, g.r + 1),
            g.degree_vector,
            host_partition.index_vector,
            "span of pattern degree vectors at index {}",
        )
    return _report("master", failures, range(g.r + 1))
