"""Labelled complexes: restriction-closed sets of partial injections.

A complex assigns to every label set B a set of injections B -> V; closure
under restriction makes these the carrier for orbit and lattice
computations.  This module also houses the complex-level diagnostics:
group adaptedness, orbit decomposition, extension counting and the
typicality checks for host structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import comb, prod

from .core import (
    ColouredMultigraph,
    Hypergraph,
    Inj,
    Partition,
    index_set,
    inj_compose,
    inj_domain,
    inj_extends,
    inj_from_pairs,
    inj_restrict,
    partite_density,
)
from .rng import SplitMix64

ADAPT_DEGREE_BOUND = 10


# ---------------------------------------------------------------------------
# permutation groups on the label set

class PermGroup:
    """Permutation group on 0..q-1, materialized as image tuples."""

    def __init__(self, degree: int, elements) -> None:
        self.degree = degree
        elems = {tuple(map(int, s)) for s in elements}
        ident = tuple(range(degree))
        elems.add(ident)
        for s in elems:
            if sorted(s) != list(range(degree)):
                raise ValueError(f"{s} is not a permutation of 0..{degree - 1}")
        # verify closure; small degrees only, so the quadratic check is fine
        for a in elems:
            for b in elems:
                if tuple(a[b[i]] for i in range(degree)) not in elems:
                    raise ValueError("element set is not closed under composition")
        self.elements = tuple(sorted(elems))
        self._index = {s: i for i, s in enumerate(self.elements)}
        # per label set, at most 2**degree entries each
        self._restrictions: dict[frozenset, tuple[Inj, ...]] = {}
        self._onto: dict[frozenset, tuple[Inj, ...]] = {}

    @classmethod
    def symmetric(cls, q: int) -> "PermGroup":
        return cls(q, permutations(range(q)))

    @classmethod
    def trivial(cls, q: int) -> "PermGroup":
        return cls(q, [tuple(range(q))])

    @classmethod
    def from_generators(cls, q: int, generators) -> "PermGroup":
        gens = [tuple(map(int, g)) for g in generators]
        ident = tuple(range(q))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = tuple(a[g[i]] for i in range(q))
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return cls(q, seen)

    @classmethod
    def part_stabilizer(cls, partition: Partition) -> "PermGroup":
        """All permutations fixing every part setwise."""
        q = partition.ground_size
        perms_per_part = [permutations(part) for part in partition.parts]
        elems = []
        for chosen in product(*perms_per_part):
            sigma = [0] * q
            for part, image in zip(partition.parts, chosen):
                for src, dst in zip(part, image):
                    sigma[src] = dst
            elems.append(tuple(sigma))
        return cls(q, elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, sigma) -> bool:
        return tuple(sigma) in self._index

    def __iter__(self):
        return iter(self.elements)

    def restrictions(self, labels) -> tuple[Inj, ...]:
        """All restrictions of group elements to a fixed domain."""
        key = frozenset(labels)
        if key not in self._restrictions:
            domain = sorted(key)
            out = {tuple((x, s[x]) for x in domain) for s in self.elements}
            self._restrictions[key] = tuple(sorted(out))
        return self._restrictions[key]

    def onto(self, labels) -> tuple[Inj, ...]:
        """All restrictions of group elements mapping onto a fixed image set."""
        target = frozenset(labels)
        if target not in self._onto:
            out = set()
            for s in self.elements:
                domain = sorted(x for x in range(self.degree) if s[x] in target)
                out.add(tuple((x, s[x]) for x in domain))
            self._onto[target] = tuple(sorted(out))
        return self._onto[target]


# ---------------------------------------------------------------------------
# labelled complexes

def _complete_levels(pools) -> dict:
    """Per label set B of 0..len(pools)-1, every injection sending each
    label x of B into pools[x], with distinct images."""
    levels = {}
    for size in range(len(pools) + 1):
        for B in combinations(range(len(pools)), size):
            levels[frozenset(B)] = {
                tuple(zip(B, img))
                for img in product(*(pools[x] for x in B))
                if len(set(img)) == size
            }
    return levels


class LabelledComplex:
    """Levels B -> set of injections B -> V, closed under restriction.

    A complex given no label or host partition carries the one-part
    partition on that side, so every complex has both."""

    def __init__(
        self,
        q: int,
        levels: dict,
        vertex_count: int,
        label_partition: Partition | None = None,
        host_partition: Partition | None = None,
        complete: bool = False,
    ) -> None:
        self.q = q
        self.vertex_count = vertex_count
        self.levels = {frozenset(B): frozenset(s) for B, s in levels.items()}
        self.levels.setdefault(frozenset(), frozenset({()}))
        self.label_partition = label_partition or Partition.trivial(q)
        self.host_partition = host_partition or Partition.trivial(vertex_count)
        self.complete = complete

    # -- constructors

    @classmethod
    def complete_complex(cls, q: int, n: int) -> "LabelledComplex":
        return cls(q, _complete_levels([range(n)] * q), n, complete=True)

    @classmethod
    def complete_partite(
        cls, label_partition: Partition, host_partition: Partition
    ) -> "LabelledComplex":
        """Injections sending labels of part j into host part j."""
        if label_partition.t != host_partition.t:
            raise ValueError("pattern and host partitions need equal part counts")
        for j in range(label_partition.t):
            if label_partition.parts[j] and not host_partition.parts[j]:
                raise ValueError(f"host part {j} empty but pattern part {j} is not")
        label_part = label_partition.assignment()
        pools = [host_partition.parts[label_part[x]] for x in range(label_partition.ground_size)]
        return cls(
            len(pools),
            _complete_levels(pools),
            host_partition.ground_size,
            label_partition=label_partition,
            host_partition=host_partition,
            complete=True,
        )

    @classmethod
    def from_maximal(cls, q: int, n: int, maximal_edges) -> "LabelledComplex":
        """Downward closure of the given labelled edges."""
        levels: dict[frozenset, set] = {}
        for psi in maximal_edges:
            psi = inj_from_pairs(psi)
            dom = sorted(inj_domain(psi))
            for size in range(len(dom) + 1):
                for sub in combinations(dom, size):
                    rest = inj_restrict(psi, sub)
                    levels.setdefault(frozenset(sub), set()).add(rest)
        for size in range(q + 1):
            for B in combinations(range(q), size):
                levels.setdefault(frozenset(B), set())
        return cls(q, levels, n)

    # -- queries

    def level(self, labels) -> frozenset:
        return self.levels.get(frozenset(labels), frozenset())

    def at_size(self, size: int) -> list[Inj]:
        out = []
        for B, injs in self.levels.items():
            if len(B) == size:
                out.extend(injs)
        return sorted(out)

    def __contains__(self, psi) -> bool:
        return tuple(psi) in self.level(inj_domain(psi))

    def full_level(self) -> frozenset:
        return self.level(range(self.q))

    def is_restriction_closed(self) -> bool:
        for B, injs in self.levels.items():
            for psi in injs:
                for x in B:
                    sub = inj_restrict(psi, B - {x})
                    if sub not in self.level(B - {x}):
                        return False
        return True

    def vertices(self) -> set[int]:
        out = set()
        for (x,) in combinations(range(self.q), 1):
            for psi in self.level({x}):
                out.add(psi[0][1])
        return out

    # -- group actions

    def is_adapted(self, group: PermGroup) -> bool:
        """Closed under precomposition with restrictions of group elements."""
        if group.degree != self.q:
            raise ValueError("group degree must match the label set")
        return all(self._maps_into(sigma) for sigma in group.elements)

    def _maps_into(self, sigma) -> bool:
        """Does precomposing with the restrictions of the permutation sigma
        map every level into the complex?"""
        for B, injs in self.levels.items():
            if not injs:
                continue
            pre = frozenset(x for x in range(self.q) if sigma[x] in B)
            sig_r = tuple((x, sigma[x]) for x in sorted(pre))
            target = self.level(pre)
            for psi in injs:
                if inj_compose(psi, sig_r) not in target:
                    return False
        return True

    def exactly_adapted(self) -> PermGroup | None:
        """The unique group Sigma for which membership of psi o tau is
        equivalent to tau being a restriction of a Sigma element, or None.
        A label degree above ADAPT_DEGREE_BOUND raises ValueError."""
        if self.q > ADAPT_DEGREE_BOUND:
            raise ValueError(f"label degree {self.q} above the bound {ADAPT_DEGREE_BOUND}")
        candidates = [s for s in permutations(range(self.q)) if self._maps_into(s)]
        try:
            group = PermGroup(self.q, candidates)
        except ValueError:
            return None
        # exactness: any bijection between label sets acting within the
        # complex must itself be a restriction of a group element
        for B, injs in self.levels.items():
            if not injs:
                continue
            size = len(B)
            for Bp in combinations(range(self.q), size):
                allowed = set(group.onto(B))
                for tau_img in permutations(sorted(B)):
                    tau = tuple(zip(sorted(Bp), tau_img))
                    in_group = tau in allowed
                    for psi in injs:
                        if (inj_compose(psi, tau) in self.level(Bp)) != in_group:
                            return None
        return group

    def orbit(self, psi: Inj, group: PermGroup) -> tuple[Inj, ...]:
        """psi composed with every group restriction onto its domain."""
        B = inj_domain(psi)
        return tuple(sorted(inj_compose(psi, sigma) for sigma in group.onto(B)))

    def orbit_canonical(self, psi: Inj, group: PermGroup) -> Inj:
        return self.orbit(psi, group)[0]

    def distinct_orbits(self, maps, group: PermGroup):
        """Each orbit that meets ``maps`` once, in the order it is first met."""
        seen = set()
        for psi in maps:
            if psi not in seen:
                orbit = self.orbit(psi, group)
                seen.update(orbit)
                yield orbit

    def orbits_at_size(self, size: int, group: PermGroup) -> list[tuple[Inj, ...]]:
        """Orbit decomposition of the size-level, canonically sorted."""
        out = sorted(self.distinct_orbits(self.at_size(size), group))
        if not all(member in self for orbit in out for member in orbit):
            raise ValueError("complex is not adapted to the group")
        return out

    # -- embeddings

    def full_embedding_exists(self, partial: Inj) -> bool:
        """Is there a top-level labelled edge extending the partial map?
        A complete complex holds every injection that sends each label into
        its host part, so a partial map extends exactly when it is in the
        complex and every part has room for all its labels, which is when
        the top level is not empty."""
        if self.complete:
            return partial in self and bool(self.full_level())
        return any(inj_extends(phi, partial) for phi in self.full_level())

    def to_json_dict(self) -> dict:
        maximal = sorted(self.full_level())
        return {
            "type": "labelled-complex",
            "q": self.q,
            "n": self.vertex_count,
            "maximal": [[list(pair) for pair in psi] for psi in maximal],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LabelledComplex":
        if doc.get("type") != "labelled-complex":
            raise ValueError("not a labelled-complex document")
        maximal = [tuple(tuple(pair) for pair in psi) for psi in doc["maximal"]]
        return cls.from_maximal(doc["q"], doc["n"], maximal)


# ---------------------------------------------------------------------------
# extensions

@dataclass(frozen=True)
class Extension:
    """Rooted template: new partite vertices plus labelled edges to realize.

    Template vertices are (position, copy) pairs; copy 0 is the root copy,
    identified with the positions themselves.  ``edges`` lists the labelled
    edges of the template that must land in the complex; restrictions pin
    chosen template edges to an allowed set of host labelled edges (an
    absent allowed-set imposes no constraint and is flagged in reports).
    """

    q: int
    new_vertices: tuple  # ((position, copy), ...)
    edges: tuple  # template labelled edges: ((label, (position, copy)), ...)
    root: Inj  # embedding of the root copy: ((position, vertex), ...)
    restrictions: tuple = ()  # ((template_edge, frozenset|None), ...)

    @property
    def rank(self) -> int:
        return max((copy for _, copy in self.new_vertices), default=0)

    @property
    def new_count(self) -> int:
        return len(self.new_vertices)

    def to_json_dict(self) -> dict:
        return {
            "type": "extension-template",
            "q": self.q,
            "new_vertices": [list(v) for v in self.new_vertices],
            "labelled_edges": [
                [[label, list(tv)] for label, tv in edge] for edge in self.edges
            ],
            "root": [list(p) for p in self.root],
            "restriction_classes": [
                {
                    "edge": [[label, list(tv)] for label, tv in edge],
                    "allowed": (
                        None
                        if allowed is None
                        else [[list(p) for p in psi] for psi in sorted(allowed)]
                    ),
                }
                for edge, allowed in self.restrictions
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Extension":
        if doc.get("type") != "extension-template":
            raise ValueError("not an extension-template document")

        def edge_of(raw):
            return tuple((label, tuple(tv)) for label, tv in raw)

        restrictions = tuple(
            (
                edge_of(item["edge"]),
                None
                if item["allowed"] is None
                else frozenset(
                    tuple(tuple(p) for p in psi) for psi in item["allowed"]
                ),
            )
            for item in doc.get("restriction_classes", [])
        )
        return cls(
            q=doc["q"],
            new_vertices=tuple(tuple(v) for v in doc["new_vertices"]),
            edges=tuple(edge_of(e) for e in doc["labelled_edges"]),
            root=tuple(tuple(p) for p in doc["root"]),
            restrictions=restrictions,
        )


def complete_extension(q: int, root: Inj, new_positions) -> Extension:
    """Template whose edge set is every partite injection on root + new vertices."""
    counters: dict[int, int] = {}
    new_vertices = []
    for pos in new_positions:
        counters[pos] = counters.get(pos, 0) + 1
        new_vertices.append((pos, counters[pos]))
    vertices = [(pos, 0) for pos, _ in root] + new_vertices
    by_position: dict[int, list] = {}
    for pos, copy in vertices:
        by_position.setdefault(pos, []).append((pos, copy))
    edges = []
    positions = sorted(by_position)
    for size in range(1, len(positions) + 1):
        for B in combinations(positions, size):
            for choice in product(*(by_position[pos] for pos in B)):
                edges.append(tuple(zip(B, choice)))
    return Extension(
        q=q,
        new_vertices=tuple(new_vertices),
        edges=tuple(sorted(set(edges))),
        root=tuple(root),
    )


@dataclass(frozen=True)
class ExtensionCount:
    """An exact count (``value``), or a Monte-Carlo ``estimate`` that is an
    exact Fraction of the sampled hits with an approximate float ``stderr``."""

    value: int | None
    estimate: Fraction | None = None
    stderr: float | None = None
    samples: int = 0
    seed: int | None = None
    unconstrained_restrictions: int = 0

    @property
    def exact(self) -> bool:
        return self.value is not None


def extension_count(
    phi: LabelledComplex,
    ext: Extension,
    exact_limit: int = 4,
    samples: int = 20000,
    seed: int | None = None,
) -> ExtensionCount:
    """Count embeddings of the template extending the root embedding.

    Exact backtracking when the number of new vertices is at most
    ``exact_limit``; otherwise Monte-Carlo with a mandatory seed.
    """
    root_map = dict(ext.root)
    unconstrained = sum(1 for _, allowed in ext.restrictions if allowed is None)
    restriction_map = {
        edge: allowed for edge, allowed in ext.restrictions if allowed is not None
    }
    new = list(ext.new_vertices)
    new_rank = {tv: i for i, tv in enumerate(new)}

    def realize(edge, assignment) -> Inj | None:
        pairs = []
        for label, tvert in edge:
            if tvert[1] == 0:
                v = root_map.get(tvert[0])
            else:
                v = assignment.get(tvert)
            if v is None:
                return None
            pairs.append((label, v))
        return tuple(sorted(pairs))

    # edges become checkable once their latest-placed new vertex is assigned
    ready: list[list] = [[] for _ in range(len(new) + 1)]
    for edge in ext.edges:
        ranks = [new_rank[tv] for _, tv in edge if tv[1] != 0]
        ready[max(ranks) + 1 if ranks else 0].append(edge)

    def edge_ok(edge, assignment) -> bool:
        image = realize(edge, assignment)
        if image is None:
            return True
        if image not in phi:
            return False
        allowed = restriction_map.get(edge)
        return allowed is None or image in allowed

    if not all(edge_ok(edge, {}) for edge in ready[0]):
        return ExtensionCount(value=0, unconstrained_restrictions=unconstrained)

    universe = sorted(phi.vertices())
    if ext.new_count <= exact_limit:
        count = 0
        used = set(root_map.values())
        assignment: dict = {}

        def rec(idx: int) -> None:
            nonlocal count
            if idx == len(new):
                count += 1
                return
            tv = new[idx]
            for v in universe:
                if v in used:
                    continue
                assignment[tv] = v
                if all(edge_ok(edge, assignment) for edge in ready[idx + 1]):
                    used.add(v)
                    rec(idx + 1)
                    used.discard(v)
                del assignment[tv]

        rec(0)
        return ExtensionCount(value=count, unconstrained_restrictions=unconstrained)

    if seed is None:
        raise ValueError("Monte-Carlo extension counting requires an explicit seed")
    rng = SplitMix64(seed)
    n = len(universe)
    root_values = set(root_map.values())
    hits = 0
    for _ in range(samples):
        assignment = {tv: universe[rng.randrange(n)] for tv in new}
        values = list(assignment.values())
        if len(set(values)) != len(values) or root_values & set(values):
            continue
        if all(
            edge_ok(edge, assignment) for level in ready for edge in level
        ):
            hits += 1
    scale = Fraction(n) ** ext.new_count
    p = Fraction(hits, samples)
    estimate = p * scale
    # Fraction ** Fraction(1, 2) is a float, and so is the product with scale
    stderr = (p * (1 - p) / samples) ** Fraction(1, 2) * scale if 0 < hits < samples else 0.0
    return ExtensionCount(
        value=None,
        estimate=estimate,
        stderr=stderr,
        samples=samples,
        seed=seed,
        unconstrained_restrictions=unconstrained,
    )


@dataclass
class ExtendabilityReport:
    extendable: bool
    omega: Fraction
    rank: int
    checked: int
    worst: tuple | None  # (count, threshold, template description)
    notes: list[str] = field(default_factory=list)


def default_templates(q: int, rank: int):
    """Template library: every multiset of at most 3 new partite vertices
    with per-position copies bounded by the rank."""
    from itertools import combinations_with_replacement

    out = []
    for k in range(1, 4):
        for positions in combinations_with_replacement(range(q), k):
            if any(positions.count(p) > rank for p in set(positions)):
                continue
            out.append(positions)
    return out


def is_extendable(
    phi: LabelledComplex,
    omega: Fraction,
    rank: int,
    templates=None,
    extra_templates=(),
    root_limit: int | None = 200,
) -> ExtendabilityReport:
    """Check the template library over every root embedding.

    Every template, the extras included, is counted exactly, whatever its
    number of new vertices.  A zero completion count is never considered
    dense, so an empty complex reports non-extendable for any positive
    omega.  Above ``root_limit`` roots only every stride-th root is
    checked, and a note says how many; a ``root_limit`` below 1 raises
    ValueError.
    """
    omega = Fraction(omega)
    n = phi.vertex_count
    position_lists = templates if templates is not None else default_templates(phi.q, rank)
    if root_limit is not None and root_limit < 1:
        raise ValueError("root_limit must be at least 1")
    roots = sorted(phi.full_level())
    notes = []
    if root_limit is not None and len(roots) > root_limit:
        stride = max(1, len(roots) // root_limit)
        total = len(roots)
        roots = roots[::stride]
        if stride > 1:
            notes.append(f"roots subsampled: {len(roots)} of {total} checked (stride {stride})")
    checked = 0
    worst = None
    ok = True
    if not roots:
        notes.append("no root embeddings exist at the top level")
        ok = False
    # (extension, description): the library templates at every root, then the extras
    library = ((complete_extension(phi.q, root, p), p) for p in position_lists for root in roots)
    extra = ((ext, ext.new_vertices) for ext in extra_templates)
    for ext, description in chain(library, extra):
        res = extension_count(phi, ext, exact_limit=ext.new_count)
        threshold = omega * Fraction(n) ** ext.new_count
        checked += 1
        if not (res.value >= threshold and res.value > 0):
            ok = False
        if worst is None or Fraction(res.value) - threshold < worst[0] - worst[1]:
            worst = (Fraction(res.value), threshold, description)
    return ExtendabilityReport(
        extendable=ok, omega=omega, rank=rank, checked=checked, worst=worst, notes=notes
    )


# ---------------------------------------------------------------------------
# typicality checks
#
# Every mode generates cases (k, key, lhs, expected): a family of k sets, its
# joint count lhs and the count a random host of the same densities would
# give.  One fold turns the cases into a report, so all modes share one band,
# one deviation and one witness rule, and every mode first checks its band
# and family size with _band.

@dataclass
class TypicalityReport:
    typical: bool
    c: Fraction
    s: int
    mode: str
    checked: int
    worst_deviation: Fraction | None  # max |lhs/expected - 1| over nonzero expectations
    witness: tuple | None = None  # (*key, lhs, expected) of the first failing case
    exact: bool = True
    notes: list[str] = field(default_factory=list)


def _band(c, s: int) -> Fraction:
    """c as a Fraction.  A family size s below 1, which would check no
    family and report typical, or a band c below 0 raises ValueError."""
    if s < 1:
        raise ValueError(f"typicality needs a family size s of at least 1, not {s}")
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"typicality needs a band c of 0 or more, not {c}")
    return c


def _typicality(mode: str, c: Fraction, s: int, cases, exact: bool = True) -> TypicalityReport:
    """Fold (k, key, lhs, expected) cases into a report.

    A case fails when expected == 0 < lhs or |lhs/expected - 1| > k*c; the
    host is typical when no case fails, and the first failing case is the
    witness.
    """
    checked = 0
    worst = Fraction(0)
    witness = None
    # |lhs/expected - 1| = gap/size with integers, so the comparisons below
    # cross-multiply instead of building a Fraction per case
    for k, key, lhs, expected in cases:
        checked += 1
        if expected:
            size = abs(expected.numerator)
            gap = abs(lhs * expected.denominator - expected.numerator)
            if gap * worst.denominator > worst.numerator * size:
                worst = Fraction(gap, size)
            failed = gap * c.denominator > k * c.numerator * size
        else:
            failed = lhs > 0
        if failed and witness is None:
            witness = (*key, lhs, expected)
    return TypicalityReport(
        typical=witness is None, c=c, s=s, mode=mode, checked=checked,
        worst_deviation=worst, witness=witness, exact=exact,
    )


def _subfamilies(fsets, s: int):
    """(count, iterator) of the families of 1..s distinct members, smallest first."""
    count = sum(comb(len(fsets), k) for k in range(1, s + 1))
    return count, chain.from_iterable(combinations(fsets, k) for k in range(1, s + 1))


def _family_source(total: int, budget: int, every, draw, samples: int, seed):
    """(families, exact): ``every`` when its ``total`` fits the budget, else
    ``samples`` draws of ``draw(rng)`` from a generator seeded with ``seed``."""
    if total <= budget:
        return every, True
    if seed is None:
        raise ValueError("sampling typicality requires an explicit seed")
    rng = SplitMix64(seed)
    return (draw(rng) for _ in range(samples)), False


def _check_budget(total: int, budget: int, message: str) -> None:
    """Modes without sampling refuse more than ``budget`` cases."""
    if total > budget:
        raise ValueError(message)


def _neighbourhoods(g: Hypergraph, fsets) -> dict:
    """Vertex neighbourhood of each (r-1)-set of a graph."""
    return {f: frozenset(v for (v,) in g.neighbourhood(f)) for f in fsets}


def _joint(nbhd: dict, fam, within) -> int:
    """Number of vertices of ``within`` adjacent to every set of ``fam``."""
    return len(within.intersection(*(nbhd[f] for f in fam)))


def is_typical_plain(
    g: Hypergraph,
    c,
    s: int,
    budget: int = 200000,
    samples: int = 2000,
    seed: int | None = None,
) -> TypicalityReport:
    """Joint neighbourhoods of up to s many (r-1)-sets have near-expected size."""
    c = _band(c, s)
    n = g.n
    d = g.density()
    fsets = list(combinations(range(n), g.r - 1))
    nbhd = _neighbourhoods(g, fsets)

    def draw(rng):
        k = 1 + rng.randrange(s)
        return tuple(rng.sample(fsets, min(k, len(fsets))))

    total, every = _subfamilies(fsets, s)
    families, exact = _family_source(total, budget, every, draw, samples, seed)
    cases = (
        (len(fam), (fam,), _joint(nbhd, fam[1:], nbhd[fam[0]]), d ** len(fam) * n)
        for fam in families
    )
    return _typicality("plain", c, s, cases, exact)


def is_typical_blowup(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    c,
    s: int,
    budget: int = 200000,
) -> TypicalityReport:
    """Blowup typicality: within-class joint neighbourhoods track the class
    densities of the pattern edges involved."""
    c = _band(c, s)
    if host_partition.t != h.n:
        raise ValueError("host partition must have one class per pattern vertex")
    part_of = host_partition.assignment()
    classes = [frozenset(part) for part in host_partition.parts]
    # class density per pattern edge: the host edges indexed by its classes
    dens = {
        f: partite_density(g, host_partition, [int(x in f) for x in range(h.n)])
        for f in h.edges
    }
    # candidate (r-1)-partite sets, grouped by footprint
    fsets = []
    for e in combinations(range(g.n), g.r - 1):
        fp = tuple(sorted(part_of[v] for v in e))
        if len(set(fp)) == len(fp):
            fsets.append((e, fp))
    nbhd = _neighbourhoods(g, [e for e, _ in fsets])
    total, families = _subfamilies(fsets, s)
    _check_budget(total, budget, "exact blowup typicality above budget; reduce s or the host")

    def cases():
        for fam in families:
            footprints = [set(fp) for _, fp in fam]
            for x in range(h.n):
                if any(x in fp for fp in footprints):
                    continue
                involved = [tuple(sorted(fp | {x})) for fp in footprints]
                if any(f not in h.edges for f in involved):
                    continue
                lhs = _joint(nbhd, (e for e, _ in fam), classes[x])
                expected = prod((dens[f] for f in involved), start=Fraction(len(classes[x])))
                yield len(fam), (fam, x), lhs, expected

    return _typicality("blowup", c, s, cases())


def is_typical_coloured(
    g: ColouredMultigraph,
    c,
    s: int,
    budget: int = 200000,
    samples: int = 2000,
    seed: int | None = None,
) -> TypicalityReport:
    """Colour-weighted joint degrees track products of colour densities."""
    c = _band(c, s)
    n = g.n
    dens = g.density_vector()
    fsets = list(combinations(range(n), g.r - 1))
    # vertex profiles: for f and colour d, weight of f+v edges in colour d
    weight = {}
    for e, vec in g.mult:
        for f in combinations(e, g.r - 1):
            rest = (set(e) - set(f)).pop()
            weight[(f, rest)] = vec

    def joint(fam, cols) -> int:
        total = 0
        for v in range(n):
            prod_w = 1
            for f, d in zip(fam, cols):
                if v in f:
                    prod_w = 0
                    break
                vec = weight.get((f, v))
                if vec is None or not vec[d]:
                    prod_w = 0
                    break
                prod_w *= vec[d]
            total += prod_w
        return total

    every = (
        (fam, cols)
        for k in range(1, s + 1)
        for fam in product(fsets, repeat=k)
        for cols in product(range(g.colours), repeat=k)
    )

    def draw(rng):
        k = 1 + rng.randrange(s)
        fam = tuple(fsets[rng.randrange(len(fsets))] for _ in range(k))
        cols = tuple(rng.randrange(g.colours) for _ in range(k))
        return fam, cols

    total = sum((len(fsets) * g.colours) ** k for k in range(1, s + 1))
    families, exact = _family_source(total, budget, every, draw, samples, seed)
    cases = (
        (len(fam), (fam, cols), joint(fam, cols),
         prod((dens[d] for d in cols), start=Fraction(n)))
        for fam, cols in families
    )
    return _typicality("coloured", c, s, cases, exact)


def is_typical_hp(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    pattern_partition: Partition,
    c,
    s: int,
    budget: int = 200000,
) -> TypicalityReport:
    """Index-partite typicality: per-part joint neighbourhoods track the
    densities of the index classes hit, with both sides allowed to vanish
    when an index falls outside the pattern's realized index set."""
    c = _band(c, s)
    if host_partition.t != pattern_partition.t:
        raise ValueError("partitions have different part counts")
    dens = {
        i: partite_density(g, host_partition, i)
        for i in index_set(h, pattern_partition)
    }
    fsets = list(combinations(range(g.n), g.r - 1))
    nbhd = _neighbourhoods(g, fsets)
    total, families = _subfamilies(fsets, s)
    _check_budget(total * host_partition.t, budget, "exact index-partite typicality above budget")
    parts = [frozenset(part) for part in host_partition.parts]

    def cases():
        for fam in families:
            for j, part in enumerate(parts):
                # the index of f + v for v in part j; outside the realized
                # set the expectation is zero
                idxs = [
                    tuple(a + (q == j) for q, a in enumerate(host_partition.index_vector(f)))
                    for f in fam
                ]
                if all(i in dens for i in idxs):
                    expected = prod((dens[i] for i in idxs), start=Fraction(len(part)))
                else:
                    expected = Fraction(0)
                yield len(fam), (fam, j), _joint(nbhd, fam, part), expected

    return _typicality("index-partite", c, s, cases())
