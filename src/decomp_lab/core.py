"""Canonical hypergraph, coloured multigraph, digraph and partition types.

Vertices are 0-based contiguous integers.  Unordered edges are stored as
sorted duplicate-free tuples, arcs as tuples of distinct vertices indexed by
position, and partial injections ("labelled edges") as tuples of
(label, vertex) pairs sorted by label.  All values are immutable after
construction and all operations are pure, so everything here is safe to
share across threads.

Every structure lists its slots the same way: ``slots()`` gives its edges
or arcs in sorted order, each paired with its multiplicity vector, or with
None when the structure is uncoloured.  Two class flags say how to read a
slot: ``_ordered`` (arcs, whose positions matter, against sorted edges)
and ``_coloured`` (multiplicity vectors over ``colours``).  Code that
takes any of the four types reads it through these three names.  Every
degree, neighbourhood and density query reads a per-level incidence index
that each structure builds from its slots in one pass on first use and
memoizes; an index is stored only once it is complete, so a race between
threads at worst builds it twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

# ---------------------------------------------------------------------------
# partial injections

Inj = tuple  # tuple[(label, vertex), ...] sorted by label


def inj_from_pairs(pairs) -> Inj:
    items = tuple(sorted((int(a), int(b)) for a, b in pairs))
    labels = [a for a, _ in items]
    values = [b for _, b in items]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels in injection")
    if len(set(values)) != len(values):
        raise ValueError("map is not injective")
    return items


def inj_domain(psi: Inj) -> frozenset:
    return frozenset(a for a, _ in psi)


def inj_image(psi: Inj) -> frozenset:
    return frozenset(b for _, b in psi)


def inj_restrict(psi: Inj, labels) -> Inj:
    labels = set(labels)
    return tuple((a, b) for a, b in psi if a in labels)


def inj_compose(outer: Inj, inner: Inj) -> Inj:
    """outer o inner, defined on inner's domain; Im(inner) must lie in Dom(outer)."""
    lookup = dict(outer)
    return tuple(sorted((a, lookup[b]) for a, b in inner))


def inj_extends(sup: Inj, sub: Inj) -> bool:
    """True when sup restricted to Dom(sub) equals sub."""
    lookup = dict(sup)
    return all(lookup.get(a) == b for a, b in sub)


def injections(i: int, n: int) -> list[tuple]:
    """All injections [i] -> [n] as value tuples, lexicographically sorted."""
    return list(permutations(range(n), i))


# ---------------------------------------------------------------------------
# incidence index


class _Incidence:
    """Slots and degree queries shared by the four structure types.

    ``slots()`` lists a structure's edges or arcs; ``_ordered`` says whether
    they are arcs (position matters) and ``_coloured`` whether each carries
    a multiplicity vector over the colours.  Level i of the index maps each
    i-element sub-placement of an edge or arc to the entries that contain
    it: the edges or arcs themselves, or for coloured structures their
    (edge or arc, multiplicity vector) slots.  Unordered structures key a
    sub-placement by its sorted vertex subset, ordered ones by its
    (position, vertex) pairs sorted by position.
    """

    _ordered = False
    _coloured = False
    _type = ""  # the JSON document type

    @classmethod
    def _key(cls, item) -> tuple:
        """The stored form of an edge (sorted) or arc (as given)."""
        return tuple(map(int, item)) if cls._ordered else tuple(sorted(map(int, item)))

    def _incidence(self, level: int) -> dict:
        memo = self.__dict__.setdefault("_incidence_memo", {})
        index = memo.get(level)
        if index is None:
            index = {}
            for slot in self.slots():
                item = slot[0]
                entry = slot if self._coloured else item
                slots = tuple(enumerate(item)) if self._ordered else item
                for key in combinations(slots, level):
                    index.setdefault(key, []).append(entry)
            # tuples: smaller than lists, and callers cannot alter the memo
            index = {key: tuple(entries) for key, entries in index.items()}
            memo[level] = index
        return index

    def _containing(self, key) -> tuple:
        """Entries whose edge contains the sorted vertex tuple key, or whose
        arc places the sorted (position, vertex) pairs of key."""
        if len(key) > self.r:
            return ()
        return self._incidence(len(key)).get(key, ())

    def _placements(self, psi) -> list[tuple]:
        """Per injection pi: [i] -> [r] in lex order, the entries whose arc
        puts position pi[k] on vertex psi[k]."""
        psi = tuple(psi)
        return [
            self._containing(tuple(sorted(zip(pi, psi))))
            for pi in injections(len(psi), self.r)
        ]


def _colour_sums(pairs, colours: int) -> list[int]:
    return [sum(vec[d] for _, vec in pairs) for d in range(colours)]


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Partition of the ground set 0..n-1 into ordered parts."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for part in self.parts:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} assigned to two parts")
                seen.add(v)
        if seen and seen != set(range(max(seen) + 1)):
            raise ValueError("parts must cover a contiguous 0-based ground set")

    @classmethod
    def from_lists(cls, parts) -> "Partition":
        return cls(tuple(tuple(sorted(int(v) for v in part)) for part in parts))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((v,) for v in range(n)))

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def ground_size(self) -> int:
        return sum(len(p) for p in self.parts)

    def assignment(self) -> dict[int, int]:
        return dict(self._vertex_parts)

    @cached_property
    def _vertex_parts(self) -> dict[int, int]:
        """Vertex to part index, built once per (frozen) partition."""
        return {v: j for j, part in enumerate(self.parts) for v in part}

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def index_vector(self, subset) -> tuple[int, ...]:
        """Per-part intersection counts of a vertex set."""
        vertex_parts = self._vertex_parts
        counts = [0] * len(self.parts)
        for v in set(subset):
            if v not in vertex_parts:
                raise ValueError("subset outside the partition's ground set")
            counts[vertex_parts[v]] += 1
        return tuple(counts)

    def is_ordered_intervals(self) -> bool:
        """Parts are consecutive intervals in increasing order."""
        expected = 0
        for part in self.parts:
            for v in part:
                if v != expected:
                    return False
                expected += 1
        return True

    def to_json_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Partition":
        return cls.from_lists(doc["parts"])


# ---------------------------------------------------------------------------
# plain hypergraphs


@dataclass(frozen=True)
class _Plain(_Incidence):
    """Uncoloured r-uniform hypergraph or r-digraph on 0..n-1: a set of
    edges or arcs.  Subclasses set ``_ordered``, the JSON ``_type`` and the
    name ``_field`` of their set field."""

    n: int
    r: int

    _field = ""

    def __post_init__(self):
        n, r, ordered = self.n, self.r, self._ordered
        if r <= 0:
            raise ValueError("uniformity must be positive")
        kind = "arc" if ordered else "edge"
        for e in getattr(self, self._field):
            if len(e) != r or len(set(e)) != r or not (ordered or tuple(sorted(e)) == e):
                raise ValueError(f"bad {kind} {e}")
            if min(e) < 0 or max(e) >= n:
                raise ValueError(f"{kind} {e} out of range")

    @classmethod
    def _from_items(cls, n: int, r: int, items):
        return cls(n, r, frozenset(map(cls._key, items)))

    @classmethod
    def complete(cls, n: int, r: int):
        """Every edge (r-set) or arc (injection [r] -> [n]) on 0..n-1."""
        return cls(n, r, frozenset((permutations if cls._ordered else combinations)(range(n), r)))

    def slots(self) -> list[tuple]:
        """(edge or arc, None) pairs in sorted order."""
        return [(item, None) for item in sorted(getattr(self, self._field))]

    def to_json_dict(self) -> dict:
        items = [list(item) for item, _ in self.slots()]
        return {"type": self._type, "n": self.n, "r": self.r, self._field: items}

    @classmethod
    def from_json_dict(cls, doc: dict):
        if doc.get("type") != cls._type:
            raise ValueError(f"not a {cls._type} document")
        return cls._from_items(doc["n"], doc["r"], doc[cls._field])


@dataclass(frozen=True)
class Hypergraph(_Plain):
    """r-uniform hypergraph on 0..n-1 with canonically sorted edges."""

    edges: frozenset

    _field = "edges"
    _type = "hypergraph"

    @classmethod
    def from_edges(cls, n: int, r: int, edges) -> "Hypergraph":
        return cls._from_items(n, r, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def density(self) -> Fraction:
        total = comb(self.n, self.r)
        return Fraction(len(self.edges), total) if total else Fraction(0)

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges)

    def neighbourhood(self, e) -> set:
        """Sets f disjoint from e with e u f an edge."""
        es = set(e)
        if any(v < 0 or v >= self.n for v in es):
            raise ValueError("vertex id out of range")
        edges = self._containing(tuple(sorted(es)))
        return {tuple(sorted(set(edge) - es)) for edge in edges}

    def degree(self, e) -> int:
        return len(self.neighbourhood(e))


def blowup(h: Hypergraph, sizes) -> tuple[Hypergraph, Partition]:
    """Replace vertex x by a class of sizes[x] vertices; edges become transversals."""
    sizes = [int(s) for s in sizes]
    if len(sizes) != h.n:
        raise ValueError("need one size per pattern vertex")
    if any(s <= 0 for s in sizes):
        raise ValueError("blowup classes must be nonempty")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    classes = [tuple(range(offsets[x], offsets[x + 1])) for x in range(h.n)]
    edges = []
    for e in h.sorted_edges():
        for choice in product(*(classes[x] for x in e)):
            edges.append(tuple(sorted(choice)))
    return (
        Hypergraph.from_edges(offsets[-1], h.r, edges),
        Partition.from_lists(classes),
    )


# ---------------------------------------------------------------------------
# partite index machinery


def index_set(h: Hypergraph, p: Partition) -> tuple[tuple[int, ...], ...]:
    """Realized edge indices, in descending lexicographic order.

    Descending order puts the all-in-first-part index first, which matches
    the convention used by the worked degree-vector test values.
    """
    return tuple(sorted({p.index_vector(e) for e in h.edges}, reverse=True))


def pattern_degree_vector(h: Hypergraph, p: Partition, f, index) -> tuple[int, ...]:
    """Component i = number of index-i edges of h containing f."""
    counts = {i: 0 for i in index}
    for e in h._containing(tuple(sorted(set(f)))):
        i = p.index_vector(e)
        if i in counts:
            counts[i] += 1
    return tuple(counts[i] for i in index)


def host_degree_vector(g: Hypergraph, p_host: Partition, e, index) -> tuple[int, ...]:
    """Component i = number of index-i edges of g containing e."""
    return pattern_degree_vector(g, p_host, e, index)


def is_index_blowup(g: Hypergraph, p_host: Partition, index) -> tuple | None:
    """First host edge whose index falls outside the pattern's index set."""
    allowed = set(index)
    for e in sorted(g.edges):
        if p_host.index_vector(e) not in allowed:
            return e
    return None


def partite_density(g: Hypergraph, p_host: Partition, i) -> Fraction:
    """Edges of index i relative to the number of such transversal slots."""
    (count,) = pattern_degree_vector(g, p_host, (), (tuple(i),))
    slots = 1
    for j, size in enumerate(p_host.sizes()):
        slots *= comb(size, i[j])
    return Fraction(count, slots) if slots else Fraction(0)


# ---------------------------------------------------------------------------
# coloured multigraphs


@dataclass(frozen=True)
class _Coloured(_Incidence):
    """[D]-coloured r-multigraph or multidigraph: each edge or arc carries a
    nonzero multiplicity vector over the colours.  Subclasses set
    ``_ordered`` and the JSON ``_type``."""

    n: int
    r: int
    colours: int
    mult: tuple  # tuple[(edge or arc, tuple[int]*colours), ...] sorted

    _coloured = True

    def __post_init__(self):
        kind = "arc" if self._ordered else "edge"
        seen = set()
        for item, vec in self.mult:
            if len(item) != self.r or len(set(item)) != self.r or item != self._key(item):
                raise ValueError(f"bad {kind} {item}")
            if item in seen:
                raise ValueError(f"{kind} {item} given twice")
            seen.add(item)
            if any(v < 0 or v >= self.n for v in item):
                raise ValueError(f"{kind} {item} out of range")
            if len(vec) != self.colours:
                raise ValueError("multiplicity vector has wrong length")
            if any(m < 0 for m in vec):
                raise ValueError("negative multiplicity")
            if not any(vec):
                raise ValueError("zero multiplicity vectors are not stored")

    @classmethod
    def from_dict(cls, n: int, r: int, colours: int, mult: dict):
        items = []
        for item, vec in mult.items():
            vec = tuple(int(m) for m in vec)
            if any(vec):
                items.append((cls._key(item), vec))
        return cls(n, r, colours, tuple(sorted(items)))

    @classmethod
    def from_colour_classes(cls, n: int, r: int, colours: int, classes):
        """classes[d] is an iterable of edges or arcs of colour d (repeats
        add up)."""
        mult: dict[tuple, list[int]] = {}
        for d, cl in enumerate(classes):
            for item in cl:
                mult.setdefault(cls._key(item), [0] * colours)[d] += 1
        return cls.from_dict(n, r, colours, mult)

    def slots(self) -> list[tuple]:
        """(edge or arc, multiplicity vector) pairs in sorted order."""
        return sorted(self.mult)

    def unit_colours(self) -> list[tuple]:
        """(edge or arc, colour) pairs in sorted order; raises ValueError
        unless every edge or arc carries exactly one colour once."""
        for item, vec in self.mult:
            if sum(vec) != 1:
                kind = "arc" if self._ordered else "edge"
                raise ValueError(f"pattern {kind} {item} must carry exactly one colour once")
        return [(item, vec.index(1)) for item, vec in self.mult]

    @cached_property
    def _vectors(self) -> dict:
        return dict(self.mult)

    def multiplicity(self, item) -> tuple[int, ...]:
        return self._vectors.get(self._key(item), (0,) * self.colours)

    def size(self) -> int:
        """Total edge or arc count, multiplicity-weighted."""
        return sum(sum(vec) for _, vec in self.mult)

    def colour_size(self, d: int) -> int:
        return sum(vec[d] for _, vec in self.mult)

    def to_json_dict(self) -> dict:
        return {
            "type": self._type,
            "n": self.n,
            "r": self.r,
            "colours": self.colours,
            "mult": {",".join(map(str, item)): list(vec) for item, vec in self.mult},
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        if doc.get("type") != cls._type:
            raise ValueError(f"not a {cls._type} document")
        mult = {
            tuple(int(v) for v in key.split(",")): vec
            for key, vec in doc["mult"].items()
        }
        return cls.from_dict(doc["n"], doc["r"], doc["colours"], mult)


class ColouredMultigraph(_Coloured):
    """r-multigraph with [D]-coloured edges stored as multiplicity vectors."""

    _type = "coloured-multigraph"

    def edges(self) -> list[tuple]:
        return [e for e, _ in self.mult]

    def degree_vector(self, e) -> tuple[int, ...]:
        """Component d = multiplicity-weighted number of colour-d edges over e."""
        return tuple(_colour_sums(self._containing(tuple(sorted(set(e)))), self.colours))

    def density_vector(self) -> tuple[Fraction, ...]:
        total = comb(self.n, self.r)
        if not total:
            return (Fraction(0),) * self.colours
        return tuple(Fraction(self.colour_size(d), total) for d in range(self.colours))

    def density(self) -> Fraction:
        total = comb(self.n, self.r)
        return Fraction(self.size(), total) if total else Fraction(0)


# ---------------------------------------------------------------------------
# digraphs


@dataclass(frozen=True)
class Digraph(_Plain):
    """r-digraph: a set of arcs, each an injection [r] -> V given by its value tuple."""

    arcs: frozenset

    _ordered = True
    _field = "arcs"
    _type = "digraph"

    @classmethod
    def from_arcs(cls, n: int, r: int, arcs) -> "Digraph":
        return cls._from_items(n, r, arcs)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> list[tuple]:
        return sorted(self.arcs)

    def is_simple(self) -> bool:
        """All arc image sets distinct."""
        images = [frozenset(a) for a in self.arcs]
        return len(set(images)) == len(images)

    def degree_vector(self, psi) -> tuple[int, ...]:
        """Coordinate pi (injections [i]->[r], lex order): arcs with positions
        pi placed on the vertices psi."""
        return tuple(len(arcs) for arcs in self._placements(psi))


class ColouredMultidigraph(_Coloured):
    """[D]-coloured r-multidigraph: arc -> multiplicity vector."""

    _ordered = True
    _type = "coloured-multidigraph"

    def arcs(self) -> list[tuple]:
        return [a for a, _ in self.mult]

    def degree_vector(self, psi) -> tuple[int, ...]:
        """Coordinates (d, pi) with d major, pi in lex order over injections
        [i]->[r]; entry = multiplicity-weighted arcs of colour d through the
        placement pi -> psi."""
        sums = [_colour_sums(pairs, self.colours) for pairs in self._placements(psi)]
        return tuple(s[d] for d in range(self.colours) for s in sums)


# ---------------------------------------------------------------------------
# canonical JSON

def dumps_canonical(doc: dict) -> str:
    """Byte-stable serialization: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
