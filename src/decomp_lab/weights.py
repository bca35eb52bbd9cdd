"""Group-symmetric weight systems over labelled complexes.

A weight system attaches an integer colour vector to every size-r labelled
edge of each pattern's symmetry complex.  Pattern copies become molecules
(weight-labelled embeddings), single coloured/directed edges become atoms
(weight-labelled orbits), and the divisibility lattice is the set of edge
vectors whose restriction sums land, orbit by orbit, in the integer span of
the lifted atom vectors.  One membership primitive from the integer-lattice
module serves every checker built on top of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .complexes import LabelledComplex, PermGroup
from .core import (
    ColouredMultidigraph,
    Digraph,
    Inj,
    Partition,
    inj_compose,
    inj_domain,
)
from .divisibility import canonical_family_check
from .intlattice import SpanChecker
from .linprog import solve_feasibility


def _zero(dim: int) -> tuple[int, ...]:
    return (0,) * dim


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class WeightSystem:
    """Weights on the size-r labelled edges of tagged symmetry complexes.

    Each tag names one pattern; its complex is the full restriction family
    of the group, so a size-r labelled edge is any restriction of a group
    element composed into an r-subset of labels.
    """

    def __init__(self, group: PermGroup, r: int, dim: int, tags, weight: dict) -> None:
        self.group = group
        self.q = group.degree
        self.r = r
        self.dim = dim
        self.tags = tuple(tags)
        self.weight = dict(weight)  # (tag_index, theta) -> tuple[int]*dim

    def weight_of(self, tag: int, theta: Inj) -> tuple[int, ...]:
        return self.weight.get((tag, theta), _zero(self.dim))

    def r_subsets(self):
        return list(combinations(range(self.q), self.r))

    def to_json_dict(self) -> dict:
        return {
            "type": "weight-system",
            "q": self.q,
            "r": self.r,
            "dim": self.dim,
            "tags": list(self.tags),
            "group": [list(s) for s in self.group.elements],
            "weights": [
                {"tag": tag, "map": [list(p) for p in theta], "vector": list(vec)}
                for (tag, theta), vec in sorted(self.weight.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WeightSystem":
        if doc.get("type") != "weight-system":
            raise ValueError("not a weight-system document")
        group = PermGroup(doc["q"], [tuple(s) for s in doc["group"]])
        weight = {
            (w["tag"], tuple(tuple(p) for p in w["map"])): tuple(w["vector"])
            for w in doc["weights"]
        }
        return cls(group, doc["r"], doc["dim"], doc["tags"], weight)


# ---------------------------------------------------------------------------
# builders

EdgeVector = dict  # Inj -> tuple[int]*dim, sparse


def _lift(g, q: int, maps_at) -> EdgeVector:
    """g's vector at the image of every labelled edge psi in maps_at(B), B
    an r-subset of range(q): the multiplicity vector of a coloured
    structure, (1,) for an edge or arc.  Ordered structures read psi's
    values in label order, unordered ones sort them."""
    vector_at = {item: (1,) if vec is None else vec for item, vec in g.slots()}
    ordered = g._ordered
    value = itemgetter(1)
    out: EdgeVector = {}
    for B in combinations(range(q), g.r):
        for psi in maps_at(B):
            image = tuple(map(value, psi)) if ordered else tuple(sorted(map(value, psi)))
            vec = vector_at.get(image)
            if vec is not None:
                out[psi] = vec
    return out


def coloured_weight_system(
    patterns, partition: Partition | None = None
) -> WeightSystem:
    """One tag per pattern; an r-level map gets the unit vector of the
    colour its image carries in that pattern, or (1,) when the patterns
    are uncoloured.

    The group is the stabilizer of the label partition's parts; without a
    partition it is that of the one-part partition, the full symmetric
    group.
    """
    if not patterns:
        raise ValueError("empty pattern family")
    q, r = patterns[0].n, patterns[0].r
    dim = patterns[0].colours if patterns[0]._coloured else 1
    for h in patterns:
        if (h.n, h.r, h.colours if h._coloured else 1) != (q, r, dim):
            raise ValueError("patterns disagree on (q, r, colours)")
        if h._coloured:
            h.unit_colours()  # raises unless each slot carries one colour once
    group = PermGroup.part_stabilizer(partition or Partition.trivial(q))
    # each pattern slot carries one unit vector: its weight
    weight = {
        (tag, theta): vec
        for tag, h in enumerate(patterns)
        for theta, vec in _lift(h, q, group.restrictions).items()
    }
    return WeightSystem(group, r, dim, [f"pattern-{i}" for i in range(len(patterns))], weight)


def digraph_weight_system(pattern: Digraph, allow_non_simple: bool = False) -> WeightSystem:
    """Indicator weights on order-preserving lifts of the pattern's arcs.

    Non-simple patterns (repeated arc images) generally break atom
    independence and are rejected unless explicitly allowed for diagnosis.
    """
    if not allow_non_simple and not pattern.is_simple():
        raise ValueError("pattern digraph must be simple (distinct arc images)")
    return coloured_weight_system([pattern])


def master_weight_system(patterns, partition: Partition) -> WeightSystem:
    """Weight system for coloured directed partite families.

    Requires the family to pass the canonical-structure check (see
    divisibility.canonical_family_check), then lifts each pattern's arcs
    as coloured_weight_system does: the part stabilizer fixes every part
    setwise, so a lifted label set has its arc's part index, which the
    check pins to the arc colour's.
    """
    canonical_family_check(patterns, partition)
    return coloured_weight_system(patterns, partition)


# ---------------------------------------------------------------------------
# types and atoms


@dataclass(frozen=True)
class TypeClass:
    labels: frozenset  # B
    vector: tuple  # concatenated weights over group.onto(B), sigma-sorted
    members: tuple  # ((tag, theta), ...)

    @property
    def is_zero(self) -> bool:
        return not any(any(v) for v in self.vector)


class TypeTable:
    """Per r-subset B: the partition of tagged level maps by type vector."""

    def __init__(self, system: WeightSystem) -> None:
        self.system = system
        self.by_labels: dict[frozenset, list[TypeClass]] = {}
        self._type_of: dict[tuple, int] = {}
        self._spans: dict[frozenset, tuple] = {}
        group = system.group
        for B in system.r_subsets():
            fb = frozenset(B)
            sigmas = group.onto(B)
            buckets: dict[tuple, list] = {}
            for tag in range(len(system.tags)):
                for theta in group.restrictions(B):
                    vec = tuple(
                        system.weight_of(tag, inj_compose(theta, sigma))
                        for sigma in sigmas
                    )
                    buckets.setdefault(vec, []).append((tag, theta))
            classes = [
                TypeClass(fb, vec, tuple(sorted(members)))
                for vec, members in sorted(buckets.items())
            ]
            self.by_labels[fb] = classes
            for idx, cls in enumerate(classes):
                for member in cls.members:
                    self._type_of[(fb, member[0], member[1])] = idx

    def classes(self, labels) -> list[TypeClass]:
        return self.by_labels[frozenset(labels)]

    def nonzero_classes(self, labels) -> list[tuple[int, TypeClass]]:
        return [
            (idx, cls)
            for idx, cls in enumerate(self.classes(labels))
            if not cls.is_zero
        ]

    def atom_span(self, labels) -> tuple[tuple[int, ...], SpanChecker]:
        """The nonzero type indices at B and one span checker of their
        flattened vectors, in that order; built once per B."""
        fb = frozenset(labels)
        span = self._spans.get(fb)
        if span is None:
            nonzero = self.nonzero_classes(fb)
            gens = [tuple(x for vec in cls.vector for x in vec) for _, cls in nonzero]
            span = self._spans[fb] = (tuple(idx for idx, _ in nonzero), SpanChecker(gens))
        return span

    def nonzero_level_maps(self, tag: int) -> list[tuple[Inj, int]]:
        """Every level map of the tagged complex whose type is nonzero,
        with its type index; this is the support a molecule can touch."""
        out = []
        for B, classes in self.by_labels.items():
            for theta in self.system.group.restrictions(B):
                idx = self._type_of[(B, tag, theta)]
                if not classes[idx].is_zero:
                    out.append((theta, idx))
        return out

    def counts(self) -> dict[frozenset, int]:
        return {B: len(cls) for B, cls in self.by_labels.items()}


def is_elementary(system: WeightSystem, types: TypeTable | None = None) -> bool:
    """Distinct nonzero atom vectors at each orbit shape must be independent."""
    types = types or TypeTable(system)
    for B in system.r_subsets():
        indices, span = types.atom_span(B)  # type vectors are distinct
        if span.rank != len(indices):
            return False
    return True


# ---------------------------------------------------------------------------
# edge vectors, molecules, atom decompositions


def molecule(system: WeightSystem, tag: int, phi: Inj) -> EdgeVector:
    """The weight vector of one pattern copy: phi composed over every
    nonzero r-level map of the tagged complex."""
    out: EdgeVector = {}
    for (t, theta), vec in system.weight.items():
        if t != tag:
            continue
        psi = inj_compose(phi, theta)
        if psi in out:
            raise ValueError("molecule support collision")
        out[psi] = vec
    return out


def edge_vector_add(a: EdgeVector, b: EdgeVector, dim: int, sign: int = 1) -> EdgeVector:
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k, _zero(dim))
        new = tuple(x + sign * y for x, y in zip(cur, v))
        if any(new):
            out[k] = new
        else:
            out.pop(k, None)
    return out


@dataclass
class AtomDecomposition:
    terms: list  # (orbit representative, type index, coefficient)
    failed_orbit: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.failed_orbit is None


def atom_decomposition(
    J: EdgeVector, system: WeightSystem, phi: LabelledComplex, types: TypeTable | None = None
) -> AtomDecomposition:
    """Express J orbit-by-orbit as integer combinations of typed atoms.

    Fails (returning the offending orbit) when some orbit restriction lies
    outside the integer span of the atoms there; with an elementary system
    the coefficients are unique.
    """
    types = types or TypeTable(system)
    terms = []
    for orbit in phi.distinct_orbits(sorted(J), system.group):
        rep = orbit[0]
        target, pairs = _atom_coefficients(J, rep, system, types)
        if pairs is None:
            return AtomDecomposition(terms=[], failed_orbit=(rep, tuple(target)))
        terms.extend((rep, idx, c) for idx, c in pairs if c)
    return AtomDecomposition(terms=terms)


def _atom_coefficients(J: EdgeVector, psi: Inj, system: WeightSystem, types: TypeTable):
    """(target, pairs): J over psi's orbit, flattened in the order of the
    group maps onto psi's labels, and the (type index, coefficient) pairs
    that write it in the atoms there, or None outside their span."""
    B = inj_domain(psi)
    target = []
    for s in system.group.onto(B):
        target.extend(J.get(inj_compose(psi, s), _zero(system.dim)))
    indices, span = types.atom_span(B)
    coeffs = span.membership(target)
    return target, None if coeffs is None else list(zip(indices, coeffs))


def dominates(
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    tag: int,
    embedding: Inj,
    types: TypeTable | None = None,
) -> bool:
    """True when J minus the molecule of (tag, embedding) is a nonnegative
    integer combination of atoms."""
    diff = edge_vector_add(J, molecule(system, tag, embedding), system.dim, sign=-1)
    dec = atom_decomposition(diff, system, phi, types)
    return dec.ok and all(c >= 0 for _, _, c in dec.terms)


# ---------------------------------------------------------------------------
# divisibility lattice membership


@dataclass
class OrbitVerdict:
    representative: Inj
    ok: bool
    witness: list | None
    target: tuple
    generator_count: int


@dataclass
class LatticeReport:
    member: bool
    failing_orbit: OrbitVerdict | None
    orbits_checked: int
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        doc = {
            "type": "lattice-membership-report",
            "member": self.member,
            "orbits_checked": self.orbits_checked,
            "notes": self.notes,
        }
        if self.failing_orbit is not None:
            doc["failing_orbit"] = {
                "representative": [list(p) for p in self.failing_orbit.representative],
                "target": list(self.failing_orbit.target),
                "generator_count": self.failing_orbit.generator_count,
            }
        return doc


class LatticeChecker:
    """Precomputed orbit structure for repeated lattice-membership queries.

    The per-orbit generator matrices depend only on the complex, the group
    and the weights, so they are built once, one span checker per distinct
    matrix; queries then flatten the restriction sums of J to each orbit
    and run its span check.  A query stores nothing on the checker.
    """

    def __init__(
        self,
        system: WeightSystem,
        phi: LabelledComplex,
        include_high_levels: bool = False,
    ) -> None:
        self.system = system
        self.phi = phi
        self.dim = system.dim
        self.r_subsets = [frozenset(B) for B in system.r_subsets()]
        group = system.group
        # lifted generator sums: (tag, theta', B) -> sum of weights over
        # extensions of theta' in the tagged complex at level B
        self._sharp_weight: dict = {}
        for (tag, theta), vec in system.weight.items():
            _add_restrictions(self._sharp_weight, theta, vec, (tag,))
        zero = _zero(self.dim)
        levels = range((system.q if include_high_levels else system.r) + 1)
        self.orbits = []  # (rep, [(member, B)], span checker)
        spans: dict[tuple, SpanChecker] = {}
        ntags = len(system.tags)
        for size in levels:
            for orbit in phi.orbits_at_size(size, group):
                rep = orbit[0]
                B_rep = inj_domain(rep)
                coords = []
                for s in group.onto(B_rep):
                    member = inj_compose(rep, s)
                    dom = inj_domain(member)
                    for B in self.r_subsets:
                        if dom <= B:
                            coords.append((s, member, B))
                at = dict(rep)
                gens = set()
                for theta0 in group.restrictions(B_rep):
                    # rep o theta0^-1 must extend to a top-level labelled edge
                    if not phi.full_embedding_exists(tuple(sorted((y, at[x]) for x, y in theta0))):
                        continue
                    keys = [(inj_compose(theta0, s), B) for s, _member, B in coords]
                    for tag in range(ntags):
                        row = []
                        for sub, B in keys:
                            row.extend(self._sharp_weight.get((tag, sub, B), zero))
                        gens.add(tuple(row))
                key = tuple(sorted(gens))
                if key not in spans:
                    spans[key] = SpanChecker(key)
                self.orbits.append((rep, [(m, B) for _s, m, B in coords], spans[key]))

    def check(self, J: EdgeVector) -> LatticeReport:
        zero = _zero(self.dim)
        sharp: dict = {}
        for psi, vec in J.items():
            if inj_domain(psi) not in self.r_subsets:
                raise ValueError("edge vector supported outside the r-level")
            _add_restrictions(sharp, psi, vec)
        checked = 0
        for rep, coords, span in self.orbits:
            target = []
            for key in coords:
                target.extend(sharp.get(key, zero))
            checked += 1
            if span.membership(target) is None:
                return LatticeReport(
                    member=False,
                    failing_orbit=OrbitVerdict(
                        representative=rep,
                        ok=False,
                        witness=None,
                        target=tuple(target),
                        generator_count=len(span.generators),
                    ),
                    orbits_checked=checked,
                )
        return LatticeReport(member=True, failing_orbit=None, orbits_checked=checked)


def _add_restrictions(out: dict, psi: Inj, vec, head: tuple = ()) -> None:
    """Add vec to out at (*head, sub, B) for every restriction sub of psi,
    with B psi's label set."""
    B = inj_domain(psi)
    psi = tuple(sorted(psi))
    for size in range(len(psi) + 1):
        for sub in combinations(psi, size):
            key = (*head, sub, B)
            cur = out.get(key)
            out[key] = vec if cur is None else _vec_add(cur, vec)


def lattice_membership(
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    include_high_levels: bool = False,
) -> LatticeReport:
    return LatticeChecker(system, phi, include_high_levels).check(J)


# ---------------------------------------------------------------------------
# host encodings into edge vectors


def edge_vector(g, phi: LabelledComplex) -> EdgeVector:
    """The lift of a hypergraph, digraph, coloured multigraph or coloured
    multidigraph g: every labelled edge of the complex whose values, read
    in label order for arcs and sorted for edges, form an edge or arc of g
    carries that slot's multiplicity vector, or (1,) when g is uncoloured."""
    return _lift(g, phi.q, phi.level)


coloured_edge_vector = digraph_edge_vector = edge_vector


def master_edge_vector(
    g: ColouredMultidigraph,
    host_partition: Partition,
    phi: LabelledComplex,
) -> EdgeVector:
    """Order-preserving lift of a coloured multidigraph into a partite complex.

    Each arc lifts to the label sets whose part index matches the arc
    image's host index; the arc must place its position blocks into the
    matching host parts in ascending order, otherwise the lift leaves the
    complex and the host is rejected.  Past that check it is the plain lift.
    """
    r = g.r
    label_index = {}
    for B in combinations(range(phi.q), r):
        label_index.setdefault(phi.label_partition.index_vector(B), []).append(B)
    for arc in g.arcs():
        host_idx = host_partition.index_vector(arc)
        targets = label_index.get(host_idx, [])
        if not targets:
            raise ValueError(f"arc {arc} has index {host_idx} outside the label indices")
        for B in targets:
            if tuple(zip(B, arc)) not in phi:
                raise ValueError(
                    f"arc {arc} does not map its position blocks into the host parts"
                )
    return edge_vector(g, phi)


# ---------------------------------------------------------------------------
# regularity witnesses


@dataclass
class RegularityReport:
    regular: bool
    worst_ratio: Fraction | None
    box_violations: int
    band_violations: int
    checked: int
    notes: list[str] = field(default_factory=list)


def _box(system: WeightSystem, phi: LabelledComplex, omega: Fraction) -> tuple:
    """The (lo, hi) bounds omega n^(r-q) and n^(r-q) / omega on every
    molecule weight, n the vertex count."""
    scale = Fraction(phi.vertex_count) ** (system.r - system.q)
    return omega * scale, scale / omega


def _typed_incidence(copies, system: WeightSystem, types: TypeTable):
    """(copy, (emb o theta, type index)) for every (tag, emb) copy and every
    level map theta of nonzero type in the tagged complex: a molecule
    contributes at every member of every orbit it touches, via the
    basepoint-changed type."""
    support = {tag: types.nonzero_level_maps(tag) for tag in range(len(system.tags))}
    for copy in copies:
        tag, emb = copy
        for theta, tindex in support[tag]:
            yield copy, (inj_compose(emb, theta), tindex)


def _member_coefficients(
    J: EdgeVector, system: WeightSystem, phi: LabelledComplex, types: TypeTable
):
    """(member, type index) -> J's atom coefficient at every member of every
    orbit J touches, or None when one lies outside the atom span."""
    coeffs: dict = {}
    for orbit in phi.distinct_orbits(J, system.group):
        for member in orbit:
            _, pairs = _atom_coefficients(J, member, system, types)
            if pairs is None:
                return None
            for idx, coef in pairs:
                coeffs[(member, idx)] = coef
    return coeffs


def verify_regularity_witness(
    y: dict,
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    c,
    omega,
    types: TypeTable | None = None,
) -> RegularityReport:
    """Check a molecule weighting: box constraints on each weight and the
    typed degree sums within (1 +- c) of J's atom coefficients.

    ``y`` maps (tag, full embedding) to a rational weight and must be
    indexed by copies whose molecules J dominates.
    """
    c = Fraction(c)
    types = types or TypeTable(system)
    lo, hi = _box(system, phi, Fraction(omega))
    box_violations = 0
    for (tag, emb), weight in y.items():
        if not dominates(J, system, phi, tag, emb, types):
            raise ValueError(f"witness indexed by a copy J does not dominate: {emb}")
        if not (lo <= Fraction(weight) <= hi):
            box_violations += 1
    partial: dict = {}
    for copy, key in _typed_incidence(y, system, types):
        partial[key] = partial.get(key, Fraction(0)) + Fraction(y[copy])
    coeffs = _member_coefficients(J, system, phi, types)
    if coeffs is None:
        raise ValueError("J is not atom-decomposable; no witness can verify")
    worst = Fraction(0)
    band_violations = 0
    checked = 0
    keys = set(partial) | set(coeffs)
    for key in keys:
        expected = Fraction(coeffs.get(key, 0))
        got = partial.get(key, Fraction(0))
        checked += 1
        if expected == 0:
            if got != 0:
                band_violations += 1
                worst = max(worst, Fraction(1))
            continue
        dev = abs(got / expected - 1)
        worst = max(worst, dev)
        if dev > c:
            band_violations += 1
    return RegularityReport(
        regular=(box_violations == 0 and band_violations == 0),
        worst_ratio=worst,
        box_violations=box_violations,
        band_violations=band_violations,
        checked=checked,
    )


def search_regularity_witness(
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    c,
    omega,
    molecule_budget: int = 10000,
):
    """Rational feasibility fallback: find a witness weighting or None.

    Enumerates dominated molecules (bounded by ``molecule_budget``) and
    solves the band/box system exactly.
    """
    c = Fraction(c)
    types = TypeTable(system)
    lo, hi = _box(system, phi, Fraction(omega))
    copies = []
    for tag in range(len(system.tags)):
        for emb in sorted(phi.full_level()):
            if dominates(J, system, phi, tag, emb, types):
                copies.append((tag, emb))
                if len(copies) > molecule_budget:
                    raise ValueError("molecule budget exceeded")
    coeffs = _member_coefficients(J, system, phi, types)
    if coeffs is None:
        return None
    rows: dict = {}
    for copy, key in _typed_incidence(copies, system, types):
        rows.setdefault(key, []).append(copy)
    col = {copy: i for i, copy in enumerate(copies)}
    constraints = []
    for key in sorted(set(rows) | {k for k, v in coeffs.items() if v}):
        vec = [Fraction(0)] * len(copies)
        for copy in rows.get(key, ()):
            vec[col[copy]] += 1
        coef = coeffs.get(key, 0)
        constraints.append((vec, *sorted(((1 - c) * coef, (1 + c) * coef))))
    sol = solve_feasibility(len(copies), [(lo, hi)] * len(copies), constraints)
    if sol is None:
        return None
    return {copies[i]: sol[i] for i in range(len(copies))}
