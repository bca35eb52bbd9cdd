"""Weight systems: builders, types, atoms, lattice membership, regularity."""

import random
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import pytest

import oracles
from decomp_lab.complexes import LabelledComplex, PermGroup
from decomp_lab.core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    inj_from_pairs,
    inj_image,
)
from decomp_lab.divisibility import (
    canonical_family_check,
    coloured_divisible,
    digraph_divisible,
)
from decomp_lab.encodings import rainbow_family, tight_cycle
from decomp_lab.weights import (
    LatticeChecker,
    TypeTable,
    atom_decomposition,
    coloured_edge_vector,
    coloured_weight_system,
    digraph_edge_vector,
    digraph_weight_system,
    dominates,
    edge_vector_add,
    is_elementary,
    lattice_membership,
    master_edge_vector,
    master_weight_system,
    molecule,
    search_regularity_witness,
    verify_regularity_witness,
)

PARTITE_PATTERN = ColouredMultigraph.from_colour_classes(
    3, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
)
LABEL_PARTS = Partition.from_lists([[0, 1], [2]])


def partite_complex(a: int, b: int) -> LabelledComplex:
    host_parts = Partition.from_lists([list(range(a)), list(range(a, a + b))])
    return LabelledComplex.complete_partite(LABEL_PARTS, host_parts)


def test_partite_rainbow_weights_are_edge_units():
    ws = coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS)
    assert ws.group.order == 2
    colour_of_image = {frozenset({0, 1}): 0, frozenset({0, 2}): 1, frozenset({1, 2}): 2}
    for (tag, theta), vec in ws.weight.items():
        assert tag == 0
        d = colour_of_image[frozenset(inj_image(theta))]
        assert vec == tuple(1 if k == d else 0 for k in range(3))


def test_tight_cycle_weights_are_arc_indicators():
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    for (_, theta), vec in ws.weight.items():
        values = tuple(v for _, v in theta)
        assert vec == (1,)
        assert values in cyc.arcs


def test_digraph_weight_system_rejects_non_simple():
    bad = Digraph.from_arcs(3, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        digraph_weight_system(bad)


def test_type_counts_coloured_with_nonedge():
    # a non-complete two-coloured pattern realizes colours + the zero type
    path = ColouredMultigraph.from_colour_classes(3, 2, 2, [[(0, 1)], [(1, 2)]])
    ws = coloured_weight_system([path])
    counts = TypeTable(ws).counts()
    assert set(counts.values()) == {3}  # D + 1 with D = 2


def test_type_counts_digraph():
    # q = 4 leaves non-arc images, so the zero type is realized: r! + 1
    ws = digraph_weight_system(tight_cycle(4, 2))
    counts = TypeTable(ws).counts()
    assert set(counts.values()) == {3}


def test_type_counts_master():
    # mixed pattern: directed colour with trivial symmetry gives r! = 2
    # types, the swap-symmetric colour r!/2 = 1, plus the zero type
    mixed = ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1), (0, 2)], [(1, 2), (2, 1)]]
    )
    ws = master_weight_system([mixed], Partition.trivial(3))
    table = TypeTable(ws)
    for B in ws.r_subsets():
        classes = table.classes(B)
        nonzero = [c for c in classes if not c.is_zero]
        assert len(nonzero) == 3  # two directed types + one symmetric type


def test_elementary_simple_patterns():
    assert is_elementary(digraph_weight_system(tight_cycle(3, 2)))
    assert is_elementary(digraph_weight_system(tight_cycle(4, 2)))
    assert is_elementary(coloured_weight_system(rainbow_family(3)))
    assert is_elementary(
        coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS)
    )


def test_elementary_rejects_doubled_image_mixed_with_plain_arcs():
    # both orientations of one image next to a single arc make the
    # orientation atoms sum to the doubled-image atom
    bad = Digraph.from_arcs(3, 2, [(0, 1), (1, 0), (0, 2)])
    ws = digraph_weight_system(bad, allow_non_simple=True)
    assert not is_elementary(ws)


def test_orbit_decomposition_identity():
    ws = coloured_weight_system(rainbow_family(3))
    phi = LabelledComplex.complete_complex(3, 4)
    rng = random.Random(8)
    group = ws.group
    J = {}
    for B in combinations(range(3), 2):
        for psi in phi.level(B):
            if rng.random() < 0.3:
                J[psi] = tuple(rng.randint(-2, 2) for _ in range(3))
    total = {}
    seen = set()
    for psi in J:
        if psi in seen:
            continue
        orbit = phi.orbit(psi, group)
        seen.update(orbit)
        for member in orbit:
            if member in J:
                total[member] = J[member]
    assert total == J


def test_atom_decomposition_of_host_encoding():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 5)
    g = ColouredMultigraph.from_colour_classes(
        5, 2, 3, [[(0, 1), (2, 3)], [(0, 2)], [(1, 4)]]
    )
    J = coloured_edge_vector(g, phi)
    dec = atom_decomposition(J, ws, phi)
    assert dec.ok
    # one atom per coloured edge, coefficient = multiplicity
    assert len(dec.terms) == 4
    assert all(c == 1 for _, _, c in dec.terms)


def test_atom_decomposition_zero_and_failure():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 4)
    assert atom_decomposition({}, ws, phi).ok
    # mixed values across one orbit cannot come from constant atoms
    psi1 = inj_from_pairs([(0, 0), (1, 1)])
    psi2 = inj_from_pairs([(1, 0), (0, 1)])
    bad = {psi1: (1, 0, 0), psi2: (0, 1, 0)}
    dec = atom_decomposition(bad, ws, phi)
    assert not dec.ok


def test_molecule_membership_and_sums():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 5)
    checker = LatticeChecker(ws, phi)
    rng = random.Random(17)
    embeddings = sorted(phi.full_level())
    # every single molecule is atom-decomposable and lattice-member
    for _ in range(5):
        tag = rng.randrange(len(fam))
        emb = embeddings[rng.randrange(len(embeddings))]
        mol = molecule(ws, tag, emb)
        assert atom_decomposition(mol, ws, phi).ok
        assert checker.check(mol).member
    # arbitrary integral combinations stay inside the lattice
    J = {}
    for _ in range(4):
        tag = rng.randrange(len(fam))
        emb = embeddings[rng.randrange(len(embeddings))]
        weight = rng.randint(-2, 2)
        mol = molecule(ws, tag, emb)
        scaled = {k: tuple(weight * x for x in v) for k, v in mol.items()}
        J = edge_vector_add(J, scaled, ws.dim)
    assert checker.check(J).member


def test_running_example_conditions():
    ws = coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS)
    phi = partite_complex(4, 2)
    checker = LatticeChecker(ws, phi)

    def host(red, blue, green):
        return ColouredMultigraph.from_colour_classes(6, 2, 3, [red, blue, green])

    good = host([(0, 1), (2, 3)], [(0, 4), (2, 5)], [(1, 4), (3, 5)])
    assert checker.check(coloured_edge_vector(good, phi)).member
    extra_red = host([(0, 1), (2, 3), (0, 2)], [(0, 4), (2, 5)], [(1, 4), (3, 5)])
    rep = checker.check(coloured_edge_vector(extra_red, phi))
    assert not rep.member
    assert rep.failing_orbit.representative == ()  # colour counts differ
    unbalanced_vertex = host([(0, 1)], [(2, 4)], [(3, 5)])
    assert not checker.check(coloured_edge_vector(unbalanced_vertex, phi)).member
    blue_green_skew = host(
        [(0, 1), (2, 3)], [(0, 4), (2, 4)], [(1, 5), (3, 5)]
    )
    assert not checker.check(coloured_edge_vector(blue_green_skew, phi)).member


def test_lattice_cross_check_coloured_small():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 4)
    checker = LatticeChecker(ws, phi)
    edges = list(combinations(range(4), 2))
    rng = random.Random(123)
    for _ in range(300):
        classes = [[], [], []]
        for e in edges:
            c = rng.randrange(4)
            if c:
                classes[c - 1].append(e)
        g = ColouredMultigraph.from_colour_classes(4, 2, 3, classes)
        direct = bool(coloured_divisible(g, fam))
        via_lattice = checker.check(coloured_edge_vector(g, phi)).member
        assert direct == via_lattice


def test_lattice_cross_check_digraph_small():
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    phi = LabelledComplex.complete_complex(3, 4)
    checker = LatticeChecker(ws, phi)
    arcs = sorted(Digraph.complete(4, 2).arcs)
    rng = random.Random(321)
    for _ in range(200):
        sub = [a for a in arcs if rng.random() < 0.5]
        g = Digraph.from_arcs(4, 2, sub)
        direct = bool(digraph_divisible(g, cyc))
        via_lattice = checker.check(digraph_edge_vector(g, phi)).member
        assert direct == via_lattice


def test_high_levels_never_change_the_verdict():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 4)
    base = LatticeChecker(ws, phi)
    high = LatticeChecker(ws, phi, include_high_levels=True)
    g = ColouredMultigraph.from_colour_classes(
        4, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
    )
    J = coloured_edge_vector(g, phi)
    assert base.check(J).member == high.check(J).member


def test_regularity_witness_complete_digraph_closed_form():
    # uniform weights |H|^-1 (n)_r / (n)_q pass exactly with c = 0
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    n = 5
    phi = LabelledComplex.complete_complex(3, n)
    g = Digraph.complete(n, 2)
    J = digraph_edge_vector(g, phi)
    weight = Fraction(1, 3) * Fraction(n * (n - 1), n * (n - 1) * (n - 2))
    y = {(0, emb): weight for emb in phi.full_level()}
    rep = verify_regularity_witness(y, J, ws, phi, c=0, omega=Fraction(1, 10))
    assert rep.regular
    assert rep.worst_ratio == 0


def test_regularity_witness_zero_fails():
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    phi = LabelledComplex.complete_complex(3, 4)
    g = Digraph.complete(4, 2)
    J = digraph_edge_vector(g, phi)
    rep = verify_regularity_witness({}, J, ws, phi, c=Fraction(1, 10), omega=Fraction(1, 10))
    assert not rep.regular


def test_regularity_witness_box_violation_detected():
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    n = 4
    phi = LabelledComplex.complete_complex(3, n)
    g = Digraph.complete(n, 2)
    J = digraph_edge_vector(g, phi)
    y = {(0, emb): Fraction(10**6) for emb in phi.full_level()}
    rep = verify_regularity_witness(y, J, ws, phi, c=Fraction(1), omega=Fraction(1, 2))
    assert rep.box_violations > 0


def test_regularity_search_small_instance():
    cyc = tight_cycle(3, 2)
    ws = digraph_weight_system(cyc)
    phi = LabelledComplex.complete_complex(3, 4)
    g = Digraph.complete(4, 2)
    J = digraph_edge_vector(g, phi)
    y = search_regularity_witness(J, ws, phi, c=Fraction(1, 4), omega=Fraction(1, 20))
    assert y is not None
    rep = verify_regularity_witness(y, J, ws, phi, c=Fraction(1, 4), omega=Fraction(1, 20))
    assert rep.regular


def test_dominates():
    fam = rainbow_family(3)
    ws = coloured_weight_system(fam)
    phi = LabelledComplex.complete_complex(3, 4)
    g = ColouredMultigraph.from_colour_classes(
        4, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
    )
    J = coloured_edge_vector(g, phi)
    # find the embedding matching the host triangle's colours
    hits = [
        (tag, emb)
        for tag in range(len(fam))
        for emb in phi.full_level()
        if dominates(J, ws, phi, tag, emb)
    ]
    assert hits
    for tag, emb in hits:
        mol = molecule(ws, tag, emb)
        diff = edge_vector_add(J, mol, ws.dim, sign=-1)
        dec = atom_decomposition(diff, ws, phi)
        assert dec.ok and all(c >= 0 for _, _, c in dec.terms)


def test_weight_system_json_roundtrip():
    ws = coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS)
    doc = ws.to_json_dict()
    from decomp_lab.weights import WeightSystem

    again = WeightSystem.from_json_dict(doc)
    assert again.weight == ws.weight
    assert again.group.elements == ws.group.elements
    assert again.to_json_dict() == doc


def test_lattice_report_json():
    ws = coloured_weight_system(rainbow_family(3))
    phi = LabelledComplex.complete_complex(3, 4)
    g = ColouredMultigraph.from_colour_classes(4, 2, 3, [[(0, 1)], [], []])
    rep = lattice_membership(coloured_edge_vector(g, phi), ws, phi)
    doc = rep.to_json_dict()
    assert doc["member"] is False
    assert "failing_orbit" in doc


def test_regularity_witness_uniform_blowup_closed_form():
    # plain triangle decomposition of the complete tripartite blowup as a
    # one-colour system: weight each transversal triangle 1/n, every edge
    # then carries total weight exactly one
    from decomp_lab.core import blowup as _blowup

    n = 3
    tri_coloured = ColouredMultigraph.from_dict(
        3, 2, 1, {e: (1,) for e in Hypergraph.complete(3, 2).sorted_edges()}
    )
    lp = Partition.singletons(3)
    host, hp = _blowup(Hypergraph.complete(3, 2), [n, n, n])
    phi = LabelledComplex.complete_partite(lp, hp)
    ws = coloured_weight_system([tri_coloured], partition=lp)
    host_coloured = ColouredMultigraph.from_dict(
        host.n, 2, 1, {e: (1,) for e in host.sorted_edges()}
    )
    J = coloured_edge_vector(host_coloured, phi)
    y = {(0, emb): Fraction(1, n) for emb in phi.full_level()}
    rep = verify_regularity_witness(
        y, J, ws, phi, c=0, omega=Fraction(1, 2 * n * n)
    )
    assert rep.regular and rep.worst_ratio == 0


# ---------------------------------------------------------------------------
# equivalence with the earlier weights module (tests/oracles.py)


def _outcome(f, *args, **kwargs):
    try:
        return "ok", f(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)


def _random_digraph(rng, n):
    return Digraph.from_arcs(n, 2, [a for a in permutations(range(n), 2) if rng.random() < 0.5])


def _random_coloured(rng, n, colours):
    classes = [[] for _ in range(colours)]
    for e in combinations(range(n), 2):
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            classes[rng.randrange(colours)].append(e)
    return ColouredMultigraph.from_colour_classes(n, 2, colours, classes)


def _equivalence_families():
    """(weight system, reference system, encoder, reference encoder, random
    host maker, complexes) for each family the equivalence tests cover."""
    for q in (3, 4):
        cyc = tight_cycle(q, 2)
        phis = [LabelledComplex.complete_complex(q, n) for n in range(q, q + 2)]
        yield (
            digraph_weight_system(cyc), oracles.ref_digraph_weight_system(cyc),
            digraph_edge_vector, oracles.ref_digraph_edge_vector,
            _random_digraph, phis,
        )
    for colours in (3, 4):
        fam = rainbow_family(colours)
        phis = [LabelledComplex.complete_complex(3, n) for n in (3, 4, 5)]
        yield (
            coloured_weight_system(fam), oracles.ref_coloured_weight_system(fam),
            coloured_edge_vector, oracles.ref_coloured_edge_vector,
            lambda rng, n, colours=colours: _random_coloured(rng, n, colours), phis,
        )
    phis = [partite_complex(a, b) for a, b in ((2, 1), (2, 2), (3, 1), (3, 2))]
    yield (
        coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS),
        oracles.ref_coloured_weight_system([PARTITE_PATTERN], partition=LABEL_PARTS),
        coloured_edge_vector, oracles.ref_coloured_edge_vector,
        lambda rng, n: _random_coloured(rng, n, 3), phis,
    )


def _queries(rng, ws, phi, host):
    """Edge vectors to query: the host's, a random integer combination of
    molecules (a lattice member), and that combination with one labelled
    edge disturbed."""
    embeddings = sorted(phi.full_level())
    J = {}
    for _ in range(3):
        mol = molecule(ws, rng.randrange(len(ws.tags)), rng.choice(embeddings))
        w = rng.randint(-1, 2)
        J = edge_vector_add(J, {k: tuple(w * x for x in v) for k, v in mol.items()}, ws.dim)
    bumped = dict(J)
    psi = rng.choice(sorted(phi.level(rng.choice(ws.r_subsets()))))
    bumped[psi] = tuple(x + rng.randint(0, 1) for x in bumped.get(psi, (0,) * ws.dim))
    return [host, J, bumped]


def _canonical_families(rng, count):
    """Seeded coloured 2-digraph families on 3 or 4 labels, one or two
    interval parts, that pass the canonical-family check."""
    out = []
    while len(out) < count:
        q = rng.choice((3, 4))
        cut = rng.randrange(q)
        part = (
            Partition.trivial(q) if cut == 0
            else Partition.from_lists([range(cut), range(cut, q)])
        )
        colours = rng.randint(1, 3)
        family = []
        for _ in range(rng.randint(1, 2)):
            classes = [[] for _ in range(colours)]
            for arc in permutations(range(q), 2):
                if rng.random() < 0.3:
                    classes[rng.randrange(colours)].append(arc)
            family.append(ColouredMultidigraph.from_colour_classes(q, 2, colours, classes))
        try:
            canonical_family_check(family, part)
        except ValueError:
            continue
        out.append((family, part))
    return out


def test_master_weights_match_reference():
    rng = random.Random(1117)
    seen = set()
    for k, (family, part) in enumerate(_canonical_families(rng, 300)):
        ws = master_weight_system(family, part)
        ref_ws = oracles.ref_master_weight_system(family, part)
        assert ws.to_json_dict() == ref_ws.to_json_dict()
        if k % 10:
            continue
        # each host part one vertex larger than its label part
        bounds = list(accumulate((len(p) + 1 for p in part.parts), initial=0))
        host_part = Partition.from_lists([range(a, b) for a, b in zip(bounds, bounds[1:])])
        phi = LabelledComplex.complete_partite(part, host_part)
        for J in _queries(rng, ws, phi, {}):
            rep = LatticeChecker(ws, phi).check(J)
            assert rep.to_json_dict() == oracles.RefLatticeChecker(ref_ws, phi).check(J).to_json_dict()
            seen.add(rep.member)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_weights_match_reference(seed):
    rng = random.Random(seed)
    seen = set()
    for ws, ref_ws, encode, ref_encode, make_host, phis in _equivalence_families():
        assert list(ws.weight.items()) == list(ref_ws.weight.items())
        assert is_elementary(ws)
        types = TypeTable(ws)
        for phi in phis:
            checkers = [
                (LatticeChecker(ws, phi, high), oracles.RefLatticeChecker(ws, phi, high))
                for high in (False, True)
            ]
            host = make_host(rng, phi.vertex_count)
            J_host = encode(host, phi)
            assert J_host == ref_encode(host, phi)
            queries = _queries(rng, ws, phi, J_host)
            searched = rng.randrange(len(queries))
            for i, J in enumerate(queries):
                for lib, ref in checkers:
                    rep = lib.check(J)
                    assert rep.to_json_dict() == ref.check(J).to_json_dict()
                    seen.add(("member", rep.member))
                dec = atom_decomposition(J, ws, phi, types)
                ref_dec = oracles.ref_atom_decomposition(J, ws, phi, types)
                assert (dec.terms, dec.failed_orbit) == (ref_dec.terms, ref_dec.failed_orbit)
                seen.add(("decomposable", dec.ok))
                # a few copies J dominates, one possibly not, random weights
                embeddings = sorted(phi.full_level())
                y = {}
                for _ in range(3):
                    copy = (rng.randrange(len(ws.tags)), rng.choice(embeddings))
                    if rng.random() < 0.2 or dominates(J, ws, phi, *copy, types):
                        y[copy] = Fraction(rng.randint(0, 4), rng.randint(1, 4) * phi.vertex_count)
                args = (y, J, ws, phi, Fraction(rng.randint(0, 2), 4), Fraction(1, 20), types)
                got = _outcome(verify_regularity_witness, *args)
                assert got == _outcome(oracles.ref_verify_regularity_witness, *args)
                seen.add(("verify", got[0], got[1].regular if got[0] == "ok" else got[1]))
                if i == searched and phi.vertex_count <= ws.q + 1:
                    args = (J, ws, phi, Fraction(1, 4), Fraction(1, 20))
                    got = _outcome(search_regularity_witness, *args)
                    assert got == _outcome(oracles.ref_search_regularity_witness, *args)
                    seen.add(("search", got[0], got[1] is not None))
                    if got[1] is not None:
                        args = (got[1], *args)
                        got = _outcome(verify_regularity_witness, *args)
                        assert got == _outcome(oracles.ref_verify_regularity_witness, *args)
                        seen.add(("verify", got[0], got[1].regular))
            off = {((0, 0),): (1,) * ws.dim}  # off the r-level
            for lib, ref in checkers:
                assert _outcome(lib.check, off) == _outcome(ref.check, off)
        # the first copy J dominates exhausts a zero molecule budget
        phi = phis[0]
        J = molecule(ws, 0, min(phi.full_level()))
        args = (J, ws, phi, 1, Fraction(1, 20))
        got = _outcome(search_regularity_witness, *args, molecule_budget=0)
        assert got == _outcome(oracles.ref_search_regularity_witness, *args, molecule_budget=0)
        assert got == ("error", "molecule budget exceeded")
    assert {("member", True), ("member", False)} <= seen
    assert {("decomposable", True), ("decomposable", False)} <= seen
    assert {
        ("verify", "ok", True),
        ("verify", "ok", False),
        ("verify", "error", "J is not atom-decomposable; no witness can verify"),
    } <= seen
    assert any(key[:2] == ("verify", "error") and "does not dominate" in key[2] for key in seen)
    assert {("search", "ok", True), ("search", "ok", False)} <= seen


def test_lattice_checker_keeps_no_per_query_state():
    ws = coloured_weight_system(rainbow_family(3))
    phi = LabelledComplex.complete_complex(3, 4)
    checker = LatticeChecker(ws, phi, include_high_levels=True)

    def sizes():
        return {k: len(v) for k, v in vars(checker).items() if hasattr(v, "__len__")}

    before = sizes()
    rng = random.Random(5)
    verdicts = set()
    for _ in range(30):
        J_host = coloured_edge_vector(_random_coloured(rng, 4, 3), phi)
        for J in _queries(rng, ws, phi, J_host):
            verdicts.add(checker.check(J).member)
    assert verdicts == {True, False}
    assert sizes() == before


def test_master_edge_vector_matches_reference():
    rng = random.Random(3301)
    outcomes = set()
    for family, part in _canonical_families(rng, 60):
        colours = family[0].colours
        for _ in range(4):
            bounds = list(accumulate((len(p) + rng.randint(0, 2) for p in part.parts), initial=0))
            host_part = Partition.from_lists([range(a, b) for a, b in zip(bounds, bounds[1:])])
            phi = LabelledComplex.complete_partite(part, host_part)
            n = bounds[-1]
            arcs = list(permutations(range(n), 2))
            part_of = host_part.assignment()
            if rng.random() < 0.5:  # only arcs that read their parts in order
                arcs = [(u, v) for u, v in arcs if part_of[u] <= part_of[v]]
            classes = [[a for a in arcs if rng.random() < 0.3] for _ in range(colours)]
            g = ColouredMultidigraph.from_colour_classes(n, 2, colours, classes)
            got = _outcome(master_edge_vector, g, host_part, phi)
            assert got == _outcome(oracles.ref_master_edge_vector, g, host_part, phi)
            outcomes.add("vector" if got[0] == "ok" else got[1].split()[-1])
    assert outcomes == {"vector", "indices", "parts"}, outcomes


def _json_outcome(f, *args):
    kind, value = _outcome(f, *args)
    return kind, value.to_json_dict() if kind == "ok" else value


def test_weight_systems_match_reference_json():
    rng = random.Random(3307)
    kinds = set()
    for _ in range(60):
        q, colours = rng.randint(2, 4), rng.randint(1, 3)
        part = rng.choice((None, Partition.from_lists([range(1), range(1, q)])))
        family = []
        for _ in range(rng.randint(1, 2)):
            classes = [[] for _ in range(colours)]
            for e in combinations(range(q), 2):
                for _ in range(rng.choice((0, 1, 1, 1, 2) if rng.random() < 0.2 else (0, 1))):
                    classes[rng.randrange(colours)].append(e)
            family.append(ColouredMultigraph.from_colour_classes(q, 2, colours, classes))
        got = _json_outcome(coloured_weight_system, family, part)
        assert got == _json_outcome(oracles.ref_lift_coloured_weight_system, family, part)
        kinds.add(("coloured", got[0]))
        arcs = [a for a in permutations(range(q), 2) if rng.random() < 0.4]
        pattern = Digraph.from_arcs(q, 2, arcs)
        for allow in (False, True):
            got = _json_outcome(digraph_weight_system, pattern, allow)
            assert got == _json_outcome(oracles.ref_digraph_weight_system, pattern, allow)
            kinds.add(("digraph", got[0]))
    assert kinds == {(k, o) for k in ("coloured", "digraph") for o in ("ok", "error")}, kinds
