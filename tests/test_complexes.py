"""Labelled complexes: adaptedness, orbits, extensions, typicality."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import oracles
from decomp_lab import complexes
from decomp_lab.complexes import (
    LabelledComplex,
    PermGroup,
    complete_extension,
    extension_count,
    is_extendable,
    is_typical_blowup,
    is_typical_coloured,
    is_typical_hp,
    is_typical_plain,
)
from decomp_lab.core import (
    ColouredMultigraph,
    Hypergraph,
    Partition,
    blowup,
    inj_extends,
    inj_from_pairs,
)


def test_complete_complex_level_sizes():
    phi = LabelledComplex.complete_complex(3, 5)
    assert len(phi.full_level()) == 5 * 4 * 3
    assert len(phi.level({0})) == 5
    assert phi.is_restriction_closed()


def test_complete_partite_level_sizes():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2, 3], [4, 5]])
    phi = LabelledComplex.complete_partite(lp, hp)
    a, b = 4, 2
    assert len(phi.full_level()) == a * (a - 1) * b
    assert phi.is_restriction_closed()


def test_complete_complex_is_the_one_part_partite_complex():
    for q in range(5):
        for n in range(1, 6):
            phi = LabelledComplex.complete_complex(q, n)
            one_part = LabelledComplex.complete_partite(Partition.trivial(q), Partition.trivial(n))
            assert phi.levels == one_part.levels, (q, n)
            assert (phi.label_partition, phi.host_partition) == (
                one_part.label_partition, one_part.host_partition
            )


def test_every_complex_carries_both_partitions():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2], [3, 4]])
    complete = LabelledComplex.complete_complex(3, 5)
    plain = [
        complete,
        LabelledComplex.complete_complex(3, 0),
        LabelledComplex.from_maximal(3, 5, [((0, 1), (1, 2), (2, 0))]),
        LabelledComplex.from_json_dict(complete.to_json_dict()),
        LabelledComplex(2, {}, 4),
    ]
    for phi in plain:
        assert phi.label_partition == Partition.trivial(phi.q)
        assert phi.host_partition == Partition.trivial(phi.vertex_count)
    partite = LabelledComplex.complete_partite(lp, hp)
    assert (partite.label_partition, partite.host_partition) == (lp, hp)


def test_symmetric_group_is_the_one_part_stabilizer():
    for q in range(5):
        assert (
            PermGroup.symmetric(q).elements
            == PermGroup.part_stabilizer(Partition.trivial(q)).elements
        )


def test_full_embedding_exists_matches_a_scan_of_the_top_level():
    rng = random.Random(29)
    lp = Partition.from_lists([[0, 1], [2]])
    complete = [
        LabelledComplex.complete_complex(3, n) for n in (0, 1, 2, 3, 5)
    ] + [
        LabelledComplex.complete_partite(lp, Partition.from_lists(parts))
        for parts in ([[0, 1, 2], [3]], [[0], [1, 2]], [[0, 1], [2, 3, 4]], [[3, 4], [0, 1, 2]])
    ]
    answers = set()
    for phi in complete:
        for _ in range(60):
            labels = rng.sample(range(phi.q), rng.randint(0, phi.q))
            # images may include the vertex one past the host
            images = rng.sample(range(phi.vertex_count + 1), min(len(labels), phi.vertex_count + 1))
            partial = tuple(sorted(zip(labels, images)))
            expected = any(inj_extends(psi, partial) for psi in phi.full_level())
            assert phi.full_embedding_exists(partial) == expected, (phi.host_partition, partial)
            answers.add(expected)
    assert answers == {False, True}


def test_empty_complex():
    phi = LabelledComplex.complete_complex(3, 0)
    assert phi.full_level() == frozenset()
    assert phi.level(()) == frozenset({()})


def test_complete_complex_exactly_symmetric():
    phi = LabelledComplex.complete_complex(3, 4)
    group = phi.exactly_adapted()
    assert group is not None and group.order == 6


def test_partite_complex_exactly_adapted_group():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2], [3, 4]])
    phi = LabelledComplex.complete_partite(lp, hp)
    group = phi.exactly_adapted()
    assert group is not None
    assert set(group.elements) == {(0, 1, 2), (1, 0, 2)}


def test_exactly_adapted_rejects_a_label_degree_above_the_bound():
    # the candidate scan runs over all q! permutations of the labels
    with pytest.raises(ValueError, match="label degree 11 above the bound 10"):
        LabelledComplex.from_maximal(11, 2, []).exactly_adapted()


def test_deleting_one_labelled_edge_breaks_adaptedness():
    full = sorted(LabelledComplex.complete_complex(2, 3).full_level())
    phi = LabelledComplex.from_maximal(2, 3, full[1:])
    assert not phi.is_adapted(PermGroup.symmetric(2))
    # restriction closure holds regardless
    assert phi.is_restriction_closed()


def test_group_restrictions_are_memoized_per_label_set():
    groups = (
        PermGroup.symmetric(4),
        PermGroup.part_stabilizer(Partition.from_lists([[0, 2], [1, 3, 4]])),
    )
    for group in groups:
        subsets = [
            set(labels) for k in range(group.degree + 1) for labels in combinations(range(group.degree), k)
        ]
        for labels in subsets:
            restrictions, onto = group.restrictions(labels), group.onto(labels)
            assert restrictions == oracles.ref_restrictions(group, labels)
            assert onto == oracles.ref_onto(group, labels)
            # a second call with the labels in another order reads the memo
            assert group.restrictions(sorted(labels, reverse=True)) is restrictions
            assert group.onto(tuple(labels)) is onto
        assert len(group._restrictions) == len(group._onto) == len(subsets)


def test_orbits_full_symmetric_group():
    phi = LabelledComplex.complete_complex(3, 4)
    s3 = PermGroup.symmetric(3)
    psi = inj_from_pairs([(0, 0), (1, 1), (2, 2)])
    orbit = phi.orbit(psi, s3)
    assert len(orbit) == 6
    # orbit = all bijections onto the image
    assert all(sorted(v for _, v in m) == [0, 1, 2] for m in orbit)


def test_orbit_two_element_partite():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2], [3, 4]])
    phi = LabelledComplex.complete_partite(lp, hp)
    group = PermGroup.from_generators(3, [(1, 0, 2)])
    psi = inj_from_pairs([(0, 1), (2, 3)])
    orbit = phi.orbit(psi, group)
    assert set(orbit) == {
        inj_from_pairs([(0, 1), (2, 3)]),
        inj_from_pairs([(1, 1), (2, 3)]),
    }


def test_orbits_partition_the_level():
    phi = LabelledComplex.complete_complex(3, 4)
    for group in (PermGroup.symmetric(3), PermGroup.trivial(3)):
        orbits = phi.orbits_at_size(2, group)
        total = sum(len(o) for o in orbits)
        assert total == len(phi.at_size(2))
        if group.order == 1:
            assert all(len(o) == 1 for o in orbits)
    # canonical representative is idempotent and orbit-invariant
    s3 = PermGroup.symmetric(3)
    for orbit in phi.orbits_at_size(2, s3):
        reps = {phi.orbit_canonical(m, s3) for m in orbit}
        assert reps == {orbit[0]}


def test_extension_octahedron_closed_form():
    lp = Partition.from_lists([[0, 1], [2]])
    for a, b in [(5, 3), (6, 2), (4, 4)]:
        hp = Partition.from_lists([list(range(a)), list(range(a, a + b))])
        phi = LabelledComplex.complete_partite(lp, hp)
        root = inj_from_pairs([(0, 0), (1, 1), (2, a)])
        ext = complete_extension(3, root, (0, 1, 2))
        res = extension_count(phi, ext)
        assert res.value == (a - 2) * (a - 3) * (b - 1)


def test_extension_rank_zero_and_single_vertex():
    phi = LabelledComplex.complete_complex(3, 6)
    root = inj_from_pairs([(0, 0), (1, 1), (2, 2)])
    ext0 = complete_extension(3, root, ())
    assert extension_count(phi, ext0).value == 1
    ext1 = complete_extension(3, root, (0,))
    assert extension_count(phi, ext1).value == 6 - 3


def test_extension_monte_carlo_within_three_stderr():
    phi = LabelledComplex.complete_complex(3, 7)
    root = inj_from_pairs([(0, 0), (1, 1), (2, 2)])
    ext = complete_extension(3, root, (0, 1, 2))
    exact = extension_count(phi, ext).value
    mc = extension_count(phi, ext, exact_limit=0, samples=20000, seed=42)
    assert mc.value is None
    spread = 3 * mc.stderr if mc.stderr else Fraction(1)
    assert abs(mc.estimate - exact) <= spread


def test_extension_count_stderr_is_a_float():
    phi = LabelledComplex.complete_complex(3, 7)
    root = inj_from_pairs([(0, 0), (1, 1), (2, 2)])
    ext = complete_extension(3, root, (0, 1, 2))
    mixed = extension_count(phi, ext, exact_limit=0, samples=200, seed=42)
    assert 0 < mixed.estimate < 7 ** 3 and type(mixed.estimate) is Fraction
    assert type(mixed.stderr) is float and mixed.stderr > 0
    # no room for a new vertex, so no sample hits: the degenerate branch
    single = complete_extension(3, root, (0,))
    degenerate = extension_count(
        LabelledComplex.complete_complex(3, 3), single, exact_limit=0, samples=50, seed=1
    )
    assert degenerate.estimate == 0 and type(degenerate.stderr) is float
    assert degenerate.stderr == 0.0


def test_extension_monte_carlo_requires_seed():
    phi = LabelledComplex.complete_complex(3, 7)
    root = inj_from_pairs([(0, 0), (1, 1), (2, 2)])
    ext = complete_extension(3, root, (0, 1, 2))
    with pytest.raises(ValueError):
        extension_count(phi, ext, exact_limit=0)


def test_extendable_complete_complex():
    # smallest n where every default template (up to three new vertices)
    # clears omega = 1/2: the tightest is (n-3)(n-4)(n-5) >= n^3/2, first
    # true at n = 20 (4080 vs 4000); one root suffices by symmetry
    q, s = 3, 2
    phi = LabelledComplex.complete_complex(q, 20)
    report = is_extendable(phi, Fraction(1, 2), s, root_limit=1)
    assert report.extendable
    assert report.notes == ["roots subsampled: 1 of 6840 checked (stride 6840)"]
    phi_small = LabelledComplex.complete_complex(q, 18)
    report_small = is_extendable(phi_small, Fraction(1, 2), s, root_limit=1)
    assert not report_small.extendable
    assert report_small.notes == ["roots subsampled: 1 of 4896 checked (stride 4896)"]
    # 210 roots over a limit of 200 give stride 1: every root is checked
    phi7 = LabelledComplex.complete_complex(q, 7)
    for limit in (200, None):
        report7 = is_extendable(phi7, Fraction(1, 2), s, templates=[(0,)], root_limit=limit)
        assert report7.checked == 210 and report7.notes == []


def test_extendable_rejects_root_limit_below_one():
    phi = LabelledComplex.complete_complex(3, 5)
    for limit in (0, -1):
        with pytest.raises(ValueError, match="root_limit"):
            is_extendable(phi, Fraction(1, 2), 2, root_limit=limit)


def test_extendable_fails_on_empty_complex():
    phi = LabelledComplex.complete_complex(3, 0)
    report = is_extendable(phi, Fraction(1, 2), 1)
    assert not report.extendable


def test_extendable_fails_on_empty_part():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2, 3], []])
    with pytest.raises(ValueError):
        LabelledComplex.complete_partite(lp, hp)
    # a part with vertices but no room for a new one is also not dense
    hp2 = Partition.from_lists([[0, 1, 2, 3], [4]])
    phi = LabelledComplex.complete_partite(lp, hp2)
    report = is_extendable(phi, Fraction(1, 100), 1)
    assert not report.extendable  # the lone class vertex blocks extensions


def _extendable_with_extra(templates, extra):
    phi = LabelledComplex.complete_complex(3, 20)
    root = sorted(phi.full_level())[0]
    return is_extendable(
        phi, Fraction(1, 2), 2, templates=templates,
        extra_templates=[extra(root)], root_limit=1,
    )


def test_extendable_counts_a_template_of_five_new_vertices_exactly():
    # five new vertices on the five host vertices the root leaves: 5! ways
    phi = LabelledComplex.complete_complex(3, 8)
    root = sorted(phi.full_level())[0]
    ext = complete_extension(3, root, [0, 1, 2, 0, 1])
    report = is_extendable(
        phi, Fraction(1, 1000), 2, templates=[], extra_templates=[ext], root_limit=None
    )
    assert report == complexes.ExtendabilityReport(
        extendable=True, omega=Fraction(1, 1000), rank=2, checked=1,
        worst=(Fraction(120), Fraction(8**5, 1000), ext.new_vertices),
    )


def test_extendable_worst_case_from_extra_template():
    # one new vertex: 17 completions against 10; the library template
    # (0, 1, 2) clears its threshold by more (4080 against 4000)
    report = _extendable_with_extra(
        [(0, 1, 2)], lambda root: complete_extension(3, root, (0,))
    )
    assert report == complexes.ExtendabilityReport(
        extendable=True, omega=Fraction(1, 2), rank=2, checked=2,
        worst=(Fraction(17), Fraction(10), ((0, 1),)),
        notes=["roots subsampled: 1 of 6840 checked (stride 6840)"],
    )


def test_extendable_failing_extra_template():
    # an edge restricted to no host edge leaves no completion at all
    def blocked(root):
        ext = complete_extension(3, root, (0,))
        return replace(ext, restrictions=((ext.edges[0], frozenset()),))

    report = _extendable_with_extra([(0,)], blocked)
    assert report == complexes.ExtendabilityReport(
        extendable=False, omega=Fraction(1, 2), rank=2, checked=2,
        worst=(Fraction(0), Fraction(10), ((0, 1),)),
        notes=["roots subsampled: 1 of 6840 checked (stride 6840)"],
    )


def test_typicality_complete_graph_boundary():
    k10 = Hypergraph.complete(10, 2)
    assert is_typical_plain(k10, Fraction(1, 10), 1).typical
    assert not is_typical_plain(k10, Fraction(9, 100), 1).typical
    rep = is_typical_plain(k10, Fraction(1, 10), 1)
    assert rep.worst_deviation == Fraction(1, 10)


def test_typicality_empty_graph():
    g = Hypergraph.from_edges(6, 2, [])
    assert is_typical_plain(g, Fraction(1, 100), 2).typical


def test_typicality_blowup_complete():
    tri = Hypergraph.complete(3, 2)
    for n in (4, 6):
        g, part = blowup(tri, [n, n, n])
        rep = is_typical_blowup(g, part, tri, Fraction(2, n), 2)
        assert rep.typical
        assert is_typical_blowup(g, part, tri, Fraction(0), 2).typical


def test_typicality_blowup_detects_missing_edge():
    tri = Hypergraph.complete(3, 2)
    g, part = blowup(tri, [4, 4, 4])
    edges = g.sorted_edges()
    broken = Hypergraph.from_edges(g.n, 2, edges[1:])
    rep = is_typical_blowup(broken, part, tri, Fraction(1, 100), 1)
    assert not rep.typical


def test_typicality_coloured_uniform():
    # two colours splitting a complete graph into two triangles sharing no edge
    g = ColouredMultigraph.from_colour_classes(
        6, 2, 2,
        [[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
         [(0, 3), (1, 2), (0, 4), (1, 4), (2, 4)]],
    )
    rep = is_typical_coloured(g, Fraction(9, 10), 1)
    assert rep.checked > 0


def test_typicality_plain_requires_seed_when_sampling():
    k = Hypergraph.complete(12, 2)
    with pytest.raises(ValueError):
        is_typical_plain(k, Fraction(1, 2), 3, budget=10)
    rep = is_typical_plain(k, Fraction(1, 2), 3, budget=10, samples=200, seed=9)
    assert not rep.exact


def test_typicality_hp_mode():
    from decomp_lab.complexes import is_typical_hp
    from decomp_lab.core import blowup as _blowup

    tri = Hypergraph.complete(3, 2)
    host, hpart = _blowup(tri, [4, 4, 4])
    rep = is_typical_hp(host, hpart, tri, Partition.singletons(3), Fraction(0), 1)
    assert rep.typical
    broken = Hypergraph.from_edges(host.n, 2, host.sorted_edges()[1:])
    rep2 = is_typical_hp(
        broken, hpart, tri, Partition.singletons(3), Fraction(1, 1000), 1
    )
    assert not rep2.typical


def test_typicality_hp_rejects_mismatched_part_counts():
    tri = Hypergraph.complete(3, 2)
    host, hpart = blowup(tri, [2, 2, 2])  # three host parts, two pattern parts
    with pytest.raises(ValueError, match="part counts"):
        is_typical_hp(host, hpart, tri, Partition.from_lists([[0, 1], [2]]), Fraction(0), 1)
    # two host parts, three pattern parts
    g = Hypergraph.complete(6, 2)
    two = Partition.from_lists([[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="part counts"):
        is_typical_hp(g, two, tri, Partition.singletons(3), Fraction(0), 1)


@pytest.mark.parametrize("mode", ["plain", "blowup", "coloured", "hp"])
def test_typicality_rejects_a_family_size_below_one_and_a_negative_band(mode):
    # s below 1 checked no family and reported typical; a negative c gave a
    # verdict from a negative band
    tri = Hypergraph.complete(3, 2)
    host, hpart = blowup(tri, [2, 2, 2])
    coloured = ColouredMultigraph.from_colour_classes(
        6, 2, 2,
        [[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
         [(0, 3), (1, 2), (0, 4), (1, 4), (2, 4)]],
    )
    call = {
        "plain": lambda c, s: is_typical_plain(host, c, s),
        "blowup": lambda c, s: is_typical_blowup(host, hpart, tri, c, s),
        "coloured": lambda c, s: is_typical_coloured(coloured, c, s),
        "hp": lambda c, s: is_typical_hp(host, hpart, tri, Partition.singletons(3), c, s),
    }[mode]
    for s in (0, -2):
        with pytest.raises(ValueError, match="family size s of at least 1"):
            call(Fraction(1, 2), s)
    with pytest.raises(ValueError, match="band c of 0 or more"):
        call(Fraction(-1, 2), 1)
    assert call(0, 1).checked > 0 and call(Fraction(1, 2), 1).checked > 0


def test_extension_json_roundtrip():
    from decomp_lab.complexes import Extension
    from decomp_lab.core import inj_from_pairs as inj

    root = inj([(0, 0), (1, 1), (2, 2)])
    ext = complete_extension(3, root, (0, 2))
    doc = ext.to_json_dict()
    again = Extension.from_json_dict(doc)
    assert again == ext


def test_labelled_complex_json_roundtrip():
    lp = Partition.from_lists([[0, 1], [2]])
    hp = Partition.from_lists([[0, 1, 2], [3, 4]])
    phi = LabelledComplex.complete_partite(lp, hp)
    doc = phi.to_json_dict()
    again = LabelledComplex.from_json_dict(doc)
    for size in range(4):
        assert sorted(again.at_size(size)) == sorted(phi.at_size(size))


# ---------------------------------------------------------------------------
# typicality: one deviation/witness rule for every mode


def _fails(k, c, lhs, expected) -> bool:
    if expected == 0:
        return lhs > 0
    return abs(Fraction(lhs) / expected - 1) > k * c


def test_typicality_plain_sampled_failure_has_witness():
    c6 = Hypergraph.from_edges(6, 2, [(v, (v + 1) % 6) for v in range(6)])
    rep = is_typical_plain(c6, Fraction(2, 5), 3, budget=10, samples=100, seed=1)
    assert not rep.typical and not rep.exact
    assert rep.witness is not None
    fam, lhs, expected = rep.witness
    nbhd = [{v for (v,) in c6.neighbourhood(f)} for f in fam]
    assert lhs == len(set.intersection(*nbhd))
    assert expected == c6.density() ** len(fam) * c6.n
    assert _fails(len(fam), rep.c, lhs, expected)


def _typicality_calls():
    tri = Hypergraph.complete(3, 2)
    host, hpart = blowup(tri, [3, 3, 3])
    broken = Hypergraph.from_edges(host.n, 2, host.sorted_edges()[2:])
    coloured = ColouredMultigraph.from_colour_classes(
        6, 2, 2,
        [[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
         [(0, 3), (1, 2), (0, 4), (1, 4), (2, 4)]],
    )
    c6 = Hypergraph.from_edges(6, 2, [(v, (v + 1) % 6) for v in range(6)])
    return {
        "plain": lambda: is_typical_plain(c6, Fraction(1, 5), 2),
        "plain-sampled": lambda: is_typical_plain(
            c6, Fraction(1, 5), 3, budget=10, samples=60, seed=4
        ),
        "blowup": lambda: is_typical_blowup(broken, hpart, tri, Fraction(1, 100), 1),
        "coloured": lambda: is_typical_coloured(coloured, Fraction(1, 10), 1),
        "hp": lambda: is_typical_hp(
            broken, hpart, tri, Partition.singletons(3), Fraction(1, 1000), 1
        ),
    }


@pytest.mark.parametrize("name", sorted(_typicality_calls()))
def test_typicality_witness_is_first_failing_case(monkeypatch, name):
    streams = []
    fold = complexes._typicality

    def recording(mode, c, s, cases, exact=True):
        streams.append(list(cases))
        return fold(mode, c, s, streams[-1], exact)

    monkeypatch.setattr(complexes, "_typicality", recording)
    rep = _typicality_calls()[name]()
    (cases,) = streams
    failing = [
        (*key, lhs, expected)
        for k, key, lhs, expected in cases
        if _fails(k, rep.c, lhs, expected)
    ]
    assert len(failing) > 1  # "first" is not trivially the only one
    assert not rep.typical
    assert rep.witness == failing[0]
    assert rep.checked == len(cases)


_REPORT_FIELDS = ("typical", "checked", "worst_deviation", "exact", "mode", "c", "s")


def _typicality_outcome(fn, *args, witness=True, **kwargs):
    """The report fields the library must keep, or the error raised."""
    try:
        rep = fn(*args, **kwargs)
    except Exception as exc:  # the error itself is part of the outcome
        return (type(exc).__name__, str(exc))
    fields = tuple(getattr(rep, name) for name in _REPORT_FIELDS)
    return fields + ((rep.witness,) if witness else ())


def _same(lib, ref, *args, witness=True, **kwargs) -> bool:
    return _typicality_outcome(lib, *args, witness=witness, **kwargs) == (
        _typicality_outcome(ref, *args, witness=witness, **kwargs)
    )


def _random_graph(rng, n, r, p):
    return Hypergraph.from_edges(
        n, r, [e for e in combinations(range(n), r) if rng.random() < p]
    )


def _random_parts(rng, n, t):
    parts = [[] for _ in range(t)]
    for v in range(n):
        parts[rng.randrange(t)].append(v)
    return Partition.from_lists(parts)


_CS = (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("seed", range(6))
def test_typicality_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(3):
        # plain: exact, sampled, sampling without a seed
        r = rng.randint(1, 3)
        g = _random_graph(rng, rng.randint(max(r, 3), 7), r, rng.random())
        c, s = rng.choice(_CS), rng.randint(1, 3)
        ref = oracles.ref_is_typical_plain
        assert _same(is_typical_plain, ref, g, c, s, witness=False)
        sampled = dict(budget=5, samples=30, seed=rng.randrange(1000))
        assert _same(is_typical_plain, ref, g, c, s, witness=False, **sampled)
        assert _same(is_typical_plain, ref, g, c, s, witness=False, budget=5)

        # blowup: exact, over budget, a partition of the wrong size
        m = rng.randint(2, 4)
        h = _random_graph(rng, m, rng.randint(2, min(m, 3)), 0.8)
        host, hpart = blowup(h, [rng.randint(1, 3) for _ in range(m)])
        host = Hypergraph.from_edges(
            host.n, host.r, [e for e in host.sorted_edges() if rng.random() < 0.8]
        )
        c, s = rng.choice(_CS), rng.randint(1, 2)
        ref = oracles.ref_is_typical_blowup
        assert _same(is_typical_blowup, ref, host, hpart, h, c, s)
        assert _same(is_typical_blowup, ref, host, hpart, h, c, s, budget=3)
        wrong = Partition.from_lists([list(range(host.n))])
        assert _same(is_typical_blowup, ref, host, wrong, h, c, s)

        # coloured: exact, sampled, sampling without a seed
        r, colours = rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(max(r, 3), 6)
        mult = {}
        for e in combinations(range(n), r):
            if rng.random() < 0.6:
                vec = [rng.randint(0, 2) for _ in range(colours)]
                vec[rng.randrange(colours)] += 1
                mult[e] = vec
        cg = ColouredMultigraph.from_dict(n, r, colours, mult)
        c, s = rng.choice(_CS), rng.randint(1, 2)
        ref = oracles.ref_is_typical_coloured
        assert _same(is_typical_coloured, ref, cg, c, s)
        sampled = dict(budget=5, samples=30, seed=rng.randrange(1000))
        assert _same(is_typical_coloured, ref, cg, c, s, **sampled)
        assert _same(is_typical_coloured, ref, cg, c, s, budget=5)

        # index-partite: exact and over budget
        r, t = rng.randint(2, 3), rng.randint(1, 3)
        n = rng.randint(4, 7)
        g = _random_graph(rng, n, r, rng.random())
        m = rng.randint(r, 5)
        h = _random_graph(rng, m, r, 0.7)
        c, s = rng.choice(_CS), rng.randint(1, 2)
        args = (g, _random_parts(rng, n, t), h, _random_parts(rng, m, t), c, s)
        ref = oracles.ref_is_typical_hp
        assert _same(is_typical_hp, ref, *args)
        assert _same(is_typical_hp, ref, *args, budget=4)


def test_orbits_at_size_match_reference():
    rng = random.Random(4409)
    outcomes = set()
    for _ in range(40):
        q = rng.randint(2, 4)
        n = rng.randint(q, 5)
        cut = rng.randint(1, q - 1)
        label_part = Partition.from_lists([range(cut), range(cut, q)])
        host_part = Partition.from_lists([range(cut + 1), range(cut + 1, n + 1)])
        maximal = [
            tuple(zip(range(q), rng.sample(range(n), q))) for _ in range(rng.randint(1, 6))
        ]
        perms = list(permutations(range(q)))
        groups = [
            PermGroup.symmetric(q),
            PermGroup.trivial(q),
            PermGroup.part_stabilizer(label_part),
            PermGroup.from_generators(q, rng.sample(perms, 2)),
        ]
        complexes_ = [
            LabelledComplex.complete_complex(q, n),
            LabelledComplex.complete_partite(label_part, host_part),
            LabelledComplex.from_maximal(q, n, maximal),
        ]
        for phi in complexes_:
            for group in groups:
                for size in range(q + 1):
                    try:
                        want = oracles.ref_orbits_at_size(phi, size, group)
                    except ValueError as exc:
                        with pytest.raises(ValueError) as got:
                            phi.orbits_at_size(size, group)
                        assert str(got.value) == str(exc)
                        outcomes.add("not adapted")
                        continue
                    assert phi.orbits_at_size(size, group) == want
                    outcomes.add("orbits")
    assert outcomes == {"orbits", "not adapted"}
