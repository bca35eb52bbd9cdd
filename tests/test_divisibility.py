"""Divisibility and balance checkers against worked values."""

import random
from fractions import Fraction
from itertools import combinations, islice, permutations, product

import pytest

import oracles

from decomp_lab.core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    blowup,
)
from decomp_lab import divisibility as dv
from decomp_lab.divisibility import (
    canonical_family_check,
    coloured_balanced,
    coloured_divisible,
    digraph_divisible,
    h_balanced,
    h_divisible,
    hp_divisible,
    master_divisible,
    shift_regular,
    steiner_divisible,
    tridivisible,
)
from decomp_lab.encodings import (
    large_set_instance,
    rainbow_family,
    resolvable_sts_instance,
    tight_cycle,
)


def test_steiner_examples():
    assert steiner_divisible(7, 3, 2, 1).verdict
    rep = steiner_divisible(6, 3, 2, 1)
    assert not rep.verdict
    assert rep.failures[0].level == 1  # 2 does not divide 5
    assert steiner_divisible(10, 4, 3, 0).verdict
    admissible = [n for n in range(1, 101) if steiner_divisible(n, 3, 2, 1).verdict]
    assert admissible == [n for n in range(1, 101) if n % 6 in (1, 3)]


def test_h_divisible_examples():
    tri = Hypergraph.complete(3, 2)
    assert h_divisible(Hypergraph.complete(7, 2), tri).verdict
    rep = h_divisible(Hypergraph.complete(5, 2), tri)
    assert not rep.verdict
    assert rep.failures[0].level == 0
    assert h_divisible(Hypergraph.from_edges(5, 2, []), tri).verdict
    with pytest.raises(ValueError):
        h_divisible(tri, Hypergraph.from_edges(3, 2, []))


def test_h_divisible_matching_pattern_level_zero():
    matching = Hypergraph.from_edges(4, 2, [(0, 1), (2, 3)])
    g6 = Hypergraph.from_edges(6, 2, [(0, 1), (2, 3), (4, 5)])
    g5 = Hypergraph.from_edges(6, 2, [(0, 1), (2, 3), (0, 2)])
    # level-0 gcd is |H| = 2: an odd edge count fails
    assert not h_divisible(
        Hypergraph.from_edges(6, 2, [(0, 1), (2, 3), (4, 5)]), matching
    ).verdict or g6.edge_count % 2 == 1
    assert h_divisible(Hypergraph.from_edges(4, 2, [(0, 1), (2, 3)]), matching).verdict
    rep = h_divisible(g5, matching)
    assert not rep.verdict and rep.failures[0].level == 0


def test_hp_divisible_resolvable_instances():
    inst = resolvable_sts_instance(9)
    assert hp_divisible(
        inst.host, inst.host_partition, inst.pattern, inst.pattern_partition
    ).verdict
    # even point count breaks the (n-1, (n-1)/2) integrality
    n = 8
    total = n + 3
    edges = [e for e in combinations(range(total), 2) if e[0] < n]
    host = Hypergraph.from_edges(total, 2, edges)
    host_partition = Partition.from_lists([range(n), range(n, total)])
    rep = hp_divisible(
        host, host_partition, inst.pattern, inst.pattern_partition
    )
    assert not rep.verdict


def test_hp_divisible_large_set_instance():
    inst = large_set_instance(9)
    assert hp_divisible(
        inst.host, inst.host_partition, inst.pattern, inst.pattern_partition
    ).verdict


def test_hp_divisible_blowup_condition():
    inst = resolvable_sts_instance(9)
    # add an edge inside the class part: its index is outside the pattern's
    bad_edges = list(inst.host.sorted_edges()) + [(9, 10)]
    bad = Hypergraph.from_edges(inst.host.n, 2, bad_edges)
    with pytest.raises(ValueError):
        hp_divisible(
            bad, inst.host_partition, inst.pattern, inst.pattern_partition
        )


def test_hp_trivial_partition_collapses_to_h():
    tri = Hypergraph.complete(3, 2)
    rng = random.Random(4)
    for n in (6, 7):
        edges = {
            tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(4, 12))
        }
        g = Hypergraph.from_edges(n, 2, edges)
        a = hp_divisible(
            g, Partition.trivial(n), tri, Partition.trivial(3)
        ).verdict
        b = h_divisible(g, tri).verdict
        assert a == b


def test_hp_singleton_partition_gives_partite_conditions():
    tri = Hypergraph.complete(3, 2)
    host, host_partition = blowup(tri, [3, 3, 3])
    assert hp_divisible(
        host, host_partition, tri, Partition.singletons(3)
    ).verdict
    # drop one edge: the three bipartite piece counts disagree
    edges = host.sorted_edges()[1:]
    broken = Hypergraph.from_edges(host.n, 2, edges)
    rep = hp_divisible(
        broken, host_partition, tri, Partition.singletons(3)
    )
    assert not rep.verdict
    assert rep.failures[0].level == 0


def test_h_balanced():
    tri = Hypergraph.complete(3, 2)
    host, part = blowup(tri, [3, 3, 3])
    assert h_balanced(host, part, tri)
    broken = Hypergraph.from_edges(host.n, 2, host.sorted_edges()[1:])
    assert not h_balanced(broken, part, tri)


def test_coloured_divisible_rainbow_equivalence_spot():
    fam = rainbow_family(4)
    rng = random.Random(77)
    edges6 = list(combinations(range(6), 2))
    for _ in range(150):
        classes = [[], [], [], []]
        for e in edges6:
            c = rng.randrange(5)
            if c:
                classes[c - 1].append(e)
        g = ColouredMultigraph.from_colour_classes(6, 2, 4, classes)
        assert coloured_divisible(g, fam).verdict == tridivisible(g)


def test_coloured_divisible_monochromatic_triangle():
    fam = rainbow_family(3)
    mono = ColouredMultigraph.from_colour_classes(
        3, 2, 3, [[(0, 1), (0, 2), (1, 2)], [], []]
    )
    rep = coloured_divisible(mono, fam)
    assert not rep.verdict
    assert rep.failures[0].level == 0  # (3,0,0) is not a multiple of (1,1,1)


def test_coloured_divisible_odd_degree_fails_level_one():
    # a three-edge star: the edge count passes level 0 but leaf degrees are odd
    fam = rainbow_family(4)
    g = ColouredMultigraph.from_colour_classes(
        4, 2, 4, [[(0, 1)], [(0, 2)], [(0, 3)], []]
    )
    rep = coloured_divisible(g, fam)
    assert not rep.verdict
    assert rep.failures[0].level == 1


def test_coloured_balanced_uniform_and_indicator():
    fam = rainbow_family(3)
    uniform = ColouredMultigraph.from_colour_classes(
        6, 2, 3,
        [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]],
    )
    rep = coloured_balanced(uniform, fam, b=Fraction(1, 100), c=0)
    assert rep.balanced
    assert rep.closed_form is True
    # density vector equal to one pattern's: indicator weights work
    single = ColouredMultigraph.from_colour_classes(
        3, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
    )
    rep2 = coloured_balanced(single, fam, b=Fraction(1, 100), c=0)
    assert rep2.balanced


def test_coloured_balanced_heavy_colour_fails():
    fam = rainbow_family(3)
    heavy = ColouredMultigraph.from_colour_classes(
        6, 2, 3,
        [[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [(0, 4)], [(1, 4)]],
    )
    rep = coloured_balanced(heavy, fam, b=Fraction(1, 1000), c=0)
    assert not rep.balanced
    assert rep.closed_form is False


def test_digraph_divisible_examples():
    cyc = tight_cycle(3, 2)
    kd4 = Digraph.complete(4, 2)
    assert digraph_divisible(kd4, cyc).verdict
    single = Digraph.from_arcs(3, 2, [(0, 1)])
    rep = digraph_divisible(single, cyc)
    assert not rep.verdict
    assert rep.failures[0].level == 0
    with pytest.raises(ValueError):
        digraph_divisible(kd4, Digraph.from_arcs(3, 2, [(0, 1), (1, 0)]))


def test_shift_regular_complete_digraphs():
    for n, r in [(4, 2), (5, 2), (5, 3)]:
        assert shift_regular(Digraph.complete(n, r))
    # one arc breaks it
    assert not shift_regular(Digraph.from_arcs(4, 2, [(0, 1)]))


def test_cycle_divisibility_equivalence_spot():
    cyc = tight_cycle(3, 2)
    arcs = sorted(Digraph.complete(4, 2).arcs)
    rng = random.Random(555)
    for _ in range(500):
        sub = [a for a in arcs if rng.random() < 0.5]
        g = Digraph.from_arcs(4, 2, sub)
        expected = shift_regular(g) and len(sub) % 3 == 0
        assert digraph_divisible(g, cyc).verdict == expected


# --- coloured directed partite families ---


def mixed_triangle():
    return ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1), (0, 2)], [(1, 2), (2, 1)]]
    )


def two_coloured_cycle():
    return ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1), (1, 2)], [(2, 0)]]
    )


def partite_cycle():
    return ColouredMultidigraph.from_colour_classes(
        3, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
    )


def test_canonical_check_infers_block_groups():
    info = canonical_family_check([mixed_triangle()], Partition.trivial(3))
    assert info.groups[0] == frozenset({(0, 1)})
    assert info.groups[1] == frozenset({(0, 1), (1, 0)})
    info2 = canonical_family_check([two_coloured_cycle()], Partition.trivial(3))
    assert info2.groups[0] == info2.groups[1] == frozenset({(0, 1)})
    info3 = canonical_family_check(
        [partite_cycle()], Partition.from_lists([[0, 1], [2]])
    )
    assert info3.colour_index == [(2, 0), (1, 1), (1, 1)]


def test_canonical_check_rejects_shared_image_across_colours():
    bad = ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1)], [(1, 0)]]
    )
    with pytest.raises(ValueError, match="colours"):
        canonical_family_check([bad], Partition.trivial(3))


def test_canonical_check_rejects_non_coset_same_image():
    # three of six orderings of one image in a single colour: not a coset
    bad = ColouredMultidigraph.from_colour_classes(
        4, 3, 1, [[(0, 1, 2), (1, 2, 0), (1, 0, 2)]]
    )
    with pytest.raises(ValueError):
        canonical_family_check([bad], Partition.trivial(4))


def test_master_mixed_triangle_conditions():
    fam = [mixed_triangle()]
    part = Partition.trivial(3)
    host_part = Partition.trivial(4)
    build = ColouredMultidigraph.from_colour_classes
    ok = build(4, 2, 2, [[(0, 1), (0, 2)], [(1, 2), (2, 1)]])
    assert master_divisible(ok, host_part, fam, part).verdict
    unequal = build(4, 2, 2, [[(0, 1)], [(1, 2), (2, 1)]])
    rep = master_divisible(unequal, host_part, fam, part)
    assert not rep.verdict and rep.failures[0].level == 0
    unpaired = build(4, 2, 2, [[(0, 1), (0, 2)], [(1, 2)]])
    rep2 = master_divisible(unpaired, host_part, fam, part)
    assert not rep2.verdict
    assert 2 in {f.level for f in rep2.failures}
    odd_outdegree = build(
        4, 2, 2, [[(0, 1), (1, 2)], [(0, 2), (2, 0)]]
    )
    rep3 = master_divisible(odd_outdegree, host_part, fam, part)
    assert not rep3.verdict


def test_master_two_coloured_cycle_conditions():
    fam = [two_coloured_cycle()]
    part = Partition.trivial(3)
    host_part = Partition.trivial(3)
    build = ColouredMultidigraph.from_colour_classes
    ok = build(3, 2, 2, [[(0, 1), (1, 2)], [(2, 0)]])
    assert master_divisible(ok, host_part, fam, part).verdict
    wrong_ratio = build(3, 2, 2, [[(0, 1)], [(1, 0)]])
    rep = master_divisible(wrong_ratio, host_part, fam, part)
    assert not rep.verdict and rep.failures[0].level == 0


def test_master_partite_cycle_conditions():
    fam = [partite_cycle()]
    part = Partition.from_lists([[0, 1], [2]])
    host_part = Partition.from_lists([[0, 1, 2, 3], [4, 5]])
    build = ColouredMultidigraph.from_colour_classes
    ok = build(
        6, 2, 3,
        [[(0, 1), (2, 3)], [(0, 4), (2, 5)], [(4, 1), (5, 3)]],
    )
    # colour 2 arcs run from the class part back: positions must ascend,
    # so the host above is rejected at the support stage
    rep = master_divisible(ok, host_part, fam, part)
    assert not rep.verdict
    good = build(
        6, 2, 3,
        [[(0, 1), (2, 3)], [(0, 4), (2, 5)], [(1, 4), (3, 5)]],
    )
    assert master_divisible(good, host_part, fam, part).verdict
    unequal = build(
        6, 2, 3,
        [[(0, 1)], [(0, 4), (2, 5)], [(1, 4), (3, 5)]],
    )
    rep2 = master_divisible(unequal, host_part, fam, part)
    assert not rep2.verdict and rep2.failures[0].level == 0


def test_master_agrees_with_lattice_membership():
    from decomp_lab.complexes import LabelledComplex
    from decomp_lab.weights import (
        LatticeChecker,
        master_edge_vector,
        master_weight_system,
    )

    fam = [two_coloured_cycle()]
    part = Partition.trivial(3)
    ws = master_weight_system(fam, part)
    host_part = Partition.trivial(4)
    phi = LabelledComplex.complete_complex(3, 4)
    checker = LatticeChecker(ws, phi)
    arcs = sorted(Digraph.complete(4, 2).arcs)
    rng = random.Random(2718)
    agree = 0
    for _ in range(150):
        c1 = [a for a in arcs if rng.random() < 0.4]
        c2 = [a for a in arcs if rng.random() < 0.25 and a not in c1]
        if not c1 and not c2:
            continue
        g = ColouredMultidigraph.from_colour_classes(4, 2, 2, [c1, c2])
        direct = master_divisible(g, host_part, fam, part).verdict
        J = master_edge_vector(g, host_part, phi)
        assert checker.check(J).member == direct
        agree += 1
    assert agree > 100


def test_coloured_monochromatic_level_two_passes():
    fam = tuple(rainbow_family(3))
    mono = ColouredMultigraph.from_colour_classes(
        3, 2, 3, [[(0, 1), (0, 2), (1, 2)], [], []]
    )
    rep = coloured_divisible(mono, fam)
    levels = {f.level for f in rep.failures}
    assert 0 in levels
    assert 2 not in levels  # single-edge vectors are standard basis members


def test_master_two_coloured_cycle_level_one_lattice():
    # the level-one generator span is exactly {v : v1 + v3 == v2 + v4}
    from itertools import product as iproduct

    from decomp_lab.core import injections
    from decomp_lab.intlattice import SpanChecker

    h = two_coloured_cycle()
    gens = sorted({h.degree_vector(theta) for theta in injections(1, 3)})
    checker = SpanChecker(gens)
    for v in iproduct(range(-2, 3), repeat=4):
        expected = v[0] + v[2] == v[1] + v[3]
        assert (checker.membership(list(v)) is not None) == expected


def test_pattern_span_cache_is_bounded():
    maxsize = dv._pattern_span.cache_info().maxsize
    assert maxsize == dv._PATTERN_SPANS
    pairs = list(combinations(range(5), 2))
    # each pair absent, forward or backward: distinct simple digraphs
    orientations = islice(product((None, 0, 1), repeat=len(pairs)), 1, maxsize + 2)
    host = Digraph.complete(3, 2)
    for choice in orientations:
        arcs = [p if o == 0 else p[::-1] for p, o in zip(pairs, choice) if o is not None]
        digraph_divisible(host, Digraph.from_arcs(5, 2, arcs))
    assert dv._pattern_span.cache_info().currsize <= maxsize


def test_pattern_span_one_entry_per_family():
    family = tuple(rainbow_family(3))
    dv._pattern_span.cache_clear()
    host = family[0]  # a rainbow triangle decomposes itself
    assert coloured_divisible(host, family).verdict
    assert coloured_divisible(host, family).verdict
    info = dv._pattern_span.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def _random_arcs(rng, n, r, p):
    return [a for a in permutations(range(n), r) if rng.random() < p]


def _copy_classes(rng, patterns, part, host_part, copies):
    """Colour classes of a sum of random copies of the patterns, each
    placing the vertices of a pattern part into the matching host part."""
    classes = [[] for _ in range(patterns[0].colours)]
    for _ in range(copies):
        images = {}
        for xs, vs in zip(part.parts, host_part.parts):
            images.update(zip(xs, rng.sample(vs, len(xs))))
        for item, vec in rng.choice(patterns).mult:
            classes[vec.index(1)].append(tuple(images[x] for x in item))
    return classes


def test_lattice_checkers_match_reference_reports():
    rng = random.Random(8128)
    for _ in range(40):
        for r, pattern in ((2, tight_cycle(3, 2)), (3, tight_cycle(4, 3))):
            n = rng.randint(r + 1, 5)
            g = Digraph.from_arcs(n, r, _random_arcs(rng, n, r, rng.random()))
            assert digraph_divisible(g, pattern) == oracles.ref_digraph_divisible(g, pattern)
    for colours in (3, 4):
        family = rainbow_family(colours)
        for _ in range(40):
            n = rng.randint(3, 6)
            classes = [[] for _ in range(colours)]
            for e in combinations(range(n), 2):
                for _ in range(rng.randint(0, 2)):
                    classes[rng.randrange(colours)].append(e)
            if rng.random() < 0.3:  # a sum of pattern copies passes
                parts = (Partition.trivial(3), Partition.trivial(n))
                classes = _copy_classes(rng, family, *parts, rng.randint(1, 4))
            g = ColouredMultigraph.from_colour_classes(n, 2, colours, classes)
            assert coloured_divisible(g, family) == oracles.ref_coloured_divisible(g, family)
    for inst in (resolvable_sts_instance(9), large_set_instance(7), large_set_instance(9)):
        edges = inst.host.sorted_edges()
        for deletions in (0, 0, 1, 2, 3, 6):
            kept = set(edges) - set(rng.sample(edges, deletions))
            g = Hypergraph.from_edges(inst.host.n, inst.host.r, kept)
            args = (g, inst.host_partition, inst.pattern, inst.pattern_partition)
            assert hp_divisible(*args) == oracles.ref_hp_divisible(*args)


def test_master_checker_matches_reference_reports():
    rng = random.Random(496)
    cases = [
        (mixed_triangle(), Partition.trivial(3), Partition.trivial(4)),
        (two_coloured_cycle(), Partition.trivial(3), Partition.trivial(4)),
        (
            partite_cycle(),
            Partition.from_lists([[0, 1], [2]]),
            Partition.from_lists([[0, 1, 2, 3], [4, 5]]),
        ),
    ]
    for pattern, part, host_part in cases:
        n, colours = host_part.ground_size, pattern.colours
        for _ in range(40):
            classes = [_random_arcs(rng, n, 2, 0.15) for _ in range(colours)]
            if rng.random() < 0.3:  # a sum of pattern copies passes
                classes = _copy_classes(rng, [pattern], part, host_part, rng.randint(1, 4))
            if not any(classes):
                continue
            g = ColouredMultidigraph.from_colour_classes(n, 2, colours, classes)
            args = (g, host_part, [pattern], part)
            assert master_divisible(*args) == oracles.ref_master_divisible(*args)
