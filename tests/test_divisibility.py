"""Divisibility and balance checkers against worked values."""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, islice, permutations, product

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


def _report_facts(rep):
    """A report's verdict, kind, levels and failures, each failure's
    expected text left out."""
    failures = [(f.level, f.witness, f.vector) for f in rep.failures]
    return rep.verdict, rep.kind, rep.checked_levels, failures


def test_h_divisible_matches_reference_reports():
    rng = random.Random(1801)
    verdicts = Counter()
    for _ in range(200):
        for r in (2, 3):
            q = rng.randint(r, r + 2)
            edges = [e for e in combinations(range(q), r) if rng.random() < 0.5]
            h = Hypergraph.from_edges(q, r, edges or [tuple(range(r))])
            n = rng.randint(r, 7)
            density = rng.random()
            g = Hypergraph.from_edges(
                n, r, [e for e in combinations(range(n), r) if rng.random() < density]
            )
            rep = h_divisible(g, h)
            assert _report_facts(rep) == _report_facts(oracles.ref_h_divisible(g, h))
            verdicts[rep.verdict] += 1
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts
    for g, h in (
        (Hypergraph.complete(4, 2), Hypergraph.complete(4, 3)),
        (Hypergraph.complete(4, 2), Hypergraph.from_edges(3, 2, [])),
        (Hypergraph.complete(4, 2), Hypergraph.from_edges(3, 3, [])),
    ):
        want = _outcome(oracles.ref_h_divisible, g, h)
        assert isinstance(want, str) and _outcome(h_divisible, g, h) == want


def _random_family(rng):
    """A seeded coloured r-digraph family over interval parts, r <= 4: per
    colour an index vector and a set of position permutations, each
    pattern's arcs the block-placed bases of that colour composed with the
    set, now and then a base of another set, a shuffled base, a stray arc,
    a repeated arc or an empty colour.  Every clause of the canonical-family
    check fails on some draws and all pass on others."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    bounds = list(accumulate(sizes, initial=0))
    parts = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    q = bounds[-1]
    r = rng.randint(1, min(4, q))
    colours = rng.randint(1, 3)
    perms = list(permutations(range(r)))

    def symmetry(idx):
        """A generated group, half the time of block-preserving generators,
        or any set of position permutations."""
        if rng.random() < 0.3:
            return rng.sample(perms, rng.randint(1, len(perms)))
        pool = perms
        if rng.random() < 0.5:
            block = [j for j, k in enumerate(idx) for _ in range(k)]
            pool = [s for s in perms if all(block[s[k]] == block[k] for k in range(r))]
        gens = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
        group, frontier = {tuple(range(r))}, [tuple(range(r))]
        while frontier:
            a = frontier.pop()
            for b in (tuple(a[s[k]] for k in range(r)) for s in gens):
                if b not in group:
                    group.add(b)
                    frontier.append(b)
        return sorted(group)

    plan = []
    for _ in range(colours):
        idx = [0] * len(sizes)
        for _ in range(r):
            idx[rng.choice([j for j in range(len(sizes)) if idx[j] < sizes[j]])] += 1
        plan.append((idx, symmetry(idx)))
    family = []
    for _ in range(rng.randint(1, 2)):
        classes = [[] for _ in range(colours)]
        for arcs, (idx, sym) in zip(classes, plan):
            for _ in range(rng.randint(1, 2)):
                base = [v for part, k in zip(parts, idx) for v in rng.sample(part, k)]
                if rng.random() < 0.1:
                    rng.shuffle(base)
                own = symmetry(idx) if rng.random() < 0.05 else sym
                arcs.extend(tuple(base[s[k]] for k in range(r)) for s in own)
        if rng.random() < 0.1:
            classes[rng.randrange(colours)].append(tuple(rng.sample(range(q), r)))
        if rng.random() < 0.05:
            classes[rng.randrange(colours)] = []
        taken = set()
        for d in range(colours):
            kept = dict.fromkeys(a for a in classes[d] if a not in taken or rng.random() < 0.05)
            classes[d] = list(kept)
            taken.update(kept)
        family.append(ColouredMultidigraph.from_colour_classes(q, r, colours, classes))
    return family, Partition.from_lists(parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


CLAUSES = (
    "one colour once", "place block", "mixed indices", "occurs in colours", "not a coset",
    "not uniform", "not a product", "differs across", "unused",
)


def test_canonical_family_check_matches_reference():
    rng = random.Random(2718)
    outcomes = Counter()
    hosts = 0
    for _ in range(3000):
        family, part = _random_family(rng)
        got = _outcome(canonical_family_check, family, part)
        want = _outcome(oracles.ref_canonical_family_check, family, part)
        if isinstance(want, str):
            # the unit-colour message now names the pattern slot's kind
            assert got in (want, "pattern " + want)
            outcomes[next((c for c in CLAUSES if c in want), want)] += 1
            continue
        assert got == want
        outcomes["info"] += 1
        if family[0].r > 3 or hosts >= 150:
            continue
        hosts += 1
        # a host one or two vertices wider per part: a sum of copies or random arcs
        bounds = list(accumulate((len(p) + rng.randint(1, 2) for p in part.parts), initial=0))
        host_part = Partition.from_lists([range(a, b) for a, b in zip(bounds, bounds[1:])])
        n, r, colours = bounds[-1], family[0].r, family[0].colours
        if rng.random() < 0.5:
            classes = _copy_classes(rng, family, part, host_part, rng.randint(1, 3))
        else:
            classes = [_random_arcs(rng, n, r, 0.02) for _ in range(colours)]
        g = ColouredMultidigraph.from_colour_classes(n, r, colours, classes)
        args = (g, host_part, family, part)
        rep = master_divisible(*args)
        assert rep == oracles.ref_master_divisible(*args)
        outcomes[rep.failures[0].expected.split()[0] if rep.failures else "member"] += 1
    assert set(outcomes) == {"info", "member", "position", "span", *CLAUSES}, outcomes
