"""Core structures: degree machinery, blowups, serialization."""

import ast
import importlib
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

import decomp_lab
import oracles
from decomp_lab import (
    LabelledComplex,
    coloured_divisible,
    coloured_weight_system,
    count_decompositions,
    counting_bounds,
    find_decomposition,
    rainbow_family,
)
from decomp_lab import divisibility as dv
from decomp_lab.complexes import is_typical_plain
from decomp_lab.core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    blowup,
    dumps_canonical,
    host_degree_vector,
    index_set,
    injections,
    partite_density,
    pattern_degree_vector,
)
from decomp_lab.divisibility import h_balanced, hp_divisible, shift_regular
from decomp_lab.encodings import (
    resolvable_sts_instance,
    sudoku_pattern,
    triangle_host,
    triangle_pattern,
)
from decomp_lab.weights import LatticeChecker, coloured_edge_vector


def test_injections_are_in_lexicographic_order():
    for n in range(7):
        for i in range(n + 1):
            assert injections(i, n) == sorted(permutations(range(n), i))


def test_neighbourhood_complete_graph():
    k7 = Hypergraph.complete(7, 2)
    nb = k7.neighbourhood((0,))
    assert len(nb) == 6
    assert all(len(f) == 1 for f in nb)


def test_neighbourhood_three_uniform():
    assert Hypergraph.complete(5, 3).degree((0, 1)) == 3


def test_neighbourhood_empty_graph():
    g = Hypergraph.from_edges(4, 2, [])
    assert g.neighbourhood((0,)) == set()


def test_neighbourhood_of_empty_set_is_edge_set():
    g = Hypergraph.from_edges(5, 2, [(0, 1), (2, 3)])
    assert g.neighbourhood(()) == {(0, 1), (2, 3)}


def test_neighbourhood_range_check():
    with pytest.raises(ValueError):
        Hypergraph.complete(4, 2).neighbourhood((9,))


def test_degree_additivity_over_vertex_split():
    rng = random.Random(11)
    g = Hypergraph.from_edges(
        7, 3, {tuple(sorted(rng.sample(range(7), 3))) for _ in range(20)}
    )
    for e in [(0,), (1, 2), ()]:
        nb = g.neighbourhood(e)
        total = sum(1 for f in nb if 6 in f) + sum(1 for f in nb if 6 not in f)
        assert total == g.degree(e)


def test_index_vector_worked_values():
    # labels shifted to 0-based from the worked 1-based examples
    p = Partition.from_lists([[0, 1, 2], [3]])
    assert p.index_vector({0, 1, 3}) == (2, 1)
    assert p.index_vector(set()) == (0, 0)
    singles = Partition.singletons(3)
    assert singles.index_vector({0, 2}) == (1, 0, 1)


def test_index_vector_rejects_outside_vertices_and_ignores_repeats():
    p = Partition.from_lists([[0, 2], [1, 3]])
    assert p.index_vector([2, 2, 3, 0]) == (2, 1)
    assert p.index_vector(iter([1])) == (0, 1)
    for outside in ({4}, {0, -1}, {"0"}):
        with pytest.raises(ValueError):
            p.index_vector(outside)
    assert p.assignment() == {0: 0, 2: 0, 1: 1, 3: 1}
    p.assignment()[0] = 1  # a fresh dict: the memo stays intact
    assert p.index_vector({0}) == (1, 0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_lists([[0, 1], [1, 2]])


def test_blowup_triangle_counts():
    tri = Hypergraph.complete(3, 2)
    g, part = blowup(tri, [2, 2, 2])
    assert g.edge_count == 12
    assert part.sizes() == (2, 2, 2)
    for n in (1, 2, 3):
        g, _ = blowup(tri, [n, n, n])
        assert g.edge_count == 3 * n * n


def test_blowup_identity_and_sudoku_host():
    h = Hypergraph.from_edges(4, 3, [(0, 1, 2), (1, 2, 3)])
    g, _ = blowup(h, [1, 1, 1, 1])
    assert g.edges == h.edges
    sp, _ = sudoku_pattern()
    host, _ = blowup(sp, [2] * 6)
    assert host.edge_count == 4 * 2**4


def test_blowup_rejects_zero_size():
    with pytest.raises(ValueError):
        blowup(Hypergraph.complete(3, 2), [2, 0, 2])


def test_partite_degree_vector_trivial_partition_collapses():
    g = Hypergraph.complete(6, 2)
    p = Partition.trivial(6)
    h = Hypergraph.complete(3, 2)
    hp = Partition.trivial(3)
    I = index_set(h, hp)
    assert I == ((2,),)
    for e in [(), (0,), (1, 2)]:
        assert host_degree_vector(g, p, e, I) == (g.degree(e),)


def test_pattern_degree_vector_worked_values():
    k4 = Hypergraph.complete(4, 2)
    p = Partition.from_lists([[0, 1, 2], [3]])
    I = index_set(k4, p)
    assert I == ((2, 0), (1, 1))
    assert pattern_degree_vector(k4, p, (), I) == (3, 3)
    assert pattern_degree_vector(k4, p, (0,), I) == (2, 1)
    assert pattern_degree_vector(k4, p, (3,), I) == (0, 3)


def test_coloured_degree_vectors():
    mono = ColouredMultigraph.from_colour_classes(
        3, 2, 2, [[], [(0, 1), (0, 2), (1, 2)]]
    )
    assert mono.degree_vector(()) == (0, 3)
    rainbow = ColouredMultigraph.from_colour_classes(
        3, 2, 3, [[(0, 1)], [(0, 2)], [(1, 2)]]
    )
    assert rainbow.degree_vector((0,)) == (1, 1, 0)
    balanced = ColouredMultigraph.from_colour_classes(
        4, 2, 2, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]]
    )
    vec = balanced.degree_vector(())
    assert vec[0] == vec[1]


def test_multiplicity_weighted_degrees():
    g = ColouredMultigraph.from_dict(3, 2, 2, {(0, 1): (2, 1)})
    assert g.degree_vector((0,)) == (2, 1)
    assert g.size() == 3


def test_coloured_multigraph_rejects_repeated_edge():
    # a repeated edge made multiplicity() and size() disagree
    with pytest.raises(ValueError, match=r"edge \(0, 1\) given twice"):
        ColouredMultigraph(3, 2, 2, (((0, 1), (1, 0)), ((0, 1), (0, 2))))
    # distinct edges need not come sorted
    g = ColouredMultigraph(3, 2, 2, (((1, 2), (1, 0)), ((0, 1), (0, 2))))
    assert g.multiplicity((0, 1)) == (0, 2) and g.size() == 3


def test_coloured_multidigraph_rejects_repeated_arc():
    with pytest.raises(ValueError, match=r"arc \(0, 1\) given twice"):
        ColouredMultidigraph(3, 2, 2, (((0, 1), (1, 0)), ((0, 1), (0, 2))))
    # an arc and its reverse are distinct arcs
    g = ColouredMultidigraph(3, 2, 2, (((1, 0), (1, 0)), ((0, 1), (0, 2))))
    assert g.multiplicity((0, 1)) == (0, 2) and g.colour_size(0) == 1


def test_digraph_degree_vectors():
    kd4 = Digraph.complete(4, 2)
    assert kd4.degree_vector((0,)) == (3, 3)
    assert kd4.degree_vector(()) == (12,)
    single = Digraph.from_arcs(2, 2, [(0, 1)])
    # position vector for the target vertex: no out-arc, one in-arc
    assert single.degree_vector((1,)) == (0, 1)


def test_digraph_degree_symmetry():
    # composing the placement with a transposition permutes coordinates
    rng = random.Random(3)
    for _ in range(20):
        arcs = {
            tuple(rng.sample(range(5), 2)) for _ in range(rng.randint(1, 10))
        }
        g = Digraph.from_arcs(5, 2, arcs)
        psi = tuple(rng.sample(range(5), 2))
        swapped = (psi[1], psi[0])
        vec = g.degree_vector(psi)
        vec_swapped = g.degree_vector(swapped)
        pis = injections(2, 2)
        # (v sigma)_pi = v_{pi o sigma^-1}; sigma = the transposition
        perm = {pis.index((0, 1)): pis.index((1, 0)),
                pis.index((1, 0)): pis.index((0, 1))}
        assert vec_swapped == tuple(vec[perm[i]] for i in range(len(pis)))


def test_coloured_multidigraph_degree_vector():
    g = ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1)], [(1, 2), (2, 1)]]
    )
    # coordinates (d, pi) with pi in lex order [(0,1) then (1,0)]
    assert g.degree_vector((1,)) == (0, 1, 1, 1)


def test_simplicity_flag():
    assert Digraph.from_arcs(3, 2, [(0, 1), (1, 2)]).is_simple()
    assert not Digraph.from_arcs(3, 2, [(0, 1), (1, 0)]).is_simple()


def test_digraph_of_nonpositive_uniformity_is_refused():
    # as a hypergraph is: the empty arc () made K*_n with r = 0 one arc
    for r in (0, -1):
        with pytest.raises(ValueError):
            Digraph.from_arcs(3, r, [])
        with pytest.raises(ValueError):
            Digraph.complete(5, r)
        with pytest.raises(ValueError):
            Hypergraph.complete(5, r)


def test_plain_structures_refuse_bad_edges_and_arcs():
    for cls in (Hypergraph, Digraph):
        for bad in [(0,), (0, 0), (0, 3), (-1, 0)]:
            with pytest.raises(ValueError):
                cls(3, 2, frozenset({bad}))
    # a stored edge is sorted; an arc keeps its order
    with pytest.raises(ValueError):
        Hypergraph(3, 2, frozenset({(1, 0)}))
    assert Hypergraph.from_edges(3, 2, [[1, 0]]).edges == {(0, 1)}
    assert Digraph.from_arcs(3, 2, [[1, 0]]).arcs == {(1, 0)}


def test_plain_json_documents_are_pinned():
    h = Hypergraph.from_edges(4, 2, [(3, 2), (0, 1)])
    d = Digraph.from_arcs(4, 2, [(3, 2), (0, 1)])
    assert dumps_canonical(h.to_json_dict()) == '{"edges":[[0,1],[2,3]],"n":4,"r":2,"type":"hypergraph"}'
    assert dumps_canonical(d.to_json_dict()) == '{"arcs":[[0,1],[3,2]],"n":4,"r":2,"type":"digraph"}'
    # each reader takes only its own document type
    with pytest.raises(ValueError):
        Hypergraph.from_json_dict(d.to_json_dict())
    with pytest.raises(ValueError):
        Digraph.from_json_dict(h.to_json_dict())


def test_json_roundtrips_byte_stable():
    tri = Hypergraph.complete(3, 2)
    text = dumps_canonical(tri.to_json_dict())
    again = Hypergraph.from_json_dict(tri.from_json_dict(tri.to_json_dict()).to_json_dict())
    assert dumps_canonical(again.to_json_dict()) == text

    cm = ColouredMultigraph.from_colour_classes(4, 2, 2, [[(0, 1)], [(1, 2)]])
    t2 = dumps_canonical(cm.to_json_dict())
    assert dumps_canonical(
        ColouredMultigraph.from_json_dict(cm.to_json_dict()).to_json_dict()
    ) == t2

    dg = Digraph.from_arcs(4, 2, [(0, 1), (3, 2)])
    t3 = dumps_canonical(dg.to_json_dict())
    assert dumps_canonical(
        Digraph.from_json_dict(dg.to_json_dict()).to_json_dict()
    ) == t3

    part = Partition.from_lists([[0, 1], [2]])
    assert Partition.from_json_dict(part.to_json_dict()) == part


def test_density_is_exact():
    g = Hypergraph.complete(5, 2)
    assert g.density() == Fraction(1)
    assert Hypergraph.from_edges(5, 2, [(0, 1)]).density() == Fraction(1, 10)


# ---------------------------------------------------------------------------
# the incidence index against the per-query reference scans


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError:
        return ("ValueError", None)


def _queries(rng, n, level, ordered):
    """Every in-range query of the level, plus random ones that repeat a
    vertex or leave the range 0..n-1."""
    exact = permutations(range(n), level) if ordered else combinations(range(n), level)
    rough = [tuple(rng.randrange(-1, n + 1) for _ in range(level)) for _ in range(12)]
    return list(exact) + rough


def _random_partition(rng, n):
    t = rng.randint(1, 3)
    parts = [[] for _ in range(t)]
    for v in range(n):
        parts[rng.randrange(t)].append(v)
    return Partition.from_lists(parts)


def _random_vec(rng, colours):
    vec = [rng.randint(0, 2) for _ in range(colours)]
    vec[rng.randrange(colours)] += 1
    return vec


@pytest.mark.parametrize("seed", range(6))
def test_unordered_degree_queries_match_reference(seed):
    rng = random.Random(seed)
    for r in (1, 2, 3):
        n = rng.randint(r, 6)
        slots = list(combinations(range(n), r))
        g = Hypergraph.from_edges(n, r, [e for e in slots if rng.random() < 0.5])
        colours = rng.randint(1, 3)
        cg = ColouredMultigraph.from_dict(
            n, r, colours, {e: _random_vec(rng, colours) for e in slots if rng.random() < 0.5}
        )
        p = _random_partition(rng, n)
        realized = index_set(g, p)
        # drop realized indices, add one no edge can have
        index = [i for i in realized if rng.random() < 0.6] + [(r + 1,) + (0,) * (p.t - 1)]
        rng.shuffle(index)
        for level in range(r + 2):
            for e in _queries(rng, n, level, ordered=False):
                assert _outcome(g.neighbourhood, e) == _outcome(oracles.ref_neighbourhood, g, e)
                assert _outcome(g.degree, e) == _outcome(oracles.ref_degree, g, e)
                assert cg.degree_vector(e) == oracles.ref_coloured_degree_vector(cg, e)
                for idx in (index, realized):
                    assert pattern_degree_vector(g, p, e, idx) == (
                        oracles.ref_pattern_degree_vector(g, p, e, idx)
                    )
                    assert host_degree_vector(g, p, e, idx) == (
                        oracles.ref_pattern_degree_vector(g, p, e, idx)
                    )
        for i in index:
            assert partite_density(g, p, i) == oracles.ref_partite_density(g, p, i)


@pytest.mark.parametrize("seed", range(6))
def test_ordered_degree_queries_match_reference(seed):
    rng = random.Random(100 + seed)
    for r in (1, 2, 3):
        n = rng.randint(r, 5)
        slots = list(permutations(range(n), r))
        g = Digraph.from_arcs(n, r, [a for a in slots if rng.random() < 0.4])
        colours = rng.randint(1, 3)
        cg = ColouredMultidigraph.from_dict(
            n, r, colours, {a: _random_vec(rng, colours) for a in slots if rng.random() < 0.4}
        )
        for level in range(r + 2):
            for psi in _queries(rng, n, level, ordered=True):
                assert g.degree_vector(psi) == oracles.ref_digraph_degree_vector(g, psi)
                assert cg.degree_vector(psi) == (
                    oracles.ref_coloured_digraph_degree_vector(cg, psi)
                )
        # an ordered query longer than r has no coordinates
        assert g.degree_vector(range(r + 1)) == () == cg.degree_vector(range(r + 1))


def test_shift_regular_matches_reference():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        slots = list(permutations(range(n), r))
        if rng.random() < 0.5:
            arcs = [a for a in slots if rng.random() < 0.5]
        else:  # every ordering of some image sets: shift regular
            images = [s for s in combinations(range(n), r) if rng.random() < 0.5]
            arcs = [a for s in images for a in permutations(s)]
        g = Digraph.from_arcs(n, r, arcs)
        verdict = shift_regular(g)
        assert verdict == oracles.ref_shift_regular(g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_h_balanced_and_class_densities_match_reference():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(30):
        r = rng.randint(2, 3)
        q = rng.randint(r, 4)
        edges = [e for e in combinations(range(q), r) if rng.random() < 0.7]
        h = Hypergraph.from_edges(q, r, edges or [tuple(range(r))])
        host, part = blowup(h, [rng.randint(1, 2) for _ in range(q)])
        kept = [e for e in host.sorted_edges() if rng.random() < 0.9]
        g = Hypergraph.from_edges(host.n, r, kept)
        verdict = h_balanced(g, part, h)
        assert verdict == oracles.ref_h_balanced(g, part, h)
        verdicts.add(verdict)
        classes = oracles.ref_class_densities(g, part, h)
        for f in h.edges:
            indicator = [int(x in f) for x in range(q)]
            assert partite_density(g, part, indicator) == classes[f]
    assert verdicts == {True, False}


def test_bench_trace_targets_resolve(monkeypatch):
    """bench/tracing.py patches these names from outside; each must exist."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    for owner, attr, name, _count in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_bench_self_test_passes():
    """Every op kind of the three bench workloads accepts its real answer
    and rejects a wrong one, so a change to a bench-visible answer fails
    here and not only in a bench run."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--self-test"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


def test_slots_match_reference():
    rng = random.Random(1729)
    for _ in range(20):
        n, r, colours = rng.randint(3, 6), rng.randint(2, 3), rng.randint(1, 3)
        edges = [e for e in combinations(range(n), r) if rng.random() < 0.5]
        arcs = [a for a in permutations(range(n), r) if rng.random() < 0.3]
        structures = [
            Hypergraph.from_edges(n, r, edges),
            Digraph.from_arcs(n, r, arcs),
            ColouredMultigraph.from_colour_classes(
                n, r, colours, [rng.sample(edges, len(edges) // 2) for _ in range(colours)]
            ),
            ColouredMultidigraph.from_colour_classes(
                n, r, colours, [rng.sample(arcs, len(arcs) // 2) for _ in range(colours)]
            ),
        ]
        for g in structures:
            assert g.slots() == oracles._ref_slots(g, "host")


def test_hp_divisible_asks_both_degree_vectors(monkeypatch):
    calls = {"host_degree_vector": 0, "pattern_degree_vector": 0}
    for name in calls:
        fn = getattr(dv, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(dv, name, counted)
    dv._pattern_span.cache_clear()  # an earlier check may hold this pattern's lattice
    inst = resolvable_sts_instance(9)
    assert hp_divisible(inst.host, inst.host_partition, inst.pattern, inst.pattern_partition)
    assert all(calls.values()), calls


def test_module_state_stays_bounded():
    """Every module-level functools cache has a maxsize, and no module-level
    dict, list, set or bytearray grows or shrinks across a find, an
    orbit-level count, the divisibility, lattice and typicality checkers and
    counting bounds, so the README's pure and thread-safe claim holds."""
    modules = [decomp_lab] + [
        importlib.import_module(f"decomp_lab.{info.name}")
        for info in pkgutil.iter_modules(decomp_lab.__path__)
    ]
    state = {}
    for module in modules:
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):  # an lru_cache
                assert value.cache_parameters()["maxsize"] is not None, (module.__name__, name)
            elif not name.startswith("__") and isinstance(value, (dict, list, set, bytearray)):
                state[module.__name__, name] = value
    assert len(modules) > 10 and state

    def sizes():
        return {where: len(value) for where, value in state.items()}

    before = sizes()
    triangle = Hypergraph.complete(3, 2)
    assert find_decomposition(Hypergraph.complete(9, 2), triangle).found
    host, part = triangle_host(4)
    tri, tri_part = triangle_pattern()
    assert count_decompositions(host, tri, (tri_part, part)) == 576
    family = rainbow_family(3)
    g = ColouredMultigraph.from_colour_classes(3, 2, 3, [[(0, 1)], [(1, 2)], [(0, 2)]])
    assert coloured_divisible(g, family)
    phi = LabelledComplex.complete_complex(3, 3)
    checker = LatticeChecker(coloured_weight_system(list(family)), phi)
    assert checker.check(coloured_edge_vector(g, phi)).member
    assert is_typical_plain(Hypergraph.complete(10, 2), Fraction(1, 10), 1).typical
    assert counting_bounds(triangle, 8, seed=1).o_terms_dropped
    assert sizes() == before


def test_runtime_imports_only_the_standard_library():
    # the package declares dependencies = []
    src = Path(decomp_lab.__file__).parent
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "json" in imported
    assert imported - set(sys.stdlib_module_names) <= {"decomp_lab"}
