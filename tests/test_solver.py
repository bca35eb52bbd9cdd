"""Exact-cover solver: search, counting, verification, integral oracle."""

import logging
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import oracles
from decomp_lab import solver as sv
from decomp_lab.cli import main
from decomp_lab.core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    blowup,
)
from decomp_lab.divisibility import digraph_divisible
from decomp_lab.encodings import (
    large_set_instance,
    rainbow_family,
    resolvable_sts_instance,
    sudoku_host,
    sudoku_pattern,
    tight_cycle,
    triangle_host,
    triangle_pattern,
)
from decomp_lab.solver import (
    BudgetExceeded,
    Certificate,
    CopyTable,
    TimeBudgetExceeded,
    count_decompositions,
    enumerate_copies,
    find_decomposition,
    integral_decomposition_exists,
    verify_certificate,
)

TRIANGLE = Hypergraph.complete(3, 2)


def test_enumerate_copies_counts():
    table = enumerate_copies(Hypergraph.complete(7, 2), TRIANGLE)
    assert len(table.footprints) == 35
    assert all(m == 6 for m in table.multiplicities)  # labelled embeddings
    host, hpart = sudoku_host(2)
    sp, spart = sudoku_pattern()
    table2 = enumerate_copies(host, sp, (spart, hpart))
    assert len(table2.footprints) == 64
    kd3 = Digraph.complete(3, 2)
    table3 = enumerate_copies(kd3, tight_cycle(3, 2))
    assert len(table3.footprints) == 2  # the two orientations


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_copies(Hypergraph.complete(9, 2), TRIANGLE, budget=10)


def test_find_fano_plane():
    res = find_decomposition(Hypergraph.complete(7, 2), TRIANGLE)
    assert res.found
    assert len(res.certificate.embeddings) == 7
    assert verify_certificate(Hypergraph.complete(7, 2), TRIANGLE, res.certificate).valid


def test_proven_none_is_exhaustive():
    res = find_decomposition(Hypergraph.complete(5, 2), TRIANGLE)
    assert res.status == "none"


def test_determinism():
    a = find_decomposition(Hypergraph.complete(9, 2), TRIANGLE)
    b = find_decomposition(Hypergraph.complete(9, 2), TRIANGLE)
    assert a.certificate.embeddings == b.certificate.embeddings
    assert a.nodes == b.nodes


def test_timeout_and_resume_reproduce_uninterrupted_run():
    host = Hypergraph.complete(13, 2)
    full = find_decomposition(host, TRIANGLE)
    assert full.found
    partial = find_decomposition(host, TRIANGLE, node_budget=10)
    assert partial.status == "timeout"
    assert partial.frontier is not None
    resumed = find_decomposition(host, TRIANGLE, resume=partial.frontier)
    assert resumed.found
    assert resumed.certificate.embeddings == full.certificate.embeddings


def test_count_consistency_with_find():
    for n in (5, 6, 7):
        host = Hypergraph.complete(n, 2)
        count = count_decompositions(host, TRIANGLE)
        found = find_decomposition(host, TRIANGLE).found
        assert (count >= 1) == found


def test_count_worked_values():
    assert count_decompositions(Hypergraph.complete(7, 2), TRIANGLE) == 30
    host, hpart = triangle_host(3)
    tri, tpart = triangle_pattern()
    assert count_decompositions(host, tri, (tpart, hpart)) == 12
    kd3 = Digraph.complete(3, 2)
    res = find_decomposition(kd3, tight_cycle(3, 2))
    assert res.found and len(res.certificate.embeddings) == 2


def test_verify_rejects_missing_and_duplicated_copies():
    host = Hypergraph.complete(7, 2)
    res = find_decomposition(host, TRIANGLE)
    cert = res.certificate
    missing = Certificate(
        footprint_indices=[], embeddings=cert.embeddings[:-1]
    )
    rep = verify_certificate(host, TRIANGLE, missing)
    assert not rep.valid and rep.deficit
    doubled = Certificate(
        footprint_indices=[], embeddings=cert.embeddings + [cert.embeddings[0]]
    )
    rep2 = verify_certificate(host, TRIANGLE, doubled)
    assert not rep2.valid and rep2.surplus


def test_verify_rejects_pattern_indices_outside_the_pattern_list(monkeypatch):
    host = Hypergraph.complete(7, 2)
    cert = find_decomposition(host, TRIANGLE).certificate
    builds = []
    real = sv._pattern_atoms
    monkeypatch.setattr(sv, "_pattern_atoms", lambda p: builds.append(p) or real(p))
    assert verify_certificate(host, [TRIANGLE, host], cert).valid
    assert builds == [TRIANGLE]  # once per pattern, not once per copy
    (_, images), rest = cert.embeddings[0], cert.embeddings[1:]
    for bad in (1, -1, 7, True, "0", 0.0, None):
        broken = Certificate(footprint_indices=[], embeddings=[(bad, images)] + rest)
        rep = verify_certificate(host, TRIANGLE, broken)
        assert not rep.valid and rep.deficit == [("pattern", bad)]


def test_verify_checks_partite_constraint():
    host, hpart = triangle_host(2)
    tri, tpart = triangle_pattern()
    res = find_decomposition(host, tri, (tpart, hpart))
    assert res.found
    # swap two images: breaks the part assignment
    p, images = res.certificate.embeddings[0]
    broken = Certificate(
        footprint_indices=[],
        embeddings=[(p, (images[1], images[0], images[2]))]
        + res.certificate.embeddings[1:],
    )
    rep = verify_certificate(host, tri, broken, (tpart, hpart))
    assert not rep.valid


def test_multiplicity_host_decomposition():
    doubled = ColouredMultigraph.from_dict(
        6, 2, 1, {e: (2,) for e in Hypergraph.complete(6, 2).sorted_edges()}
    )
    ctri = ColouredMultigraph.from_dict(
        3, 2, 1, {e: (1,) for e in TRIANGLE.sorted_edges()}
    )
    res = find_decomposition(doubled, ctri)
    assert res.found
    assert len(res.certificate.embeddings) == 10
    assert verify_certificate(doubled, ctri, res.certificate).valid
    # footprints in a decomposition are distinct triangles
    fps = {tuple(sorted(images)) for _, images in res.certificate.embeddings}
    assert len(fps) == 10


def test_integral_examples():
    ok5, _ = integral_decomposition_exists(Hypergraph.complete(5, 2), TRIANGLE)
    assert not ok5
    ok7, wit7 = integral_decomposition_exists(Hypergraph.complete(7, 2), TRIANGLE)
    assert ok7
    table = enumerate_copies(Hypergraph.complete(7, 2), TRIANGLE)
    cover = [0] * len(table.atoms)
    for idx, w in wit7:
        for c in table.footprints[idx]:
            cover[c] += w
    assert tuple(cover) == table.capacities
    doubled = ColouredMultigraph.from_dict(
        6, 2, 1, {e: (2,) for e in Hypergraph.complete(6, 2).sorted_edges()}
    )
    ctri = ColouredMultigraph.from_dict(
        3, 2, 1, {e: (1,) for e in TRIANGLE.sorted_edges()}
    )
    ok6, _ = integral_decomposition_exists(doubled, ctri)
    assert ok6


def test_find_implies_integral_on_random_subgraphs():
    rng = random.Random(13)
    edges = Hypergraph.complete(6, 2).sorted_edges()
    for _ in range(30):
        sub = [e for e in edges if rng.random() < 0.6]
        g = Hypergraph.from_edges(6, 2, sub)
        res = find_decomposition(g, TRIANGLE, timeout=10)
        assert res.status in ("found", "none")
        if res.found:
            ok, _ = integral_decomposition_exists(g, TRIANGLE)
            assert ok
            assert verify_certificate(g, TRIANGLE, res.certificate).valid


def test_integral_oracle_matches_reference():
    # same verdicts as the earlier incremental-lattice oracle; witnesses may
    # differ (integer witnesses are not unique) but each must rebuild the
    # capacities from its footprints
    rng = random.Random(1113)
    edges = Hypergraph.complete(6, 2).sorted_edges()
    cases = list(oracles.criterion_12_instances())
    for _ in range(30):
        sub = [e for e in edges if rng.random() < 0.6]
        cases.append((Hypergraph.from_edges(6, 2, sub), TRIANGLE, None))
    verdicts = set()
    for host, patterns, partition in cases:
        table = enumerate_copies(host, patterns, partition)
        ok, witness = integral_decomposition_exists(host, patterns, partition, table)
        ref_ok, _ = oracles.ref_integral_decomposition_exists(
            host, patterns, partition, table
        )
        assert ok == ref_ok
        verdicts.add(ok)
        if not ok:
            assert witness is None
            continue
        assert [i for i, _ in witness] == sorted({i for i, _ in witness})
        assert all(w for _, w in witness)
        cover = [0] * len(table.atoms)
        for idx, w in witness:
            for c in table.footprints[idx]:
                cover[c] += w
        assert tuple(cover) == table.capacities
    assert verdicts == {True, False}


def test_tight_4_cycles_in_the_complete_3_digraph_on_5_vertices():
    # a desk-scale gap between divisibility and the decomposition lattice,
    # pinned against brute-force oracles as criterion 07 pins Mendelsohn's n = 6
    host, cycle = Digraph.complete(5, 3), tight_cycle(4, 3)
    assert digraph_divisible(host, cycle).verdict
    ref = oracles.ref_enumerate_copies(host, cycle)
    assert len(ref.atoms) == 60 and set(ref.capacities) == {1}
    assert len(ref.footprints) == 30
    rows = [frozenset(fp) for fp in ref.footprints]
    assert oracles._exact_cover_count(rows, set(range(len(ref.atoms)))) == 0
    assert oracles.ref_integral_decomposition_exists(host, cycle, table=ref) == (False, None)
    assert integral_decomposition_exists(host, cycle) == (False, None)
    res = find_decomposition(host, cycle)
    assert (res.status, res.nodes) == ("none", 5)
    specs = ["--host", "kdn:3:5", "--pattern", "cycle:4:3"]
    assert main(["check", "--kind", "digraph", *specs]) == 0
    assert main(["solve", *specs]) == 1


def test_certificate_json_roundtrip():
    res = find_decomposition(Hypergraph.complete(7, 2), TRIANGLE)
    doc = res.certificate.to_json_dict()
    again = Certificate.from_json_dict(doc)
    assert again.embeddings == res.certificate.embeddings


# ---------------------------------------------------------------------------
# the bitset engine against the earlier set-and-trail engine


def _table(footprints, capacities) -> CopyTable:
    return CopyTable(
        atoms=list(range(len(capacities))),
        capacities=list(capacities),
        footprints=footprints,
        embeddings=[(0, fp) for fp in footprints],
        multiplicities=[1] * len(footprints),
    )


def _random_table(rng, ncols: int, nrows: int) -> CopyTable:
    """Capacities 1-3; two hot columns shared by many rows; half the time
    the capacities are those of a planted set of rows, so covers exist."""
    hot = rng.sample(range(ncols), 2)
    fps = set()
    for _ in range(nrows):
        cols = set(rng.sample(range(ncols), rng.randint(1, min(3, ncols))))
        if rng.random() < 0.6:
            cols.add(rng.choice(hot))
        fps.add(tuple(sorted(cols)))
    fps = sorted(fps)
    caps = [rng.randint(1, 3) for _ in range(ncols)]
    if rng.random() < 0.5:
        planted = [0] * ncols
        for fp in rng.sample(fps, rng.randint(1, len(fps))):
            for c in fp:
                planted[c] += 1
        caps = [k if 1 <= k <= 3 else cap for k, cap in zip(planted, caps)]
    return _table(fps, caps)


# How the engine picks its column rule, once at the root for the whole walk:
# its own choice (mask scans on the small tables, counts on K16), column
# counts, counts or mask scans by the table's shape at a lower threshold
# than the default (counts on most tables here, scans on about one in five),
# mask scans.
KILL_COSTS = (None, 0, 1600, 10**30)


def _run(engine, table, node_budget=None, replay=None, every=False, kill_cost=None):
    """(outcome, solutions in the order reported, nodes) of one search, which
    stops at the first solution unless ``every``; the outcome is True/False,
    or ("timeout", frontier)."""
    search = engine(table)
    search.node_budget = node_budget
    if kill_cost is not None:
        search.kill_cost = kill_cost
    solutions = []
    if engine is oracles.RefCoverSearch:

        def on_solution(sel):
            solutions.append(sel)
            return not every

        try:
            outcome = search.run(on_solution, replay)
        except oracles.RefTimeout as stop:
            outcome = ("timeout", stop.frontier)
        return outcome, solutions, search.nodes
    for sel in search.solutions(replay):
        solutions.append(sel)
        if not every:
            break
    if search.frontier is not None:
        return ("timeout", search.frontier), solutions, search.nodes
    return bool(solutions) and not every, solutions, search.nodes


def _assert_same_search(table, budgets, resume_budget=None):
    """Counts and first solutions agree under each node budget (None for
    none), and so do the resumes from every frontier, whichever way the
    engine picks its columns."""
    ref, new = oracles.RefCoverSearch, sv._CoverSearch
    for count in (True, False):
        for budget in budgets:
            cut = _run(ref, table, budget, None, count)
            for kill_cost in KILL_COSTS:
                assert _run(new, table, budget, None, count, kill_cost) == cut
            if cut[0] is True or cut[0] is False:
                continue
            frontier = cut[0][1]
            resumed = _run(ref, table, resume_budget, frontier, count)
            for kill_cost in KILL_COSTS:
                assert _run(new, table, resume_budget, frontier, count, kill_cost) == resumed


def test_engine_matches_reference_on_random_tables():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        table = _random_table(rng, rng.randint(3, 8), rng.randint(3, 30))
        nodes = _run(oracles.RefCoverSearch, table, every=True)[2]
        budgets = [None] + rng.sample(range(1, nodes + 1), min(3, nodes))
        _assert_same_search(table, budgets)
        outcomes.add(_run(sv._CoverSearch, table)[0])
    assert outcomes == {True, False}  # both verdicts occur


def test_engine_matches_reference_when_rows_are_renumbered():
    # more than 64 rows, so alive sets thin out enough to be renumbered
    rng = random.Random(7)
    for _ in range(6):
        table = _random_table(rng, rng.randint(10, 16), rng.randint(120, 300))
        _assert_same_search(table, (50, 400, 2000), 2000)
    sts9 = enumerate_copies(Hypergraph.complete(9, 2), TRIANGLE)
    _assert_same_search(sts9, (None, 500))
    k12 = enumerate_copies(Hypergraph.complete(12, 3), Hypergraph.complete(4, 3))
    _assert_same_search(k12, (300, 2000), 2000)


def test_engine_matches_reference_on_the_bench_k16_find():
    # the bench's budgeted K_16^(3) by K_4^(3) find, where column counts are
    # kept from the root, and the resume from its frontier
    k16 = enumerate_copies(Hypergraph.complete(16, 3), Hypergraph.complete(4, 3))
    _assert_same_search(k16, (3000,), 3000)


def test_engine_matches_reference_on_the_bench_res21_find(monkeypatch):
    # the bench's budgeted resolvable n = 21 find, whose 13 300-row table
    # scans masks from the root, renumbers its rows and reads them through
    # the long-int path of _bits; and the resume from its frontier
    res21 = resolvable_sts_instance(21)
    partition = (res21.pattern_partition, res21.host_partition)
    table = enumerate_copies(res21.host, res21.pattern, partition)
    renumber, renumbered = sv._renumber, []

    def counted(alive, *args):
        renumbered.append(alive.bit_length())
        return renumber(alive, *args)

    monkeypatch.setattr(sv, "_renumber", counted)
    res = find_decomposition(res21.host, res21.pattern, partition, node_budget=2000, table=table)
    assert res.status == "timeout" and renumbered and max(renumbered) > 4096
    assert not {"_planes", "_row_keys"} & set(vars(table))
    _assert_same_search(table, (2000,), 2000)


def test_scan_past_a_forced_column_looks_only_for_a_dead_one():
    # mask scans stop counting rows at the first forced column (one alive
    # row); a later dead column still wins, and a later forced one does not
    ref, new = oracles.RefCoverSearch, sv._CoverSearch
    # column 0 is forced, column 1 dead: the root is a dead end
    dead_after_forced = _table([(0, 2), (2,)], [1, 1, 1])
    # columns 1 and 3 are forced: column 1 is taken first, then column 3
    forced_twice = _table([(0,), (0, 1), (2,), (2, 3)], [1, 1, 1, 1])
    for table, expected in (
        (dead_after_forced, (False, [], 1)),
        (forced_twice, (False, [[1, 3]], 3)),
    ):
        got = _run(new, table, every=True, kill_cost=10**30)
        assert got == _run(ref, table, every=True) == expected


def test_ladder_node_counts():
    """Node counts of the benchmark ladder under the branching rule: fewest
    alive rows, lowest column on ties, rows in ascending order."""
    sts9 = enumerate_copies(Hypergraph.complete(9, 2), TRIANGLE)
    assert _run(sv._CoverSearch, sts9, every=True)[2] == 6553
    res9 = resolvable_sts_instance(9)
    table = enumerate_copies(
        res9.host, res9.pattern, (res9.pattern_partition, res9.host_partition)
    )
    outcome, solutions, nodes = _run(sv._CoverSearch, table, every=True)
    assert (len(solutions), nodes) == (20160, 144229)
    for host, pattern, nodes in [
        (Hypergraph.complete(6, 2), TRIANGLE, 13),
        (Hypergraph.complete(8, 2), TRIANGLE, 79),
        (Digraph.complete(6, 2), tight_cycle(3, 2), 93),
    ]:
        res = find_decomposition(host, pattern)
        assert (res.status, res.nodes) == ("none", nodes)


# ---------------------------------------------------------------------------
# one time budget through copy enumeration and search


def test_time_budget_covers_copy_enumeration():
    k4 = Hypergraph.complete(4, 3)
    with pytest.raises(TimeBudgetExceeded):  # checked every 1024 nodes and at the end
        enumerate_copies(Hypergraph.complete(12, 3), k4, deadline=time.monotonic() - 1)
    host = Hypergraph.complete(24, 3)  # seconds of enumeration unbounded
    t0 = time.monotonic()
    res = find_decomposition(host, k4, timeout=0.01)
    assert (res.status, res.frontier, res.nodes) == ("timeout", [], 0)
    with pytest.raises(BudgetExceeded):
        count_decompositions(host, k4, timeout=0.01)
    assert time.monotonic() - t0 < 2.0
    # an empty frontier resumes from the start
    full = find_decomposition(Hypergraph.complete(9, 2), TRIANGLE)
    again = find_decomposition(Hypergraph.complete(9, 2), TRIANGLE, resume=[])
    assert again.certificate.embeddings == full.certificate.embeddings
    assert again.nodes == full.nodes


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one search level per selected copy, deeper than Python's default
    # recursion limit of 1000
    n = 1500
    table = _table([(c,) for c in range(n)], [1] * n)
    full = find_decomposition(None, None, table=table)
    assert full.found and full.certificate.footprint_indices == list(range(n))
    assert count_decompositions(None, None, table=table) == 1
    cut = find_decomposition(None, None, table=table, node_budget=1200)
    assert cut.status == "timeout" and len(cut.frontier) == 1200
    resumed = find_decomposition(None, None, table=table, resume=cut.frontier)
    assert resumed.certificate == full.certificate
    # the deadline is checked every 256 nodes, and stops both the same way
    late = find_decomposition(None, None, table=table, timeout=0)
    assert (late.status, late.nodes, len(late.frontier)) == ("timeout", 256, 255)
    with pytest.raises(TimeBudgetExceeded):
        count_decompositions(None, None, table=table, timeout=0)


def test_verify_partite_deficit_names_the_first_misplaced_vertex():
    host, hpart = triangle_host(2)
    tri, tpart = triangle_pattern()
    cert = find_decomposition(host, tri, (tpart, hpart)).certificate
    p, images = cert.embeddings[-1]
    broken = Certificate(
        footprint_indices=[],
        embeddings=cert.embeddings[:-1] + [(p, (images[1], images[0], images[2]))],
    )
    rep = verify_certificate(host, tri, broken, (tpart, hpart))
    assert not rep.valid
    assert rep.deficit == [("partite", (0, images[1]))]
    assert verify_certificate(host, tri, cert, (tpart, hpart)).valid


# ---------------------------------------------------------------------------
# copy enumeration: one embedding per automorphism orbit, the same tables


def _random_structure(rng, kind: str, n: int, r: int, p: float, colours: int = 3, one_colour=False):
    slots = list((combinations if kind in ("plain", "coloured") else permutations)(range(n), r))
    chosen = [s for s in slots if rng.random() < p]
    if kind == "plain":
        return Hypergraph.from_edges(n, r, chosen)
    if kind == "arcs":
        return Digraph.from_arcs(n, r, chosen)
    mult = {}
    for s in chosen:
        vec = [0] * colours
        if one_colour:
            vec[rng.randrange(colours)] = 1
        else:
            vec = [rng.randrange(3) for _ in range(colours)]
        mult[s] = vec
    cls = ColouredMultigraph if kind == "coloured" else ColouredMultidigraph
    return cls.from_dict(n, r, colours, mult)


def _random_partition(rng, n: int, t: int) -> Partition:
    """t parts in a random order, each listed unsorted; a part may be empty."""
    parts = [[] for _ in range(t)]
    for v in rng.sample(range(n), n):
        parts[rng.randrange(t)].append(v)
    return Partition(tuple(tuple(part) for part in parts))


def _assert_same_table(host, patterns, partition=None):
    table = enumerate_copies(host, patterns, partition)
    assert table == oracles.ref_enumerate_copies(host, patterns, partition)
    return table


def test_enumeration_matches_reference_on_the_ladder():
    k3 = Hypergraph.complete(3, 2)
    host, hpart = blowup(k3, [40] * 3)
    _assert_same_table(host, k3, (Partition.singletons(3), hpart))
    _assert_same_table(Hypergraph.complete(38, 2), k3)
    _assert_same_table(Hypergraph.complete(16, 3), Hypergraph.complete(4, 3))
    _assert_same_table(Hypergraph.complete(12, 3), Hypergraph.complete(4, 3))
    for inst in (resolvable_sts_instance(9), resolvable_sts_instance(21), large_set_instance(7)):
        _assert_same_table(inst.host, inst.pattern, (inst.pattern_partition, inst.host_partition))
    for box in (2, 3):
        host, hpart = sudoku_host(box)
        sp, spart = sudoku_pattern()
        _assert_same_table(host, sp, (spart, hpart))
    for n in (6, 8):
        _assert_same_table(Digraph.complete(n, 2), tight_cycle(3, 2))
    rng = random.Random(10)
    rainbow_host = _random_structure(rng, "coloured", 10, 2, 1.0, colours=4)
    _assert_same_table(rainbow_host, rainbow_family(4))


def test_enumeration_of_k30_3_by_k4_3_in_closed_form():
    # every 4-set is one copy, with its sorted vertices as the first embedding
    table = enumerate_copies(Hypergraph.complete(30, 3), Hypergraph.complete(4, 3))
    index = {a: i for i, a in enumerate(table.atoms)}
    quads = list(combinations(range(30), 4))
    fps = sorted(tuple(sorted(index[t] for t in combinations(quad, 3))) for quad in quads)
    rep = {tuple(sorted(index[t] for t in combinations(quad, 3))): quad for quad in quads}
    assert table.footprints == tuple(fps)
    assert table.embeddings == tuple((0, rep[fp]) for fp in fps)
    assert table.multiplicities == (24,) * len(quads)


def test_enumeration_matches_reference_on_random_hosts():
    rng = random.Random(20261019)
    shapes = set()
    for _ in range(160):
        kind = rng.choice(("plain", "arcs", "coloured", "coloured-arcs"))
        r = rng.choice((2, 3)) if kind == "plain" else 2
        n, q = rng.randint(r + 1, 7), rng.randint(r, min(5, r + 2))
        host = _random_structure(rng, kind, n, r, rng.choice((0.6, 1.0)))
        patterns = [
            _random_structure(rng, kind, q, r, rng.choice((0.5, 1.0)), one_colour=True)
            for _ in range(rng.randint(1, 3))
        ]
        partition = None
        if rng.random() < 0.5:
            t = rng.randint(1, q)
            partition = (_random_partition(rng, q, t), _random_partition(rng, n, t))
        table = _assert_same_table(host, patterns, partition)
        shapes.add((kind, partition is None, bool(table.footprints)))
    assert len(shapes) == 16  # every kind, with and without partitions, hits and misses


def test_enumeration_matches_reference_on_repeats_isolated_vertices_and_unsorted_parts():
    k5 = Hypergraph.complete(5, 2)
    k3 = Hypergraph.complete(3, 2)
    _assert_same_table(k5, [k3, k3])
    _assert_same_table(Hypergraph.complete(6, 2), Hypergraph.from_edges(4, 2, [(0, 1)]))
    _assert_same_table(k5, Hypergraph.from_edges(3, 2, []))
    host, hpart = blowup(k3, [3] * 3)
    unsorted = Partition(tuple(tuple(reversed(part)) for part in hpart.parts))
    _assert_same_table(host, k3, (Partition.singletons(3), unsorted))
    res = resolvable_sts_instance(9)
    res_part = Partition(tuple(tuple(reversed(part)) for part in res.host_partition.parts))
    _assert_same_table(res.host, res.pattern, (res.pattern_partition, res_part))


def test_multiplicity_is_the_automorphism_count():
    for q in (3, 4, 5):
        table = enumerate_copies(Hypergraph.complete(7, 2), Hypergraph.complete(q, 2))
        assert set(table.multiplicities) == {math.factorial(q)}
    table = enumerate_copies(Digraph.complete(5, 2), tight_cycle(3, 2))
    assert set(table.multiplicities) == {3}
    rainbow = rainbow_family(3)[0]
    host = ColouredMultigraph.from_dict(5, 2, 3, {e: (1, 1, 1) for e in combinations(range(5), 2)})
    assert set(enumerate_copies(host, rainbow).multiplicities) == {1}
    res = resolvable_sts_instance(9)
    table = enumerate_copies(res.host, res.pattern, (res.pattern_partition, res.host_partition))
    assert set(table.multiplicities) == {6}
    host, hpart = sudoku_host(2)
    sp, spart = sudoku_pattern()
    assert set(enumerate_copies(host, sp, (spart, hpart)).multiplicities) == {1}


def test_automorphism_orbits_of_k8_are_found_without_listing_the_group():
    t0 = time.perf_counter()
    _, multiplicity = sv._plan(Hypergraph.complete(8, 2), None, [range(8)])
    assert time.perf_counter() - t0 < 0.1
    assert multiplicity == math.factorial(8)


def test_enumeration_budget_counts_reduced_walk_nodes():
    # K_9 by triangles: 9 + C(9, 2) + C(9, 3) host vertices tried, where
    # placing every labelled embedding tried 9 + 9 * 8 + 9 * 8 * 7
    k9 = Hypergraph.complete(9, 2)
    assert len(enumerate_copies(k9, TRIANGLE, budget=129).footprints) == 84
    with pytest.raises(BudgetExceeded):
        enumerate_copies(k9, TRIANGLE, budget=128)


def test_enumeration_budget_counts_candidates_that_close_no_host_slot():
    # an isolated vertex closes no edge, yet every vertex tried after it
    # costs a node: K_6 plus an isolated vertex by triangles, the isolated
    # vertex last or first
    for isolated, least in ((6, 63), (0, 48)):
        k6 = [e for e in combinations(range(7), 2) if isolated not in e]
        host = Hypergraph.from_edges(7, 2, k6)
        assert len(enumerate_copies(host, TRIANGLE, budget=least).footprints) == 20
        with pytest.raises(BudgetExceeded):
            enumerate_copies(host, TRIANGLE, budget=least - 1)


def test_pattern_arcs_go_only_onto_host_arcs():
    # slot kinds must agree: no copies across edges and arcs, or across
    # coloured and uncoloured slots
    assert not enumerate_copies(Digraph.complete(4, 2), TRIANGLE).footprints
    assert not enumerate_copies(Hypergraph.complete(4, 2), tight_cycle(3, 2)).footprints
    rainbow = rainbow_family(3)[0]
    assert not enumerate_copies(Hypergraph.complete(4, 2), rainbow).footprints
    host = ColouredMultigraph.from_dict(4, 2, 1, {e: (1,) for e in combinations(range(4), 2)})
    assert not enumerate_copies(host, TRIANGLE).footprints


def test_host_partition_with_too_few_parts_is_rejected():
    two_parts = Partition.from_lists([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="fewer parts"):
        enumerate_copies(Hypergraph.complete(4, 2), TRIANGLE, (Partition.singletons(3), two_parts))


def test_pattern_with_two_equal_slots_is_rejected():
    # the structure itself refuses a repeated edge, so no such pattern
    # reaches copy enumeration
    with pytest.raises(ValueError, match="twice"):
        ColouredMultigraph(3, 2, 1, (((0, 1), (1,)), ((0, 1), (1,))))


def test_verify_rejects_weights_of_another_length():
    host = Hypergraph.complete(7, 2)
    cert = find_decomposition(host, TRIANGLE).certificate
    ones = [1] * len(cert.embeddings)
    assert verify_certificate(host, TRIANGLE, replace(cert, weights=ones)).valid
    # a trailing copy without a weight is not dropped from the check
    extra = replace(cert, embeddings=cert.embeddings + [(0, (0, 1, 2))], weights=ones)
    rep = verify_certificate(host, TRIANGLE, extra)
    assert not rep.valid and rep.deficit == [("weights", len(ones))]
    short = replace(cert, weights=ones + [1])
    assert verify_certificate(host, TRIANGLE, short).deficit == [("weights", len(ones) + 1)]


@pytest.mark.parametrize("w", [0.5, True, "1", Fraction(1)])
def test_verify_rejects_weights_that_are_not_ints(w):
    host = Hypergraph.complete(7, 2)
    cert = find_decomposition(host, TRIANGLE).certificate
    twice = replace(cert, embeddings=cert.embeddings * 2, weights=[w] * (2 * len(cert.embeddings)))
    rep = verify_certificate(host, TRIANGLE, twice)
    assert not rep.valid and rep.deficit == [("weight", w)]


# ---------------------------------------------------------------------------
# memoized counting: capacity-1 subtrees with equal open columns share a count


def _count(table):
    """(count, nodes) of one counting walk of the engine."""
    search = sv._CoverSearch(table)
    count = search.count()
    assert search.frontier is None
    return count, search.nodes


def _capacity_one(table) -> CopyTable:
    return replace(table, capacities=[1] * len(table.capacities))


def test_memo_counts_match_reference_on_random_tables():
    rng = random.Random(20261019)
    shared = 0
    for i in range(160):
        table = _random_table(rng, rng.randint(3, 9), rng.randint(3, 40))
        for t in (table, _capacity_one(table)):
            _, solutions, nodes = _run(oracles.RefCoverSearch, t, every=True)
            count, memo_nodes = _count(t)
            assert count == len(solutions)
            if max(t.capacities) > 1:  # the memo is off: the plain walk
                assert memo_nodes == nodes
            else:
                # the count walk takes a forced column before a dead one later
                # in index order, so its nodes are bounded by the plain walk
                # of its own rule, not by RefCoverSearch's
                forced_count, forced_nodes = oracles.ref_forced_count(t)
                assert forced_count == count
                assert memo_nodes <= forced_nodes
                shared += memo_nodes < forced_nodes
    assert shared > 20


def test_memo_counts_match_reference_when_rows_are_renumbered():
    # more than 64 rows of few columns, so subtrees renumber their rows
    rng = random.Random(11)
    for _ in range(4):
        table = _capacity_one(_random_table(rng, rng.randint(12, 14), rng.randint(90, 140)))
        _, solutions, nodes = _run(oracles.RefCoverSearch, table, every=True)
        count, memo_nodes = _count(table)
        assert count == len(solutions) and memo_nodes < nodes


def _ladder_instances():
    """(name, host, pattern, partition or None, count) of the counting
    ladder; res9 is the resolvable Steiner triple systems of order 9 with
    their parallel classes labelled."""
    latin_host, latin_part = triangle_host(4)
    tri, tri_part = triangle_pattern()
    sud, sud_part = sudoku_pattern()
    sud_host, sud_host_part = sudoku_host(2)
    res9 = resolvable_sts_instance(9)
    return [
        ("sts9", Hypergraph.complete(9, 2), TRIANGLE, None, 840),
        ("latin4", latin_host, tri, (tri_part, latin_part), 576),
        ("sudoku4", sud_host, sud, (sud_part, sud_host_part), 288),
        ("res9", res9.host, res9.pattern, (res9.pattern_partition, res9.host_partition), 840 * 24),
    ]


def _ladder():
    """(name, table, count) of the counting ladder."""
    return [
        (name, enumerate_copies(host, pattern, partition), count)
        for name, host, pattern, partition, count in _ladder_instances()
    ]


def test_memo_counts_on_the_ladder():
    for name, table, expected in _ladder():
        count, nodes = _count(table)
        assert count == expected, name
        if name != "res9":  # its plain count is pinned in test_ladder_node_counts
            _, solutions, plain_nodes = _run(sv._CoverSearch, table, every=True)
            assert len(solutions) == expected and nodes < plain_nodes


def test_memo_counts_stay_exact_when_generations_turn_over(monkeypatch, caplog):
    monkeypatch.setattr(sv, "_COUNT_MEMO", 2)
    for name, table, expected in _ladder()[:3]:
        assert _count(table)[0] == expected, name
    # and below orbit levels, which share the memo
    stats = {
        "sts9": "twin classes by size {9: 1}, 5 orbit nodes, 1 leaves, 53 leaf nodes",
        "latin4": "twin classes by size {4: 3}, 50 orbit nodes, 18 leaves, 144 leaf nodes",
        "sudoku4": "twin classes by size {2: 6}, 2 orbit nodes, 1 leaves, 467 leaf nodes",
        "res9": "twin classes by size {9: 1, 4: 1}, 49 orbit nodes, 36 leaves, 432 leaf nodes",
    }
    for name, host, pattern, partition, expected in _ladder_instances():
        _, message = _orbit_record(caplog, lambda: count_decompositions(host, pattern, partition))
        assert message == f"count {expected}: {stats[name]}"
    rng = random.Random(5)
    for _ in range(40):
        table = _capacity_one(_random_table(rng, rng.randint(5, 9), rng.randint(10, 40)))
        _, solutions, _ = _run(oracles.RefCoverSearch, table, every=True)
        assert _count(table)[0] == len(solutions)


def test_memo_count_keeps_the_deadline():
    n = 1500
    search = sv._CoverSearch(_table([(c,) for c in range(n)], [1] * n))
    search.deadline = time.monotonic() - 1
    assert search.count() is None
    assert (search.nodes, len(search.frontier)) == (256, 255)


def test_count_walk_node_counts():
    """Nodes of the capacity-1 count walk: a forced column first, the
    fewest alive rows otherwise, and memo hits not entered."""
    counts_and_nodes = {name: _count(table) for name, table, _ in _ladder()}
    assert counts_and_nodes == {
        "sts9": (840, 2618),
        "latin4": (576, 1197),
        "sudoku4": (288, 1049),
        "res9": (20160, 58871),
    }
    sqs10 = enumerate_copies(Hypergraph.complete(10, 3), Hypergraph.complete(4, 3))
    assert _count(sqs10) == (2520, 31782)


def test_count_walk_matches_reference_when_rows_are_renumbered(monkeypatch):
    # over 512 rows, most of them through column 0, so that once one is
    # selected the alive rows are sparse enough for the count walk to renumber
    renumbered = []
    renumber = sv._renumber
    monkeypatch.setattr(sv, "_renumber", lambda *a: renumbered.append(1) or renumber(*a))
    rng = random.Random(3)
    for ncols, width in ((20, 3), (16, 4)):
        extra = rng.sample(list(combinations(range(1, ncols), width)), 600)
        fps = sorted([(c,) for c in range(ncols)] + [(0, *fp) for fp in extra])
        table = _table(fps, [1] * ncols)
        _, solutions, nodes = _run(oracles.RefCoverSearch, table, every=True)
        renumbered.clear()
        count, count_nodes = _count(table)
        # the singletons alone, or one row through column 0 and singletons
        assert count == len(solutions) == 601
        assert renumbered and count_nodes < nodes


def test_count_walk_stops_with_a_frontier_of_disjoint_copies():
    table = _ladder()[3][1]  # res9
    act = table._edge_action
    classes = [c for c in act.classes if len(c) > 1]
    for deadline, node_budget, twins, rows in (
        (time.monotonic() - 1, None, (), None),
        (None, 5000, (), None),
        (None, 100, classes, 7),  # a stop below the orbit levels
    ):
        search = sv._CoverSearch(table)
        search.deadline, search.node_budget = deadline, node_budget
        assert search.count(act, twins) is None
        frontier = search.frontier
        assert frontier and len(frontier) < search.nodes
        assert rows is None or len(frontier) == rows
        columns = [c for r in frontier for c in table.footprints[r]]
        assert len(columns) == len(set(columns))  # pairwise disjoint copies
        assert len(set(frontier)) == len(frontier)
        assert all(0 <= r < len(table.footprints) for r in frontier)


def test_table_without_columns_counts_one():
    assert count_decompositions(None, None, table=_table([], [])) == 1
    assert _count(_table([()], [])) == (1, 1)


def test_count_with_a_capacity_above_one():
    # K_6 with every edge twice, one colour: 20 triangles, and 12 = 6!/60
    # decompositions, as the simple 2-(6,3,2) design is unique with an
    # automorphism group of order 60
    host = ColouredMultigraph(6, 2, 1, tuple((e, (2,)) for e in combinations(range(6), 2)))
    pattern = ColouredMultigraph(3, 2, 1, tuple((e, (1,)) for e in combinations(range(3), 2)))
    table = enumerate_copies(host, pattern)
    assert (len(table.footprints), set(table.capacities)) == (20, {2})
    assert count_decompositions(host, pattern) == 12
    _, solutions, nodes = _run(oracles.RefCoverSearch, table, every=True)
    assert (len(solutions), nodes) == (12, 146)
    assert _count(table) == (12, 146)
    search = sv._CoverSearch(table)
    search.node_budget = 20
    assert search.count() is None
    assert search.frontier and search.nodes == 21


def test_table_with_a_repeated_column_is_rejected():
    table = _table([(0, 0)], [1])
    for _ in range(2):  # a table keeps nothing of a failed build
        with pytest.raises(ValueError, match="twice"):
            find_decomposition(None, None, table=table)
        with pytest.raises(ValueError, match="twice"):
            count_decompositions(None, None, table=table)


def test_table_with_a_column_past_the_capacities_is_rejected():
    table = _table([(0,), (0, 2)], [1, 1])
    with pytest.raises(ValueError, match="past the 2 capacities"):
        find_decomposition(None, None, table=table)
    with pytest.raises(ValueError, match="past the 2 capacities"):
        count_decompositions(None, None, table=table)


def test_table_with_a_negative_column_is_rejected():
    # column -1 used to alias the last column: find returned both rows as a
    # decomposition, and a count failed on a negative shift
    table = _table([(0,), (-1,)], [1, 1])
    with pytest.raises(ValueError, match="negative column"):
        find_decomposition(None, None, table=table)
    with pytest.raises(ValueError, match="negative column"):
        count_decompositions(None, None, table=table)


@pytest.mark.parametrize("capacity", [0, -1])
def test_table_with_a_capacity_below_one_is_rejected(capacity):
    # column 1 used to be covered beyond its capacity: find reported "found"
    # and a count 1
    table = _table([(0, 1)], [1, capacity])
    for _ in range(2):  # a table keeps nothing of a failed build
        with pytest.raises(ValueError, match=f"column 1 has capacity {capacity}, below 1"):
            find_decomposition(None, None, table=table)
        with pytest.raises(ValueError, match="below 1"):
            count_decompositions(None, None, table=table)


@pytest.mark.parametrize("timeout", [math.nan, -1.0, -math.inf])
def test_nan_and_negative_timeouts_are_rejected(timeout):
    # a NaN deadline is never passed, so the search ran with no limit at all
    with pytest.raises(ValueError, match="timeout must be 0 or more seconds"):
        find_decomposition(Hypergraph.complete(9, 2), TRIANGLE, timeout=timeout)
    with pytest.raises(ValueError, match="timeout must be 0 or more seconds"):
        count_decompositions(Hypergraph.complete(7, 2), TRIANGLE, timeout=timeout)
    # the timeout is checked before a passed table is used
    table = enumerate_copies(Hypergraph.complete(7, 2), TRIANGLE)
    with pytest.raises(ValueError, match="timeout must be 0 or more seconds"):
        find_decomposition(None, None, timeout=timeout, table=table)
    with pytest.raises(ValueError, match="timeout must be 0 or more seconds"):
        count_decompositions(None, None, timeout=timeout, table=table)


def test_a_passed_table_is_never_enumerated_again(monkeypatch):
    # repeated searches on one table, as the bench runs them, reuse it
    host = Hypergraph.complete(7, 2)
    table = enumerate_copies(host, TRIANGLE)

    def refuse(*args):
        raise AssertionError("copies enumerated although a table was passed")

    monkeypatch.setattr(sv, "enumerate_copies", refuse)
    res = find_decomposition(host, TRIANGLE, table=table)
    assert res.found and verify_certificate(host, TRIANGLE, res.certificate).valid
    assert count_decompositions(host, TRIANGLE, table=table) == 30


def test_zero_and_infinite_timeouts_keep_their_meaning():
    host = Hypergraph.complete(9, 2)
    assert find_decomposition(host, TRIANGLE, timeout=math.inf).status == "found"
    assert count_decompositions(Hypergraph.complete(7, 2), TRIANGLE, timeout=math.inf) == 30
    assert find_decomposition(host, TRIANGLE, timeout=0).status == "timeout"
    with pytest.raises(TimeBudgetExceeded):
        count_decompositions(host, TRIANGLE, timeout=0)


# ---------------------------------------------------------------------------
# the engine build


def test_engine_build_matches_a_per_column_reference():
    rng = random.Random(20261020)
    for _ in range(60):
        ncols = rng.randint(2, 12)  # _random_table picks two hot columns
        table = _random_table(rng, ncols, rng.randint(1, 200))
        fps = table.footprints
        search = sv._CoverSearch(table)
        masks = [sum(1 << r for r, fp in enumerate(fps) if c in fp) for c in range(ncols)]
        assert search.masks == masks
        counts = table._cover[1]
        assert counts == [sum(c in fp for fp in fps) for c in range(ncols)]
        planes = table._planes  # most significant first
        assert [
            sum((p >> c & 1) << j for j, p in enumerate(reversed(planes))) for c in range(ncols)
        ] == counts
        r = rng.randrange(len(fps))
        for bad, message in (
            (fps[r] + fps[r][:1], "twice"),
            ((-rng.randint(1, ncols),) + fps[r], "negative column"),
            (fps[r] + (ncols + rng.randint(0, 3),), f"past the {ncols} capacities"),
        ):
            broken = replace(table, footprints=fps[:r] + (bad,) + fps[r + 1:])
            with pytest.raises(ValueError, match=message):
                sv._CoverSearch(broken)


def test_bits_matches_bit_peeling_on_either_side_of_the_long_int_path():
    # above 4 096 bits _bits searches the int's binary string instead of
    # peeling bits off it; the 13 300-row resolvable n = 21 table takes that path
    def peel(x):
        out = []
        while x:
            low = x & -x
            out.append(low.bit_length() - 1)
            x ^= low
        return out

    rng = random.Random(26)
    for length in (4095, 4096, 4097, 13300):
        top = 1 << (length - 1)
        sparse = [top, top | 1, top | sum(1 << rng.randrange(length) for _ in range(20))]
        dense = [(1 << length) - 1, top | rng.getrandbits(length - 1), (1 << length) - 2]
        for x in sparse + dense:
            assert x.bit_length() == length
            assert sv._bits(x) == peel(x)
    assert sv._bits(0) == []


def test_planes_and_row_keys_are_built_only_when_the_root_keeps_counts():
    # a find that scans masks from its root reads neither, so tables such as
    # the resolvable n = 21 one do not keep them
    table = enumerate_copies(Hypergraph.complete(16, 3), Hypergraph.complete(4, 3))
    for kill_cost in (10**30, None):
        search = sv._CoverSearch(table)
        search.node_budget = 200
        if kill_cost is not None:
            search.kill_cost = kill_cost
        assert next(search.solutions(), None) is None and search.frontier
        built = {"_cover", "_planes", "_row_keys"} & set(vars(table))
        assert built == ({"_cover"} if kill_cost else {"_cover", "_planes", "_row_keys"})


# ---------------------------------------------------------------------------
# twin classes of the copy table and orbit-weighted counting


def _relabel(host, partition, rng):
    """The host, and the partition's host side, with the vertices renamed
    by a shuffled permutation, as the benchmark relabels its instances."""
    perm = list(range(host.n))
    rng.shuffle(perm)
    new = Hypergraph.from_edges(host.n, host.r, [[perm[v] for v in e] for e in host.edges])
    if partition is None:
        return new, None
    pattern_part, host_part = partition
    host_part = Partition.from_lists([[perm[v] for v in p] for p in host_part.parts])
    return new, (pattern_part, host_part)


def _orbit_record(caplog, call):
    """(result of call, the message of its one count record)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="decomp_lab"):
        got = call()
    (record,) = [r for r in caplog.records if r.name == "decomp_lab.solver"]
    return got, record.getMessage()


def test_twin_classes_and_counts_on_the_relabelled_ladder():
    rng = random.Random(20261021)
    sizes = {"sts9": [9], "latin4": [4, 4, 4], "sudoku4": [2] * 6, "res9": [9, 4]}
    for name, host, pattern, partition, expected in _ladder_instances():
        for k in range(8):
            h, part = _relabel(host, partition, rng)
            table = enumerate_copies(h, pattern, part)
            classes = sv._twin_classes(table, False)
            assert classes == oracles.ref_twin_classes(table, False), name
            assert sorted((len(c) for c in classes if len(c) > 1), reverse=True) == sizes[name]
            assert count_decompositions(h, pattern, part, table=table) == expected, name
            if k == 0:
                assert _count(table)[0] == expected, name


def test_orbit_walk_node_counts(caplog):
    """Orbit nodes, leaves and count-walk nodes below the leaves of the
    orbit walk on the ladder as labelled."""
    stats = {
        "sts9": "twin classes by size {9: 1}, 5 orbit nodes, 1 leaves, 49 leaf nodes",
        "latin4": "twin classes by size {4: 3}, 50 orbit nodes, 18 leaves, 98 leaf nodes",
        "sudoku4": "twin classes by size {2: 6}, 2 orbit nodes, 1 leaves, 287 leaf nodes",
        "res9": "twin classes by size {9: 1, 4: 1}, 49 orbit nodes, 36 leaves, 297 leaf nodes",
    }
    for name, host, pattern, partition, expected in _ladder_instances():
        _, message = _orbit_record(caplog, lambda: count_decompositions(host, pattern, partition))
        assert message == f"count {expected}: {stats[name]}"


def test_twin_classes_of_k9_less_a_triangle():
    host = Hypergraph.from_edges(
        9, 2, [e for e in combinations(range(9), 2) if not set(e) <= {0, 1, 2}]
    )
    table = enumerate_copies(host, TRIANGLE)
    classes = [[0, 1, 2], [3, 4, 5, 6, 7, 8]]
    assert sv._twin_classes(table, False) == oracles.ref_twin_classes(table, False) == classes
    assert count_decompositions(host, TRIANGLE, table=table) == _count(table)[0] == 120


def test_twin_classes_of_a_coloured_tripartite_rainbow_host():
    # parts of 4, each edge coloured by the pair of parts it joins: a rainbow
    # triangle has one vertex per part, so decompositions are Latin squares
    parts = [range(0, 4), range(4, 8), range(8, 12)]
    colour_classes = [
        [(u, v) for u in parts[i] for v in parts[j]] for i, j in combinations(range(3), 2)
    ]
    host = ColouredMultigraph.from_colour_classes(12, 2, 3, colour_classes)
    patterns = rainbow_family(3)
    table = enumerate_copies(host, patterns)
    assert set(table.capacities) == {1}
    twins = [list(p) for p in parts]
    assert sv._twin_classes(table, False) == oracles.ref_twin_classes(table, False) == twins
    assert count_decompositions(host, patterns, table=table) == _count(table)[0] == 576


def test_twin_classes_read_arcs_in_position_order(caplog):
    # the transitive tournament on 4 vertices: read as arcs no two vertices
    # are twins, read as sorted edges it is K_4 and all four are
    host = Digraph.from_arcs(4, 2, list(combinations(range(4), 2)))
    arc = Digraph.from_arcs(2, 2, [(0, 1)])
    table = enumerate_copies(host, arc)
    singletons = [[0], [1], [2], [3]]
    assert sv._twin_classes(table, True) == oracles.ref_twin_classes(table, True) == singletons
    one = [[0, 1, 2, 3]]
    assert sv._twin_classes(table, False) == oracles.ref_twin_classes(table, False) == one
    count, message = _orbit_record(caplog, lambda: count_decompositions(host, arc, table=table))
    assert count == 1 and "plain walk (no twin class)" in message


def test_tables_without_vertex_keys_have_no_action(caplog):
    table = _table([(0,), (1,), (0, 1)], [1, 1])  # column keys 0 and 1
    assert sv._twin_classes(table, False) == []
    assert sv._table_action(table, False, [1, 0]) is None
    for atoms in ([(0, 1), (1, "a")], [((0, 1), "red"), ((1, 2), 0)], [(0, -1), (1, 2)]):
        assert sv._twin_classes(replace(table, atoms=atoms), False) == []
    # an edge not in sorted order, and two footprints of the same columns
    assert sv._twin_classes(replace(table, atoms=[(1, 0), (1, 2)]), False) == []
    assert sv._twin_classes(replace(table, atoms=[(1, 0), (1, 2)]), True) == [[0, 2], [1]]
    assert sv._twin_classes(replace(table, atoms=[(0, 1), (2, 3)]), False) == [[0, 1], [2, 3]]
    doubled = replace(table, atoms=[(0, 1), (2, 3)], footprints=table.footprints + ((1, 0),))
    assert sv._twin_classes(doubled, False) == []
    count, message = _orbit_record(caplog, lambda: count_decompositions(None, None, table=table))
    assert count == 2 and "plain walk (no host)" in message
    host = Hypergraph.complete(3, 2)
    count, message = _orbit_record(caplog, lambda: count_decompositions(host, None, table=table))
    assert count == 2 and "plain walk (no twin class)" in message


def test_table_action_maps_columns_and_rows_onto_the_table():
    table = enumerate_copies(Hypergraph.complete(9, 2), TRIANGLE)
    rng = random.Random(4)
    for _ in range(10):
        perm = list(range(9))
        rng.shuffle(perm)
        columns, rows = sv._table_action(table, False, perm)
        assert sorted(columns) == list(range(36)) and sorted(rows) == list(range(84))
        for c, a in enumerate(table.atoms):
            assert table.atoms[columns[c]] == tuple(sorted(perm[v] for v in a))
        for r, fp in enumerate(table.footprints):
            assert table.footprints[rows[r]] == tuple(sorted(columns[c] for c in fp))
    identity = (list(range(36)), list(range(84)))
    assert sv._table_action(table, False, {}) == sv._table_action(table, False, {3: 3}) == identity
    assert sv._table_action(table, False, {0: 1, 1: 0}) is not None
    # a footprint without an image, then a capacity that changes
    fewer = replace(table, footprints=table.footprints[1:])  # no triangle 012
    assert sv._table_action(fewer, False, {0: 3, 3: 0}) is None
    assert sv._table_action(fewer, False, {7: 8, 8: 7}) is not None
    # the rows through 0 all have images under (0 3), but not those through 3
    classes = [[0, 1, 2], [3, 4, 5, 6, 7, 8]]
    assert sv._twin_classes(fewer, False) == oracles.ref_twin_classes(fewer, False) == classes
    doubled = replace(table, capacities=(2,) + table.capacities[1:])  # edge 01
    assert sv._table_action(doubled, False, {1: 2, 2: 1}) is None
    assert sv._table_action(doubled, False, {0: 1, 1: 0}) is not None
    latin_host, latin_part = triangle_host(4)
    tri, tri_part = triangle_pattern()
    latin = enumerate_copies(latin_host, tri, (tri_part, latin_part))
    assert sv._table_action(latin, False, {0: 4, 4: 0}) is None  # across parts
    with pytest.raises(ValueError, match="not a permutation"):
        sv._table_action(table, False, {0: 1})


def test_orbit_count_keeps_an_explicit_stack(caplog):
    # 1500 twin pairs, one orbit level per edge, deeper than Python's
    # default recursion limit of 1000
    n = 1500
    host = Hypergraph.from_edges(2 * n, 2, [(2 * i, 2 * i + 1) for i in range(n)])
    table = CopyTable(
        atoms=[(2 * i, 2 * i + 1) for i in range(n)],
        capacities=[1] * n,
        footprints=[(i,) for i in range(n)],
        embeddings=[(0, (2 * i, 2 * i + 1)) for i in range(n)],
        multiplicities=[2] * n,
    )
    count, message = _orbit_record(
        caplog, lambda: count_decompositions(host, Hypergraph.complete(2, 2), table=table)
    )
    assert count == 1 and "1500 orbit nodes" in message


def test_orbit_count_keeps_the_deadline():
    host = Hypergraph.complete(9, 2)
    with pytest.raises(TimeBudgetExceeded):
        count_decompositions(host, TRIANGLE, timeout=0)
    table = enumerate_copies(host, TRIANGLE)
    with pytest.raises(TimeBudgetExceeded):  # at the first orbit node
        count_decompositions(host, TRIANGLE, table=table, timeout=0)
    # below the orbit levels, where the node budget stops the plain nodes
    act = table._edge_action
    search = sv._CoverSearch(table)
    search.node_budget = 1
    assert search.count(act, [c for c in act.classes if len(c) > 1]) is None


def test_orbit_counts_of_latin_5_sqs_10_and_cyclic_triangles(caplog):
    # Latin squares of order 5: 161 280 (McKay & Wanless 2005)
    # and of order 6: 812 851 200 (Frolov 1890, Tarry 1900)
    tri, tri_part = triangle_pattern()
    for order, stats in [
        (5, "count 161280: twin classes by size {5: 3}, 2028 orbit nodes, 432 leaves, "
            "1892 leaf nodes"),
        (6, "count 812851200: twin classes by size {6: 3}, 1552 orbit nodes, 265 leaves, "
            "187749 leaf nodes"),
    ]:
        host, part = triangle_host(order)
        _, message = _orbit_record(caplog, lambda: count_decompositions(host, tri, (tri_part, part)))
        assert message == stats
    # Steiner triple systems on 13 points: 1 197 504 000, all through one leaf
    # whose plain walk is the largest a test runs
    k13 = Hypergraph.complete(13, 2)
    _, message = _orbit_record(caplog, lambda: count_decompositions(k13, TRIANGLE))
    assert message == (
        "count 1197504000: twin classes by size {13: 1}, 7 orbit nodes, 1 leaves, 630260 leaf nodes"
    )
    for host, pattern, expected in [
        (Hypergraph.complete(10, 3), Hypergraph.complete(4, 3), 2520),
        (Digraph.complete(7, 2), tight_cycle(3, 2), 480),
    ]:
        table = enumerate_copies(host, pattern)
        assert count_decompositions(host, pattern, table=table) == _count(table)[0] == expected


def _planted_host(rng, kind: str, n: int):
    """(host, pattern) with the host the union of edge-disjoint copies of
    the pattern placed at random, so it has a decomposition: K_3 on a plain
    graph, the cyclic triangle on a digraph, and rainbow triangles, each
    with its own colouring, on a 3-coloured graph."""
    used: dict = {}
    for _ in range(3 * n):
        a, b, c = rng.sample(range(n), 3)
        slots = [(a, b), (b, c), (c, a)]
        if kind != "arcs":
            slots = [tuple(sorted(e)) for e in slots]
        if not any(e in used for e in slots):
            used.update(zip(slots, rng.sample(range(3), 3)))
    if kind == "plain":
        return Hypergraph.from_edges(n, 2, used), TRIANGLE
    if kind == "arcs":
        return Digraph.from_arcs(n, 2, used), tight_cycle(3, 2)
    classes = [[e for e, d in used.items() if d == colour] for colour in range(3)]
    return ColouredMultigraph.from_colour_classes(n, 2, 3, classes), rainbow_family(3)


def test_orbit_counts_match_the_plain_walk_on_random_hosts():
    rng = random.Random(20261021)
    seen = set()
    for i in range(120):
        kind = rng.choice(("plain", "arcs", "coloured"))
        if i % 2:
            host, pattern = _planted_host(rng, kind, rng.randint(5, 10))
        else:
            r = rng.choice((2, 3)) if kind == "plain" else 2
            n = rng.randint(r + 2, 9)
            host = _random_structure(rng, kind, n, r, rng.choice((0.5, 0.8, 1.0)), one_colour=True)
            pattern = _random_structure(rng, kind, r + 1, r, 1.0, one_colour=True)
            if kind == "coloured":
                pattern = rainbow_family(3)
        table = enumerate_copies(host, pattern)
        ordered = host._ordered
        classes = sv._twin_classes(table, ordered)
        assert classes == oracles.ref_twin_classes(table, ordered)
        count = count_decompositions(host, pattern, table=table)
        assert count == _count(table)[0]
        seen.add((any(len(c) > 1 for c in classes), min(count, 2)))
    assert seen == {(twins, count) for twins in (False, True) for count in (0, 1, 2)}


def test_counts_with_a_capacity_above_one_run_the_plain_walk(caplog):
    host = ColouredMultigraph(6, 2, 1, tuple((e, (2,)) for e in combinations(range(6), 2)))
    pattern = ColouredMultigraph(3, 2, 1, tuple((e, (1,)) for e in combinations(range(3), 2)))
    count, message = _orbit_record(caplog, lambda: count_decompositions(host, pattern))
    assert count == 12 and "plain walk (a capacity above 1), 146 nodes" in message


def test_the_decomp_lab_logger_is_silent_by_default():
    code = (
        "import logging\n"
        "from decomp_lab import Hypergraph, count_decompositions\n"
        "logging.getLogger('decomp_lab').setLevel(logging.DEBUG)\n"
        "print(count_decompositions(Hypergraph.complete(7, 2), Hypergraph.complete(3, 2)))\n"
        "print([type(h).__name__ for h in logging.getLogger('decomp_lab').handlers])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "30\n['NullHandler']\n", "")


# ---------------------------------------------------------------------------
# reused tables: the search index and twin classes kept with the table


def _calls(caplog, host, pattern, partition, table, small: bool) -> list:
    """The results on the table of a budgeted find and its resume, timings
    left out; and on a ``small`` table first a count with its DEBUG record
    and a find to the end, whose nodes the budgeted find gets half of."""
    out, budget = [], 3000
    if small:
        out.append(_orbit_record(caplog, lambda: count_decompositions(host, pattern, table=table)))
        full = find_decomposition(host, pattern, partition, timeout=None, table=table)
        out.append((full.status, full.nodes, full.certificate))
        budget = full.nodes // 2
    part = find_decomposition(host, pattern, partition, node_budget=budget, table=table)
    resumed = find_decomposition(
        host, pattern, partition, node_budget=3000, table=table, resume=part.frontier
    )
    assert part.status == "timeout" and part.frontier
    assert not small or resumed.certificate == full.certificate
    for res in (part, resumed):
        out.append((res.status, res.nodes, res.frontier, res.certificate))
    return out


def test_reused_tables_match_fresh_tables(caplog):
    k16 = ("k16", Hypergraph.complete(16, 3), Hypergraph.complete(4, 3), None, None)
    for name, host, pattern, partition, _ in [*_ladder_instances(), k16]:
        if name == "sudoku4":
            continue
        table = enumerate_copies(host, pattern, partition)
        fresh = _calls(caplog, host, pattern, partition, replace(table), name != "k16")
        for _ in range(2):
            assert _calls(caplog, host, pattern, partition, table, name != "k16") == fresh, name


def test_one_table_keeps_a_twin_reading_per_orientation(caplog):
    # the transitive tournament on 4 vertices: as arcs no two vertices are
    # twins, as edges all four are; the counts read the table both ways
    tournament = Digraph.from_arcs(4, 2, list(combinations(range(4), 2)))
    table = enumerate_copies(tournament, Digraph.from_arcs(2, 2, [(0, 1)]))
    edges = Hypergraph.complete(4, 2)
    for host, record in [(tournament, "plain walk (no twin class)"),
                         (edges, "twin classes by size {4: 1}"),
                         (tournament, "plain walk (no twin class)")]:
        count, message = _orbit_record(caplog, lambda: count_decompositions(host, None, table=table))
        assert count == 1 and record in message
    assert sv._twin_classes(table, True) == [[0], [1], [2], [3]]
    assert sv._twin_classes(table, False) == [[0, 1, 2, 3]]


def test_replaced_tables_build_their_own_index(caplog):
    host = Hypergraph.from_edges(
        9, 2, [e for e in combinations(range(9), 2) if not set(e) <= {0, 1, 2}]
    )
    table = enumerate_copies(host, TRIANGLE)
    with pytest.raises(FrozenInstanceError):
        table.atoms = table.atoms[::-1]
    assert count_decompositions(host, TRIANGLE, table=table) == 120
    perm = [6, 7, 8, 0, 1, 2, 3, 4, 5]
    moved = replace(table, atoms=[tuple(sorted(perm[v] for v in a)) for a in table.atoms])
    _, message = _orbit_record(caplog, lambda: count_decompositions(host, TRIANGLE, table=moved))
    assert message.startswith("count 120: twin classes by size {6: 1, 3: 1}")
    assert sv._twin_classes(moved, False) == oracles.ref_twin_classes(moved, False)
    assert sv._twin_classes(moved, False) == [[0, 1, 2, 3, 4, 5], [6, 7, 8]]
    assert sv._twin_classes(table, False) == [[0, 1, 2], [3, 4, 5, 6, 7, 8]]
    # a capacity of 0 in a replaced table is rejected although the old one counted
    broken = replace(table, capacities=(0,) + table.capacities[1:])
    with pytest.raises(ValueError, match="below 1"):
        count_decompositions(host, TRIANGLE, table=broken)


def test_table_fields_are_tuples_that_refuse_changes_in_place():
    host = Hypergraph.complete(9, 2)
    table = enumerate_copies(host, TRIANGLE)
    assert count_decompositions(host, TRIANGLE, table=table) == 840
    for name in ("atoms", "capacities", "footprints", "embeddings", "multiplicities"):
        assert type(getattr(table, name)) is tuple, name
    with pytest.raises(TypeError):
        table.capacities[0] = 0
    assert count_decompositions(host, TRIANGLE, table=table) == 840
    hand = _table([(0, 1), (1,)], [1, 1])  # lists in, tuples stored
    assert hand.footprints == ((0, 1), (1,)) and hand.capacities == (1, 1)
    assert replace(hand, capacities=[1, 2]).capacities == (1, 2)


def test_threads_counting_one_fresh_table_agree():
    # more threads than cores, switching often, all building one table's index
    _, host, pattern, partition, expected = _ladder_instances()[3]  # res9
    table = enumerate_copies(host, pattern, partition)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh = replace(table)  # no index built yet
            start = threading.Barrier(4)
            got = []

            def count():
                start.wait(timeout=30)
                got.append(count_decompositions(host, pattern, table=fresh))

            threads = [threading.Thread(target=count) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [expected] * 4
    finally:
        sys.setswitchinterval(switch)
