"""The three benchmark workloads: search, nibble and checkers.

A workload builds its reusable inputs once in `setup` (seeded, so the same
seed gives the same inputs) and then hands out rounds of ops.  Every op
calls the same public library functions a `decomp-lab` subcommand calls,
and carries its own answer check from `oracles` plus a deliberately wrong
variant of an answer for the self-test.  Round k depends only on the seed
and k, so a run replays exactly when its seed and round count are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracles
from decomp_lab import complexes as cx
from decomp_lab import divisibility as dv
from decomp_lab import encodings as enc
from decomp_lab import nibble as nb
from decomp_lab import solver as sv
from decomp_lab import weights as wt
from decomp_lab.core import ColouredMultigraph, Digraph, Hypergraph, Partition, blowup


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    corrupt: Callable[[object], object]  # a wrong answer the check must reject


def _flip(field_name: str):
    return lambda ans: replace(ans, **{field_name: not getattr(ans, field_name)})


# ---------------------------------------------------------------------------
# search: exact-cover search over copy tables built in set-up

COUNT_TIMEOUT_S = 60.0
FIND_TIMEOUT_S = 60.0
RES21_BUDGET = 2000
K16_BUDGET = 3000
VARIANTS = 8  # relabelled copies of each small instance; round k uses k % 8
# Per round: 6 none-proofs, 8 counts, 2 K16 finds, 2 res21 finds and one
# res9 count, 19 ops.  So op_p50_ms falls inside the sts9 counts and
# op_p90_ms in the middle of the res21 finds (the slowest 5% are the res9
# counts, the next 10% the res21 finds), not between kinds of different
# cost or in the tail of one kind.
COUNTS_PER_ROUND = {"latin4": 1, "sts9": 6, "sudoku4": 1, "res9": 1}


@dataclass
class Instance:
    host: object
    pattern: object
    partition: tuple | None
    table: sv.CopyTable

    def cover_error(self, embeddings) -> str | None:
        directed = isinstance(self.host, Digraph)
        slots = (lambda g: g.arcs) if directed else (lambda g: g.edges)
        pattern_part = host_part = None
        if self.partition is not None:
            pattern_part = {x: j for j, p in enumerate(self.partition[0].parts) for x in p}
            host_part = {v: j for j, p in enumerate(self.partition[1].parts) for v in p}
        return oracles.cover_error(
            slots(self.host), slots(self.pattern), embeddings, directed,
            pattern_part, host_part,
        )


def _relabel(host, host_partition, rng):
    perm = list(range(host.n))
    rng.shuffle(perm)
    if isinstance(host, Digraph):
        new = Digraph.from_arcs(host.n, host.r, [[perm[v] for v in a] for a in host.arcs])
    else:
        new = Hypergraph.from_edges(host.n, host.r, [[perm[v] for v in e] for e in host.edges])
    if host_partition is None:
        return new, None
    return new, Partition.from_lists([[perm[v] for v in p] for p in host_partition.parts])


def _instance(host, pattern, pattern_partition, host_partition, rng) -> Instance:
    host, host_partition = _relabel(host, host_partition, rng)
    partition = None if pattern_partition is None else (pattern_partition, host_partition)
    return Instance(host, pattern, partition, sv.enumerate_copies(host, pattern, partition))


class Search:
    """Counts with closed-form answers, exhausted "none" proofs, and
    node-budgeted first-solution finds.  Every copy table is built in
    set-up, so enumeration shows only in setup_s."""

    name = "search"
    round_s = 4.4  # nominal round time on the reference machine

    def setup(self, seed: int) -> dict:
        rng = random.Random(f"search/{seed}")
        tri, tri_part = enc.triangle_pattern()
        cyc = enc.tight_cycle(3, 2)
        sud, sud_part = enc.sudoku_pattern()
        res9 = enc.resolvable_sts_instance(9)
        latin_host, latin_part = enc.triangle_host(4)
        sud_host, sud_host_part = enc.sudoku_host(2)
        counts = [  # name, host, host partition, pattern, pattern partition, count
            ("latin4", latin_host, latin_part, tri, tri_part, oracles.LATIN_4),
            ("sts9", Hypergraph.complete(9, 2), None, tri, None, oracles.STS_9),
            ("sudoku4", sud_host, sud_host_part, sud, sud_part, oracles.SUDOKU_4),
            ("res9", res9.host, res9.host_partition, res9.pattern,
             res9.pattern_partition, oracles.RESOLVABLE_9),
        ]
        nones = [  # name, host, pattern, whether a decomposition exists
            ("K6", Hypergraph.complete(6, 2), tri, oracles.sts_exists(6)),
            ("K8", Hypergraph.complete(8, 2), tri, oracles.sts_exists(8)),
            ("Kd6", Digraph.complete(6, 2), cyc, oracles.mendelsohn_exists(6)),
        ]
        state = {"counts": {}, "none": {}}
        for name, host, hpart, pattern, ppart, expected in counts:
            state["counts"][name] = (
                expected,
                [_instance(host, pattern, ppart, hpart, rng) for _ in range(VARIANTS)],
            )
        for name, host, pattern, exists in nones:
            state["none"][name] = (
                exists,
                [_instance(host, pattern, None, None, rng) for _ in range(VARIANTS)],
            )
        # One labelling for the budgeted finds whatever the seed: the time a
        # find takes for its node budget varies by up to 1.7x between
        # labellings, which would make op_p90_ms follow the seed.
        fixed = random.Random("search/budgeted")
        res21 = enc.resolvable_sts_instance(21)
        state["res21"] = _instance(
            res21.host, res21.pattern, res21.pattern_partition, res21.host_partition, fixed
        )
        state["K16"] = _instance(
            Hypergraph.complete(16, 3), Hypergraph.complete(4, 3), None, None, fixed
        )
        return state

    def round(self, state: dict, seed: int, k: int) -> list[Op]:
        rng = random.Random(f"search/{seed}/{k}")
        v = k % VARIANTS
        ops = []
        for name, (expected, insts) in state["counts"].items():
            ops += [_count_op(name, insts[v], expected)] * COUNTS_PER_ROUND[name]
        for name, (exists, insts) in state["none"].items():
            ops += [_none_op(name, insts[v], exists)] * 2
        ops += [_budget_op("res21", state["res21"], RES21_BUDGET)] * 2
        ops += [_budget_op("K16", state["K16"], K16_BUDGET)] * 2
        rng.shuffle(ops)
        return ops


def _count_op(name, inst: Instance, expected: int) -> Op:
    return Op(
        f"count.{name}",
        lambda: sv.count_decompositions(
            inst.host, inst.pattern, inst.partition,
            timeout=COUNT_TIMEOUT_S, table=inst.table,
        ),
        lambda got: oracles.count_error(expected, got),
        lambda got: got + 1,
    )


def find(inst: Instance, budget=None):
    return sv.find_decomposition(
        inst.host, inst.pattern, inst.partition,
        timeout=FIND_TIMEOUT_S, node_budget=budget, table=inst.table,
    )


def _none_op(name, inst: Instance, exists: bool) -> Op:
    return Op(
        f"none.{name}",
        lambda: find(inst),
        lambda res: oracles.none_error(exists, res),
        lambda res: replace(res, status="found"),
    )


def drop_copy_or_flip(res):
    if res.status == "found":
        cert = res.certificate
        return replace(res, certificate=replace(cert, embeddings=cert.embeddings[:-1]))
    return replace(res, status="none")


def _budget_op(name, inst: Instance, budget: int) -> Op:
    return Op(
        f"find.{name}",
        lambda: find(inst, budget),
        lambda res: oracles.budgeted_find_error(res, budget, inst.cover_error),
        drop_copy_or_flip,
    )


# ---------------------------------------------------------------------------
# nibble: the random greedy process

TRIANGLE = Hypergraph.complete(3, 2)
# Per round: three n = 40 bounds ops, the slowest kind, so that op_p90_ms
# falls inside one op kind rather than between kinds of different cost.
BOUNDS_N = (20, 30, 40, 40, 40)
PACKING_N = (30, 38)  # round k packs K_n for n = 30 + k % 8 and n = 38 + k % 8
TRAJECTORY_N = 30
TRAJECTORIES = 15


def _drop_last(run):
    return replace(run, matching=run.matching[:-1])


class Nibble:
    """Counting bounds (each call rebuilds its auxiliary), greedy triangle
    packings of K_n, and trajectories over a blowup auxiliary built in
    set-up.  No exact-cover search runs here."""

    name = "nibble"
    round_s = 5.6

    def setup(self, seed: int) -> dict:
        host, host_partition = blowup(TRIANGLE, [TRAJECTORY_N] * 3)
        aux = nb.build_auxiliary(host, TRIANGLE, (Partition.singletons(3), host_partition))
        classes = [list(p) for p in host_partition.parts]
        return {"aux": aux, "candidates": list(oracles.partite_triangles(classes))}

    def round(self, state: dict, seed: int, k: int) -> list[Op]:
        rng = random.Random(f"nibble/{seed}/{k}")
        ops = [_bounds_op(n, rng.randrange(2**32)) for n in BOUNDS_N]
        for lo in PACKING_N:
            ops.append(_packing_op(lo + k % 8, rng.randrange(2**32)))
        aux, cands = state["aux"], state["candidates"]
        for _ in range(TRAJECTORIES):
            ops.append(_trajectory_op(aux, cands, rng.randrange(2**32)))
        rng.shuffle(ops)
        return ops


def _bounds_op(n: int, seed: int) -> Op:
    return Op(
        f"bounds.n{n}",
        lambda: nb.counting_bounds(TRIANGLE, n, seed=seed),
        lambda b: oracles.bounds_error(n, 3, 2, 3, b),
        lambda b: replace(b, log_upper=b.log_upper + 1.0),
    )


def _triangles(aux, run):
    return [[aux.atoms[a] for a in aux.copies[cid]] for cid in run.matching]


def _packing_op(n: int, seed: int) -> Op:
    host = Hypergraph.complete(n, 2)

    def call():
        aux = nb.build_auxiliary(host, TRIANGLE)
        return aux, nb.random_greedy(aux, seed=seed)

    return Op(
        "packing",
        call,
        lambda ans: oracles.packing_error(_triangles(*ans), oracles.complete_triangles(n)),
        lambda ans: (ans[0], _drop_last(ans[1])),
    )


def _trajectory_op(aux, candidates, seed: int) -> Op:
    return Op(
        "trajectory",
        lambda: nb.random_greedy(aux, seed=seed),
        lambda run: oracles.packing_error(_triangles(aux, run), candidates),
        _drop_last,
    )


# ---------------------------------------------------------------------------
# checkers: verdicts on seeded random hosts

DIGRAPH_N = (4, 8)
COLOURED_N = (6, 14)
LATTICE_N = (4, 5, 6)
# The heavy ops walk fixed ladders (round k takes entry k % len), so that a
# run's mix of sizes does not depend on the seed; the seed sets the random
# hosts, the thresholds and the op order.
RESOLVABLE_N = tuple(range(5, 22, 2))
LARGE_SET_N = tuple(range(5, 11))
PLAIN = tuple([(n, 2, 3) for n in range(12, 21)] + [(n, 2, 2) for n in range(21, 31)]
              + [(n, 3, 2) for n in range(8, 13)])  # (n, r, s)
BLOWUP = tuple((m, s) for m in range(4, 9) for s in (2, 3))
TYPICAL_HP_N = (9, 15, 21)
CYCLE = enc.tight_cycle(3, 2)
RAINBOW = tuple(enc.rainbow_family(4))
K4, K4_3 = Hypergraph.complete(4, 2), Hypergraph.complete(4, 3)
POINT_CLASS = Partition.from_lists([[0, 1, 2], [3]])


def resolvable_host(n: int):
    """Points 0..n-1 and (n-1)/2 class vertices, all pairs not inside the
    class part; for n = 3 mod 6 this is `resolvable_sts_instance(n).host`."""
    total = n + (n - 1) // 2
    edges = [e for e in combinations(range(total), 2) if e[0] < n]
    return Hypergraph.from_edges(total, 2, edges), Partition.from_lists([range(n), range(n, total)])


def large_set_host(n: int):
    """Points 0..n-1 and n-2 system vertices, all triples with at least two
    points; for n = 1, 3 mod 6 this is `large_set_instance(n).host`."""
    total = 2 * n - 2
    edges = [e for e in combinations(range(total), 3) if (e[1] < n)]
    return Hypergraph.from_edges(total, 3, edges), Partition.from_lists([range(n), range(n, total)])


def random_arcs(rng, n: int) -> list:
    """Half the time independent arcs of K*_n, otherwise a union of
    arc-disjoint directed cycles (balanced, arc count any residue)."""
    if rng.random() < 0.5:
        return [a for a in combinations(range(n), 2) for a in (a, a[::-1]) if rng.random() < 0.5]
    arcs: set = set()
    for _ in range(rng.randint(1, n)):
        cycle = rng.sample(range(n), rng.randint(2, n))
        new = {(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
        if not new & arcs:
            arcs |= new
    return sorted(arcs)


def random_coloured_edges(rng, n: int) -> list:
    """Half the time independent 4-coloured edges, otherwise a union of
    edge-disjoint triangles (tridivisible) with one edge removed half the
    time; colours are uniform."""
    if rng.random() < 0.5:
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
    else:
        edges = set()
        for _ in range(n):
            tri = set(combinations(sorted(rng.sample(range(n), 3)), 2))
            if not tri & edges:
                edges |= tri
        edges = sorted(edges)
        if edges and rng.random() < 0.5:
            edges.pop(rng.randrange(len(edges)))
    return [(e, rng.randrange(4)) for e in edges]


def _coloured(n: int, coloured_edges) -> ColouredMultigraph:
    classes = [[] for _ in range(4)]
    for e, d in coloured_edges:
        classes[d].append(e)
    return ColouredMultigraph.from_colour_classes(n, 2, 4, classes)


class Checkers:
    """Divisibility and lattice verdicts on fresh random hosts, index-partite
    divisibility on resolvable and large-set hosts, and typicality on
    hosts with closed-form answers.  No enumeration and no search."""

    name = "checkers"
    round_s = 0.18

    def setup(self, seed: int) -> dict:
        coloured_ws = wt.coloured_weight_system(list(RAINBOW))
        digraph_ws = wt.digraph_weight_system(CYCLE)
        lattice = {}
        for n in LATTICE_N:
            phi = cx.LabelledComplex.complete_complex(3, n)
            lattice[("coloured", n)] = (phi, wt.LatticeChecker(coloured_ws, phi))
            lattice[("digraph", n)] = (phi, wt.LatticeChecker(digraph_ws, phi))
        # fill the module-level pattern lattices that random-host ops reuse
        dv.digraph_divisible(Digraph.complete(3, 2), CYCLE)
        dv.coloured_divisible(_coloured(3, [((0, 1), 0), ((0, 2), 1), ((1, 2), 2)]), RAINBOW)
        return {
            "lattice": lattice,
            "resolvable": {n: resolvable_host(n) for n in RESOLVABLE_N},
            "large_set": {n: large_set_host(n) for n in LARGE_SET_N},
            "plain": {(n, r): Hypergraph.complete(n, r) for n, r, _s in PLAIN},
            "blowup": {m: blowup(TRIANGLE, [m] * 3) for m, _s in BLOWUP},
            "hp": {n: enc.resolvable_sts_instance(n) for n in TYPICAL_HP_N},
        }

    def round(self, state: dict, seed: int, k: int) -> list[Op]:
        rng = random.Random(f"checkers/{seed}/{k}")
        ops = []
        for _ in range(6):
            n = rng.randint(*DIGRAPH_N)
            ops.append(_digraph_op(n, random_arcs(rng, n)))
            n = rng.randint(*COLOURED_N)
            ops.append(_coloured_op(n, random_coloured_edges(rng, n)))
        for kind in ("coloured", "digraph") * 3:
            n = rng.choice(LATTICE_N)
            phi, checker = state["lattice"][(kind, n)]
            if kind == "coloured":
                ops.append(_lattice_coloured_op(n, random_coloured_edges(rng, n), phi, checker))
            else:
                ops.append(_lattice_digraph_op(n, random_arcs(rng, n), phi, checker))
        n = RESOLVABLE_N[k % len(RESOLVABLE_N)]
        ops.append(_hp_op("resolvable", n, state["resolvable"][n], K4,
                          oracles.resolvable_admissible(n)))
        n = LARGE_SET_N[k % len(LARGE_SET_N)]
        ops.append(_hp_op("large_set", n, state["large_set"][n], K4_3,
                          oracles.large_set_admissible(n)))
        ops += _typicality_ops(state, rng, k)
        rng.shuffle(ops)
        return ops


def _digraph_op(n: int, arcs) -> Op:
    g = Digraph.from_arcs(n, 2, arcs)
    return Op(
        "digraph_divisible",
        lambda: dv.digraph_divisible(g, CYCLE),
        lambda rep: oracles.verdict_error(oracles.cycle_divisible(n, arcs), rep.verdict, "verdict"),
        _flip("verdict"),
    )


def _coloured_op(n: int, coloured_edges) -> Op:
    g = _coloured(n, coloured_edges)
    expected = oracles.tridivisible(n, coloured_edges)
    return Op(
        "coloured_divisible",
        lambda: dv.coloured_divisible(g, RAINBOW),
        lambda rep: oracles.verdict_error(expected, rep.verdict, "verdict"),
        _flip("verdict"),
    )


def _lattice_coloured_op(n, coloured_edges, phi, checker) -> Op:
    g = _coloured(n, coloured_edges)
    expected = oracles.tridivisible(n, coloured_edges)
    return Op(
        "lattice.coloured",
        lambda: checker.check(wt.coloured_edge_vector(g, phi)),
        lambda rep: oracles.verdict_error(expected, rep.member, "member"),
        _flip("member"),
    )


def _lattice_digraph_op(n, arcs, phi, checker) -> Op:
    g = Digraph.from_arcs(n, 2, arcs)
    expected = oracles.cycle_divisible(n, arcs)
    return Op(
        "lattice.digraph",
        lambda: checker.check(wt.digraph_edge_vector(g, phi)),
        lambda rep: oracles.verdict_error(expected, rep.member, "member"),
        _flip("member"),
    )


def _hp_op(name, n, host_and_partition, pattern, expected) -> Op:
    g, part = host_and_partition
    return Op(
        f"hp_divisible.{name}",
        lambda: dv.hp_divisible(g, part, pattern, POINT_CLASS),
        lambda rep: oracles.verdict_error(expected, rep.verdict, f"n={n} verdict"),
        _flip("verdict"),
    )


def _threshold_c(rng, threshold: Fraction) -> Fraction:
    """The typicality threshold itself, or just below it."""
    return threshold if rng.random() < 0.5 else threshold * Fraction(999, 1000)


def _typicality_ops(state, rng, k: int) -> list[Op]:
    n, r, s = PLAIN[k % len(PLAIN)]
    g = state["plain"][(n, r)]
    c = _threshold_c(rng, Fraction(r - 1, n))
    plain = _typicality_op(
        "plain", lambda: cx.is_typical_plain(g, c, s),
        oracles.typicality_expected("plain", c, s, n=n, r=r),
    )
    m, s_b = BLOWUP[k % len(BLOWUP)]
    host, part = state["blowup"][m]
    c_b = Fraction(rng.randint(1, 20), 100)
    blow = _typicality_op(
        "blowup", lambda: cx.is_typical_blowup(host, part, TRIANGLE, c_b, s_b),
        oracles.typicality_expected("blowup", c_b, s_b, m=m),
    )
    n_h = TYPICAL_HP_N[k % len(TYPICAL_HP_N)]
    inst = state["hp"][n_h]
    c_h = _threshold_c(rng, Fraction(1, n_h))
    hp = _typicality_op(
        "hp",
        lambda: cx.is_typical_hp(inst.host, inst.host_partition, inst.pattern,
                                 inst.pattern_partition, c_h, 2),
        oracles.typicality_expected("hp", c_h, 2, n=n_h),
    )
    return [plain, blow, hp]


def _typicality_op(mode, call, expected) -> Op:
    return Op(
        f"typicality.{mode}",
        call,
        lambda rep: oracles.typicality_error(expected, rep),
        _flip("typical"),
    )


WORKLOADS = {w.name: w for w in (Search(), Nibble(), Checkers())}
