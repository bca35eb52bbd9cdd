"""Random greedy matching process: exactness, reproducibility, bounds."""

import hashlib
import math
import random
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from decomp_lab import nibble as nb
from decomp_lab.core import Hypergraph, Partition, blowup
from decomp_lab.nibble import (
    build_auxiliary,
    counting_bounds,
    default_count_stop,
    random_greedy,
)

TRIANGLE = Hypergraph.complete(3, 2)


def partite_aux(n: int):
    host, hpart = blowup(TRIANGLE, [n, n, n])
    return build_auxiliary(host, TRIANGLE, (Partition.singletons(3), hpart))


def test_auxiliary_statistics_blowup():
    aux = partite_aux(5)
    assert aux.N == 75 and aux.R == 3
    assert aux.degree_min == aux.degree_max == 5  # n^(q-r)
    assert aux.pair_degree_max <= 5 // 5 or aux.pair_degree_max == 1


def test_auxiliary_statistics_complete_graph():
    aux = build_auxiliary(Hypergraph.complete(7, 2), TRIANGLE)
    assert aux.N == 21 and aux.R == 3
    assert aux.degree_min == aux.degree_max == 5


def test_pair_degree_max_counts_the_copies_through_a_slot_pair():
    # two adjacent edges of K_6 lie in 3 four-cycles, two disjoint ones in 2
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    aux = build_auxiliary(Hypergraph.complete(6, 2), c4)
    assert aux.pair_degree_max == 3
    assert build_auxiliary(Hypergraph.complete(7, 2), TRIANGLE).pair_degree_max == 1


def test_pair_degree_is_counted_on_first_read():
    aux = partite_aux(4)
    assert "pair_degree_max" not in vars(aux)
    assert aux.pair_degree_max == oracles.ref_pair_degree_max(aux.copies) == 1
    assert "pair_degree_max" in vars(aux)
    rng = random.Random(9)
    c4 = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = Hypergraph.from_edges(3, 2, [(0, 1), (1, 2)])
    seen = set()
    for _ in range(12):
        r = rng.choice((2, 3))
        n = rng.randint(r + 2, 8)
        edges = [e for e in combinations(range(n), r) if rng.random() < 0.7]
        host = Hypergraph.from_edges(n, r, edges)
        for pattern in (TRIANGLE, c4, path) if r == 2 else (Hypergraph.complete(4, 3),):
            aux = build_auxiliary(host, pattern)
            want = oracles.ref_pair_degree_max(aux.copies)
            assert aux.pair_degree_max == want
            seen.add(want)
    assert {0, 1}.issubset(seen) and max(seen) > 1


def test_auxiliary_degenerate_single_copy():
    aux = build_auxiliary(TRIANGLE, TRIANGLE)
    assert aux.N == aux.R == 3
    assert aux.degree_min == aux.degree_max == 1
    run = random_greedy(aux, seed=1)
    assert len(run.matching) == 1
    assert run.stop_reason == "exhausted"


def test_greedy_runs_and_bounds_match_pinned_values():
    # copy ids follow footprint order, so these pins also guard copy enumeration
    run = random_greedy(partite_aux(6), seed=42)
    digest = hashlib.sha256(run.dump_jsonl().encode()).hexdigest()
    assert digest == "72a1e6579ed35604b7cc7f38718f27a294eed5dbbfc66d657cd7baba61a62523"
    aux = build_auxiliary(Hypergraph.complete(13, 2), TRIANGLE)
    run = random_greedy(aux, seed=7, stop_density=Fraction(1, 2))
    assert run.stop_reason == "density"
    assert run.matching == [167, 22, 258, 139, 0, 148, 33, 232, 229, 244, 49, 265, 184, 91]
    digest = hashlib.sha256(run.dump_jsonl().encode()).hexdigest()
    assert digest == "930884684f471150450b3323f528653b9136a1b8118edf9427cbde1c33d45815"
    assert asdict(counting_bounds(TRIANGLE, 12, seed=5)) == {
        "log_upper": 69.82655756947204,
        "log_lower_estimate": 2.484906649788,
        "per_cell_upper": 0.4849066497880003,
        "per_cell_lower": 0.017256296179083332,
        "cells": 144,
        "steps_run": 1,
        "o_terms_dropped": True,
        "notes": ["asymptotic correction terms dropped; desk-scale estimate only", "stop=density"],
    }


REFERENCE_CASES = {
    "blowup6": lambda: partite_aux(6),
    "blowup12": lambda: partite_aux(12),
    "blowup30": lambda: partite_aux(30),
    **{f"K{n}": lambda n=n: build_auxiliary(Hypergraph.complete(n, 2), TRIANGLE) for n in (5, 7, 9, 13)},
    "K10^3": lambda: build_auxiliary(Hypergraph.complete(10, 3), Hypergraph.complete(4, 3)),
    "one copy": lambda: build_auxiliary(TRIANGLE, TRIANGLE),
    "no copies": lambda: build_auxiliary(Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3)]), TRIANGLE),
    "no slots": lambda: build_auxiliary(Hypergraph.from_edges(3, 2, []), TRIANGLE),
}


STOPS = [
    {},
    {"stop_density": Fraction(1, 2)},
    {"stop_density": 0.6},
    {"stop_density": Fraction(11, 10)},  # stops before the first step
    {"stop_steps": 0},
    {"stop_steps": 3},
    {"stop_density": Fraction(1, 3), "stop_steps": 5},
]


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_greedy_runs_equal_the_reference_process(name):
    aux = REFERENCE_CASES[name]()
    seeds = (0, 1, 2**64 - 1) if aux.N > 1000 else (0, 1, 7, 42, -3, 2**64 - 1)
    for seed in seeds:
        for stop in STOPS:
            run = random_greedy(aux, seed, **stop)
            want = oracles.ref_random_greedy(aux, seed, **stop)
            assert run == want, (name, seed, stop)
            assert run.dump_jsonl() == want.dump_jsonl()
            for got, ref in zip(run.steps, want.steps):
                assert (got.density.numerator, got.density.denominator) == (
                    ref.density.numerator, ref.density.denominator
                )


def test_greedy_rejects_the_draws_randrange_rejects(monkeypatch):
    # draws at or above 2**64 - 2**64 % n are rejected; no seed reaches them,
    # so both processes read the same crafted stream instead
    aux = build_auxiliary(Hypergraph.complete(9, 2), TRIANGLE)
    top = 2**64
    rnd = random.Random(5)
    values = [(top - 1, top - len(aux.copies), rnd.getrandbits(64))[i % 3] for i in range(3000)]

    class Stream:
        def __init__(self, seed):
            self.stream = iter(values)

    class RefStream(oracles.RefSplitMix64):
        calls = drawn = 0

        def __init__(self, seed):
            self.values = iter(values)
            made.append(self)

        def next_u64(self):
            self.drawn += 1
            return next(self.values)

        def randrange(self, n):
            self.calls += 1
            return super().randrange(n)

    made = []
    monkeypatch.setattr("decomp_lab.nibble.SplitMix64", Stream)
    monkeypatch.setattr(oracles, "RefSplitMix64", RefStream)
    run = random_greedy(aux, 0)
    assert run == oracles.ref_random_greedy(aux, 0)
    assert len(run.matching) > 1
    assert made[0].drawn > made[0].calls  # some draws were rejected


def test_step_zero_stop():
    aux = partite_aux(4)
    run = random_greedy(aux, seed=3, stop_steps=0)
    assert run.matching == [] and run.steps == []
    assert run.stop_reason == "steps"


def test_reproducibility_byte_for_byte():
    aux = partite_aux(6)
    a = random_greedy(aux, seed=42)
    b = random_greedy(aux, seed=42)
    assert a.dump_jsonl() == b.dump_jsonl()
    assert a.matching == b.matching
    c = random_greedy(aux, seed=43)
    assert c.matching != a.matching


def test_disjointness_and_conservation():
    aux = partite_aux(6)
    run = random_greedy(aux, seed=7)
    seen = set()
    for cid in run.matching:
        atoms = set(aux.copies[cid])
        assert not (atoms & seen)
        seen |= atoms
    covered = len(seen)
    # every step removes exactly R atoms from the uncovered side
    assert covered == aux.R * len(run.matching)
    assert covered + (aux.N - covered) == aux.N
    # alive counts strictly decrease
    alive = [s.alive_after for s in run.steps]
    assert all(a > b for a, b in zip(alive, alive[1:]))
    # density column follows the closed form
    for s in run.steps:
        assert s.density == 1 - Fraction(s.step * aux.R, aux.N)


def test_disjoint_copies_give_perfect_matching():
    # host = three vertex-disjoint triangles: no conflicts at all
    edges = []
    for k in range(3):
        base = 3 * k
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    host = Hypergraph.from_edges(9, 2, edges)
    aux = build_auxiliary(host, TRIANGLE)
    run = random_greedy(aux, seed=11)
    assert len(run.matching) == 3
    assert run.stop_reason == "exhausted"


def test_counting_bounds_flags_and_order():
    cb = counting_bounds(TRIANGLE, 12, seed=5)
    assert cb.o_terms_dropped
    assert cb.log_lower_estimate <= cb.log_upper
    assert cb.cells == 144


def test_counting_bounds_respects_upper_across_sizes_and_seeds():
    for n in (8, 12, 16, 20):
        for seed in (1, 2, 3):
            cb = counting_bounds(TRIANGLE, n, seed=seed)
            assert cb.log_lower_estimate <= cb.log_upper, (n, seed)


def test_cached_auxiliary_gives_the_bounds_of_a_fresh_build():
    for n in (12, 20):
        for seed in range(5):
            nb._blowup_auxiliary.cache_clear()
            cold = counting_bounds(TRIANGLE, n, seed=seed)
            warm = counting_bounds(TRIANGLE, n, seed=seed)
            assert asdict(cold) == asdict(warm) == asdict(oracles.ref_counting_bounds(TRIANGLE, n, seed))
        assert asdict(nb._blowup_auxiliary(TRIANGLE, n)) == asdict(partite_aux(n))


def test_blowup_auxiliary_cache_is_bounded_and_read_only():
    nb._blowup_auxiliary.cache_clear()
    for n in range(3, 9):
        counting_bounds(TRIANGLE, n, seed=1)
    info = nb._blowup_auxiliary.cache_info()
    assert info.misses == 6 and info.currsize <= nb._BLOWUP_AUXILIARIES
    aux = nb._blowup_auxiliary(TRIANGLE, 8)
    assert nb._blowup_auxiliary.cache_info().hits == 1
    with pytest.raises(FrozenInstanceError):
        aux.copies = []
    assert aux.pair_degree_max == 1  # the cached property still fills in


def test_auxiliary_fields_are_tuples_that_refuse_changes_in_place():
    aux = partite_aux(4)
    for name in ("atoms", "copies", "incidence"):
        assert type(getattr(aux, name)) is tuple, name
    with pytest.raises(TypeError):
        aux.incidence[0] = ()
    assert len(random_greedy(aux, seed=1).matching) > 0


def test_default_stop_density():
    assert default_count_stop(30) == Fraction(7, 10)
    assert default_count_stop(9) == Fraction(1)
    assert default_count_stop(10) == Fraction(1)
    assert default_count_stop(16) == Fraction(3, 4)


def test_tracking_against_idealized_copy_counts():
    # desk-scale echo: copy counts within 15% of d^3 n^3 while d >= 1/2
    n = 20
    host, hpart = blowup(TRIANGLE, [n, n, n])
    aux = build_auxiliary(host, TRIANGLE, (Partition.singletons(3), hpart))
    run = random_greedy(aux, seed=42, stop_density=Fraction(1, 2))
    assert run.stop_reason == "density"
    for s in run.steps:
        if s.density >= Fraction(1, 2):
            ideal = float(s.density) ** 3 * n**3
            assert abs(s.choices - ideal) <= 0.15 * ideal


def test_counting_upper_rates_for_known_patterns():
    # hypermutation patterns: per-cell upper log(n / e^r); the six-vertex
    # four-graph: per-cell upper log(n^2 / e^3)
    from decomp_lab.encodings import sudoku_pattern

    for r in (2, 3):
        simplex = Hypergraph.complete(r + 1, r)
        n = 3
        cb = counting_bounds(simplex, n, seed=1)
        assert abs(cb.per_cell_upper - (math.log(n) - r)) < 1e-12
    sp, _ = sudoku_pattern()
    cb = counting_bounds(sp, 2, seed=1)
    assert abs(cb.per_cell_upper - (math.log(4) - 3)) < 1e-12


def test_edgeless_copies_leave_the_pool_and_have_no_bounds():
    aux = build_auxiliary(Hypergraph.complete(4, 2), Hypergraph.from_edges(3, 2, []))
    assert aux.copies == ((),)
    assert random_greedy(aux, 1, stop_steps=2).matching == [0]
    run = random_greedy(aux, 1)
    assert run.matching == [0] and run.stop_reason == "exhausted"
    with pytest.raises(ValueError, match="no edges"):
        counting_bounds(Hypergraph.from_edges(3, 2, []), 3, 1)
