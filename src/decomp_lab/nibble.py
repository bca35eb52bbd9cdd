"""Random greedy matching on the auxiliary copy-hypergraph.

The auxiliary instance puts one vertex per host slot and one hyperedge per
pattern copy; the process repeatedly picks a uniformly random surviving
copy and deletes everything it conflicts with.  Trajectories are exactly
reproducible from the seed, and the counting summary pairs the product of
per-step choice counts with the vertex-degree upper bound.

The auxiliary of a complete blowup depends on (pattern, n) alone, so the
counting summary reads it from a small bounded LRU cache and only the
greedy run is repeated per seed.  Auxiliaries are frozen and shared
read-only; two threads that miss together only build one twice.

The asymptotic stop thresholds that make the counting formulas exact are
far beyond desk scale; every stop criterion here is a user parameter and
the dropped correction terms are flagged in the outputs.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat

from .core import Hypergraph, Partition, blowup
from .rng import SplitMix64
from .solver import CopyTable, enumerate_copies


@dataclass(frozen=True)
class AuxiliaryMatchingInstance:
    atoms: tuple  # host slots
    copies: tuple  # tuples of atom indices, uniform size
    vertex_count: int  # N
    copy_size: int  # R
    degree_min: int
    degree_max: int
    degree_avg: Fraction
    incidence: tuple  # atom index -> tuple of copy ids

    @property
    def N(self) -> int:
        return self.vertex_count

    @property
    def R(self) -> int:
        return self.copy_size

    @cached_property
    def pair_degree_max(self) -> int:
        """The most copies through one pair of slots, counted on first read."""
        pair_deg = Counter(chain.from_iterable(map(combinations, self.copies, repeat(2))))
        return max(pair_deg.values()) if pair_deg else 0


def build_auxiliary(host, patterns, partition=None, budget: int = 10_000_000) -> AuxiliaryMatchingInstance:
    """The copy hypergraph with its exact degree statistics; the pair
    degree is counted when first read."""
    table: CopyTable = enumerate_copies(host, patterns, partition, budget=budget)
    if any(cap != 1 for cap in table.capacities):
        raise ValueError("matching instances need capacity-1 hosts")
    sizes = {len(fp) for fp in table.footprints}
    if len(sizes) > 1:
        raise ValueError("copies have mixed sizes; the auxiliary graph is not uniform")
    R = sizes.pop() if sizes else 0
    N = len(table.atoms)
    incidence: list[list] = [[] for _ in range(N)]
    for cid, fp in enumerate(table.footprints):
        for a in fp:
            incidence[a].append(cid)
    degrees = [len(lst) for lst in incidence]
    return AuxiliaryMatchingInstance(
        atoms=table.atoms,
        copies=table.footprints,
        vertex_count=N,
        copy_size=R,
        degree_min=min(degrees) if degrees else 0,
        degree_max=max(degrees) if degrees else 0,
        degree_avg=Fraction(sum(degrees), N) if N else Fraction(0),
        incidence=tuple(map(tuple, incidence)),
    )


@dataclass
class TrajectoryStep:
    step: int
    chosen: int
    choices: int  # surviving copies when the choice was made
    alive_after: int
    density: Fraction  # 1 - step * R / N

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "chosen": self.chosen,
            "choices": self.choices,
            "alive_after": self.alive_after,
            "density": str(self.density),
        }


@dataclass
class GreedyRun:
    seed: int
    matching: list
    steps: list
    stop_reason: str  # exhausted | density | steps

    def dump_jsonl(self) -> str:
        lines = [
            json.dumps(s.to_json_dict(), sort_keys=True, separators=(",", ":"))
            for s in self.steps
        ]
        return "\n".join(lines)


def random_greedy(
    aux: AuxiliaryMatchingInstance,
    seed: int,
    stop_density=None,
    stop_steps: int | None = None,
) -> GreedyRun:
    """Uniformly random surviving copy each step, conflicts deleted.

    Stops at the density threshold (checked before each step against
    1 - i*R/N), after ``stop_steps`` selections, or at exhaustion.
    """
    copies, incidence = aux.copies, aux.incidence
    draws = SplitMix64(seed).stream
    top = 1 << 64
    safe = top - len(copies)  # every draw below it is accepted at any pool size
    alive = [True] * len(copies)
    alive_count = len(copies)
    pool = list(range(len(copies)))
    matching: list[int] = []
    steps: list[TrajectoryStep] = []
    stop_density = Fraction(stop_density) if stop_density is not None else None
    i = 0
    stop_reason = "exhausted"
    while alive_count > 0:
        density = Fraction(aux.N - i * aux.R, aux.N) if aux.N else Fraction(0)
        if stop_density is not None and density < stop_density:
            stop_reason = "density"
            break
        if stop_steps is not None and i >= stop_steps:
            stop_reason = "steps"
            break
        # uniform over alive copies; dead pool entries are discarded lazily.
        # The draw is SplitMix64.randrange(n) inlined: it rejects x only at
        # or above 2**64 - 2**64 % n, which exceeds 2**64 - n >= safe.
        while True:
            n = len(pool)
            x = next(draws)
            if x >= safe:
                limit = top - top % n
                while x >= limit:
                    x = next(draws)
            idx = x % n
            cid = pool[idx]
            if alive[cid]:
                break
            pool[idx] = pool[-1]
            pool.pop()
        choices = alive_count
        matching.append(cid)
        alive[cid] = False  # an edgeless copy has no slot to kill it
        alive_count -= 1
        for a in copies[cid]:
            for other in incidence[a]:
                if alive[other]:
                    alive[other] = False
                    alive_count -= 1
        steps.append(
            TrajectoryStep(
                step=i,
                chosen=cid,
                choices=choices,
                alive_after=alive_count,
                density=density,
            )
        )
        i += 1
    return GreedyRun(seed=seed, matching=matching, steps=steps, stop_reason=stop_reason)


@dataclass
class CountingBounds:
    log_upper: float
    log_lower_estimate: float
    per_cell_upper: float
    per_cell_lower: float
    cells: int
    steps_run: int
    o_terms_dropped: bool = True
    notes: list[str] = field(default_factory=list)


DEFAULT_COUNT_STOP_FLOOR = Fraction(7, 10)


def default_count_stop(n: int) -> Fraction:
    """Stop density for the counting estimate: max(7/10, 3 / isqrt(n)).

    The truncated run-count product exceeds the degree upper bound if
    accumulated too far: for the triangle case the idealized partial sum
    crosses it at density e/sqrt(n) and only the (unreachable) full run
    telescopes back down.  Stopping above the crossing, with 3 > e as
    margin, keeps the estimate an actual lower bound at desk scale.
    """
    return max(DEFAULT_COUNT_STOP_FLOOR, Fraction(3, math.isqrt(max(n, 1))))


def counting_bounds(
    pattern: Hypergraph, n: int, seed: int, stop_density=None
) -> CountingBounds:
    """Counting summary for decompositions of the complete blowup.

    Upper: (N/R) * log(D e^(1-R)) with N = |pattern| n^r, R = |pattern|,
    D = n^(q-r).  Lower estimate: sum over trajectory steps of
    log(choices / (n^r - step)), i.e. the log of the run-count ratio, with
    all correction terms dropped (flagged); see default_count_stop for why
    the trajectory stops early by default.
    """
    return _blowup_bounds(pattern, n, seed, stop_density)[0]


# Blowup auxiliaries kept for reuse across seeds: criterion 11 and the bench
# sweep three sizes.  Keep it small; an n = 100 triangle blowup holds about
# 10^6 copies.
_BLOWUP_AUXILIARIES = 4


@lru_cache(maxsize=_BLOWUP_AUXILIARIES)
def _blowup_auxiliary(pattern: Hypergraph, n: int) -> AuxiliaryMatchingInstance:
    """The auxiliary of the complete n-blowup of ``pattern``, shared by every
    caller: it depends on (pattern, n) alone, never on the seed."""
    host, host_partition = blowup(pattern, [n] * pattern.n)
    return build_auxiliary(host, pattern, (Partition.singletons(pattern.n), host_partition))


def _blowup_bounds(
    pattern: Hypergraph, n: int, seed: int, stop_density=None
) -> tuple[CountingBounds, GreedyRun]:
    """counting_bounds and the greedy run it read its steps from."""
    if not pattern.edges:
        raise ValueError("pattern has no edges; its blowup has nothing to count")
    if stop_density is None:
        stop_density = default_count_stop(n)
    aux = _blowup_auxiliary(pattern, n)
    R = aux.R
    q, r = pattern.n, pattern.r
    D = n ** (q - r)
    cells = n**r
    log_upper = (aux.N / R) * (math.log(D) + 1 - R)
    run = random_greedy(aux, seed=seed, stop_density=stop_density)
    log_lower = 0.0
    for s in run.steps:
        log_lower += math.log(s.choices) - math.log(cells - s.step)
    bounds = CountingBounds(
        log_upper=log_upper,
        log_lower_estimate=log_lower,
        per_cell_upper=log_upper / cells,
        per_cell_lower=log_lower / cells,
        cells=cells,
        steps_run=len(run.steps),
        o_terms_dropped=True,
        notes=[
            "asymptotic correction terms dropped; desk-scale estimate only",
            f"stop={run.stop_reason}",
        ],
    )
    return bounds, run
