"""Exact decomposition search and counting via capacity-aware exact cover.

Hosts are atomized into columns (edge, (edge, colour) or arc slots with
capacities), pattern copies into rows (footprints), and the search is a
deterministic most-constrained-column backtracker.  A decomposition selects
distinct footprints whose slot sums hit every capacity exactly; "none" is
only reported on exhausted search, and timeouts are a distinct outcome
carrying a resumable frontier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
)
from .intlattice import IncrementalLattice


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# atomization


def host_atoms(host) -> dict:
    """Column keys with capacities.  Edges and arcs are their own keys;
    coloured hosts key on (edge-or-arc, colour)."""
    if isinstance(host, Hypergraph):
        return {e: 1 for e in host.sorted_edges()}
    if isinstance(host, ColouredMultigraph):
        out = {}
        for e, vec in host.mult:
            for d, m in enumerate(vec):
                if m:
                    out[(e, d)] = m
        return out
    if isinstance(host, Digraph):
        return {a: 1 for a in host.sorted_arcs()}
    if isinstance(host, ColouredMultidigraph):
        out = {}
        for a, vec in host.mult:
            for d, m in enumerate(vec):
                if m:
                    out[(a, d)] = m
        return out
    raise TypeError(f"unsupported host type {type(host)!r}")


def _pattern_atoms(pattern) -> tuple[int, list]:
    """(vertex count, [(pattern vertex tuple, atom key builder)]) where the
    builder maps host images of the tuple to a column key."""
    if isinstance(pattern, Hypergraph):
        return pattern.n, [
            (e, lambda img, e=e: tuple(sorted(img))) for e in pattern.sorted_edges()
        ]
    if isinstance(pattern, ColouredMultigraph):
        items = []
        for e, vec in pattern.mult:
            if sum(vec) != 1:
                raise ValueError("pattern edges must carry exactly one colour once")
            d = vec.index(1)
            items.append((e, lambda img, d=d: (tuple(sorted(img)), d)))
        return pattern.n, items
    if isinstance(pattern, Digraph):
        return pattern.n, [(a, lambda img: tuple(img)) for a in pattern.sorted_arcs()]
    if isinstance(pattern, ColouredMultidigraph):
        items = []
        for a, vec in pattern.mult:
            if sum(vec) != 1:
                raise ValueError("pattern arcs must carry exactly one colour once")
            d = vec.index(1)
            items.append((a, lambda img, d=d: (tuple(img), d)))
        return pattern.n, items
    raise TypeError(f"unsupported pattern type {type(pattern)!r}")


# ---------------------------------------------------------------------------
# copy enumeration


@dataclass
class CopyTable:
    atoms: list  # column keys, canonical order
    capacities: list
    footprints: list  # sorted tuples of atom indices
    embeddings: list  # one representative (pattern index, images) per footprint
    multiplicities: list  # number of embeddings per footprint


def enumerate_copies(host, patterns, partition=None, budget: int = 10_000_000) -> CopyTable:
    """All pattern copies whose footprint fits inside the host.

    ``patterns`` is a single pattern or a list; ``partition`` an optional
    (pattern Partition, host Partition) pair constraining images partwise.
    Footprints are deduplicated; each keeps a representative embedding and
    an embedding count.
    """
    if not isinstance(patterns, (list, tuple)):
        patterns = [patterns]
    atoms = host_atoms(host)
    atom_order = sorted(atoms, key=repr)
    atom_index = {a: i for i, a in enumerate(atom_order)}
    n_host = host.n
    part_pool = None
    if partition is not None:
        pattern_partition, host_partition = partition
        part_of = pattern_partition.assignment()
        pools = [list(p) for p in host_partition.parts]
        part_pool = [pools[part_of[x]] for x in range(pattern_partition.ground_size)]
    found: dict[tuple, tuple] = {}
    counts: dict[tuple, int] = {}
    nodes = 0
    for p_idx, pattern in enumerate(patterns):
        q, items = _pattern_atoms(pattern)
        if part_pool is not None and len(part_pool) != q:
            raise ValueError("pattern partition does not match pattern order")
        # place vertices in an order that closes edges early
        occurrences = {x: 0 for x in range(q)}
        for verts, _ in items:
            for x in verts:
                occurrences[x] += 1
        order = sorted(range(q), key=lambda x: (-occurrences[x], x))
        placed_at = {x: k for k, x in enumerate(order)}
        # atoms ready for checking once their last vertex is placed
        ready: list[list] = [[] for _ in range(q)]
        for verts, builder in items:
            last = max(placed_at[x] for x in verts)
            ready[last].append((verts, builder))
        images = [None] * q
        used = set()

        def rec(k: int):
            nonlocal nodes
            if k == q:
                keys = []
                ok = True
                for verts, builder in items:
                    key = builder(tuple(images[x] for x in verts))
                    if key not in atoms:
                        ok = False
                        break
                    keys.append(atom_index[key])
                if ok:
                    fp = tuple(sorted(keys))
                    if len(set(fp)) != len(fp):
                        raise ValueError("pattern covers one host slot twice")
                    counts[fp] = counts.get(fp, 0) + 1
                    if fp not in found:
                        found[fp] = (p_idx, tuple(images))
                return
            x = order[k]
            pool = part_pool[x] if part_pool is not None else range(n_host)
            for v in pool:
                if v in used:
                    continue
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"copy enumeration exceeded {budget} nodes")
                images[x] = v
                ok = True
                for verts, builder in ready[k]:
                    key = builder(tuple(images[y] for y in verts))
                    if key not in atoms:
                        ok = False
                        break
                if ok:
                    used.add(v)
                    rec(k + 1)
                    used.discard(v)
            images[x] = None

        rec(0)
    order_fp = sorted(found)
    return CopyTable(
        atoms=atom_order,
        capacities=[atoms[a] for a in atom_order],
        footprints=order_fp,
        embeddings=[found[fp] for fp in order_fp],
        multiplicities=[counts[fp] for fp in order_fp],
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    footprint_indices: list
    embeddings: list  # (pattern index, images) per selected copy
    weights: list | None = None  # integral mode

    def to_json_dict(self) -> dict:
        doc = {
            "type": "decomposition-certificate",
            "copies": [
                {"pattern": p, "images": list(images)}
                for p, images in self.embeddings
            ],
        }
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Certificate":
        if doc.get("type") != "decomposition-certificate":
            raise ValueError("not a decomposition certificate")
        embeddings = [(c["pattern"], tuple(c["images"])) for c in doc["copies"]]
        return cls(
            footprint_indices=[],
            embeddings=embeddings,
            weights=doc.get("weights"),
        )


@dataclass
class SolveResult:
    status: str  # found | none | timeout
    certificate: Certificate | None
    nodes: int
    elapsed: float
    frontier: list | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Timeout(Exception):
    def __init__(self, frontier):
        self.frontier = frontier


class _CoverSearch:
    """Deterministic capacity-aware exact cover over a copy table."""

    def __init__(self, table: CopyTable):
        self.rows = table.footprints
        self.caps = list(table.capacities)
        self.ncols = len(table.atoms)
        self.col_rows: list[set] = [set() for _ in range(self.ncols)]
        for r, fp in enumerate(self.rows):
            for c in fp:
                self.col_rows[c].add(r)
        self.alive = [True] * len(self.rows)
        self.need = list(self.caps)
        self.open_cols = {c for c in range(self.ncols) if self.need[c] > 0}
        self.selection: list[int] = []
        self.nodes = 0
        self.deadline = None
        self.node_budget = None

    # -- mutations with undo trail

    def _kill_row(self, r: int, trail: list) -> None:
        if self.alive[r]:
            self.alive[r] = False
            trail.append(("row", r))
            for c in self.rows[r]:
                self.col_rows[c].discard(r)

    def _select(self, r: int, trail: list) -> bool:
        self.selection.append(r)
        trail.append(("sel",))
        self._kill_row(r, trail)
        ok = True
        for c in self.rows[r]:
            self.need[c] -= 1
            trail.append(("need", c))
            if self.need[c] == 0:
                self.open_cols.discard(c)
                trail.append(("open", c))
                for rr in list(self.col_rows[c]):
                    self._kill_row(rr, trail)
            elif len(self.col_rows[c]) < self.need[c]:
                ok = False
        return ok

    def _undo(self, trail: list) -> None:
        while trail:
            op = trail.pop()
            if op[0] == "row":
                r = op[1]
                self.alive[r] = True
                for c in self.rows[r]:
                    self.col_rows[c].add(r)
            elif op[0] == "need":
                self.need[op[1]] += 1
            elif op[0] == "open":
                self.open_cols.add(op[1])
            else:
                self.selection.pop()

    # -- search

    def _tick(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _Timeout(list(self.selection))
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout(list(self.selection))

    def _choose(self) -> int | None:
        best = None
        best_key = None
        for c in self.open_cols:
            k = (len(self.col_rows[c]), c)
            if best_key is None or k < best_key:
                best_key = k
                best = c
        return best

    def run(self, on_solution, replay=None):
        """Search until on_solution returns True (then True) or the space is
        exhausted (then False)."""
        return self._search(on_solution, replay or [])

    def _search(self, on_solution, replay) -> bool:
        self._tick()
        if not self.open_cols:
            return on_solution(list(self.selection))
        c = self._choose()
        cands = sorted(self.col_rows[c])
        if len(cands) < self.need[c]:
            return False
        start = 0
        inner_replay = []
        if replay:
            target = replay[0]
            if target in cands:
                start = cands.index(target)
                inner_replay = replay[1:]
        for pos in range(start, len(cands)):
            r = cands[pos]
            trail: list = []
            # r is the lowest-indexed selected row covering c in this branch
            viable = True
            for rr in cands[:pos]:
                self._kill_row(rr, trail)
            if len(self.col_rows[c]) < self.need[c]:
                viable = False
            if viable:
                viable = self._select(r, trail)
            if viable:
                if self._search(on_solution, inner_replay):
                    self._undo(trail)
                    return True
            self._undo(trail)
            inner_replay = []
        return False


def find_decomposition(
    host,
    patterns,
    partition=None,
    timeout: float | None = 60.0,
    node_budget: int | None = None,
    table: CopyTable | None = None,
    resume: list | None = None,
) -> SolveResult:
    """First decomposition under the deterministic search order.

    Returns status "none" only when the search space is exhausted; hitting
    the time or node budget returns "timeout" with a frontier that can be
    passed back as ``resume`` to continue the identical search.
    """
    table = table or enumerate_copies(host, patterns, partition)
    search = _CoverSearch(table)
    if timeout is not None:
        search.deadline = time.monotonic() + timeout
    search.node_budget = node_budget
    t0 = time.monotonic()
    solution: list | None = None

    def on_solution(sel):
        nonlocal solution
        solution = sel
        return True

    try:
        found = search.run(on_solution, replay=resume)
    except _Timeout as t:
        return SolveResult(
            status="timeout",
            certificate=None,
            nodes=search.nodes,
            elapsed=time.monotonic() - t0,
            frontier=t.frontier,
        )
    if not found:
        return SolveResult(
            status="none",
            certificate=None,
            nodes=search.nodes,
            elapsed=time.monotonic() - t0,
        )
    cert = Certificate(
        footprint_indices=sorted(solution),
        embeddings=[table.embeddings[r] for r in sorted(solution)],
    )
    return SolveResult(
        status="found",
        certificate=cert,
        nodes=search.nodes,
        elapsed=time.monotonic() - t0,
    )


def count_decompositions(
    host,
    patterns,
    partition=None,
    timeout: float | None = None,
    table: CopyTable | None = None,
) -> int:
    """Exact number of decompositions (sets of footprints)."""
    table = table or enumerate_copies(host, patterns, partition)
    search = _CoverSearch(table)
    if timeout is not None:
        search.deadline = time.monotonic() + timeout
    count = 0

    def on_solution(_sel):
        nonlocal count
        count += 1
        return False

    try:
        search.run(on_solution)
    except _Timeout:
        raise BudgetExceeded("counting hit the time budget")
    return count


@dataclass
class VerificationReport:
    valid: bool
    deficit: list = field(default_factory=list)  # (atom, missing amount)
    surplus: list = field(default_factory=list)  # (atom, excess amount)

    def __bool__(self) -> bool:
        return self.valid


def verify_certificate(host, patterns, cert: Certificate, partition=None) -> VerificationReport:
    """Recompute every footprint from its embedding and compare the slot
    sums against the host capacities exactly."""
    if not isinstance(patterns, (list, tuple)):
        patterns = [patterns]
    atoms = host_atoms(host)
    covered: dict = {}
    weights = cert.weights if cert.weights is not None else [1] * len(cert.embeddings)
    for (p_idx, images), w in zip(cert.embeddings, weights):
        q, items = _pattern_atoms(patterns[p_idx])
        if len(images) != q or len(set(images)) != q:
            return VerificationReport(valid=False, deficit=[("embedding", images)])
        if partition is not None:
            pattern_partition, host_partition = partition
            hp = host_partition.assignment()
            pp = pattern_partition.assignment()
            for x, v in enumerate(images):
                if hp.get(v) != pp[x]:
                    return VerificationReport(
                        valid=False, deficit=[("partite", (x, v))]
                    )
        for verts, builder in items:
            key = builder(tuple(images[x] for x in verts))
            covered[key] = covered.get(key, 0) + w
    deficit = []
    surplus = []
    for a, cap in atoms.items():
        got = covered.pop(a, 0)
        if got < cap:
            deficit.append((a, cap - got))
        elif got > cap:
            surplus.append((a, got - cap))
    for a, got in covered.items():
        surplus.append((a, got))
    return VerificationReport(
        valid=not deficit and not surplus,
        deficit=sorted(deficit, key=repr),
        surplus=sorted(surplus, key=repr),
    )


def integral_decomposition_exists(
    host, patterns, partition=None, table: CopyTable | None = None
):
    """Does the host slot vector lie in the integer span of the copy
    footprint vectors?  Returns (exists, witness) with the witness a list
    of (footprint index, weight) pairs."""
    table = table or enumerate_copies(host, patterns, partition)
    ncols = len(table.atoms)
    lattice = IncrementalLattice(ncols)
    for fp in table.footprints:
        row = [0] * ncols
        for c in fp:
            row[c] = 1
        lattice.insert(row)
    witness = lattice.membership(table.capacities)
    if witness is None:
        return False, None
    return True, sorted(witness.items())
