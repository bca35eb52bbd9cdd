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


class TimeBudgetExceeded(BudgetExceeded):
    """The time budget ran out, in copy enumeration or in counting."""


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


def enumerate_copies(
    host, patterns, partition=None, budget: int = 10_000_000, deadline: float | None = None
) -> CopyTable:
    """All pattern copies whose footprint fits inside the host.

    ``patterns`` is a single pattern or a list; ``partition`` an optional
    (pattern Partition, host Partition) pair constraining images partwise.
    Footprints are deduplicated; each keeps a representative embedding and
    an embedding count.  More than ``budget`` nodes raise BudgetExceeded;
    passing the ``time.monotonic()`` instant ``deadline``, checked every
    1024 nodes, raises TimeBudgetExceeded.
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
    limit = budget if deadline is None else min(budget, 1024)  # next check
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
            nonlocal nodes, limit
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
                if nodes > limit:
                    if nodes > budget:
                        raise BudgetExceeded(f"copy enumeration exceeded {budget} nodes")
                    if time.monotonic() > deadline:
                        raise TimeBudgetExceeded("copy enumeration hit the time budget")
                    limit = min(budget, nodes + 1024)
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
    """Deterministic capacity-aware exact cover over a copy table.

    Rows are the bits of Python ints: ``masks[c]`` holds the rows covering
    column c, and a node's alive rows are one int passed down the recursion,
    so backtracking only restores the selected row's ``need`` entries.  When
    the alive rows grow sparse in their int, a subtree renumbers them densely
    in the same order; ``ids`` maps its row numbers back to footprint
    indices, which selections, solutions and frontiers always use.

    Counting each open column's alive rows through its mask costs a node
    about 40 ns per open column plus 1 ns per 30 bits of the alive int;
    keeping ``counts`` costs about 60 ns per column of each killed row, some
    ``alive * width**3 / open`` per node for ``width``-column footprints.
    Counts are kept while they are the cheaper (many columns of few rows,
    as in K_n^(3) by K_4^(3)) and dropped for good once a subtree is not.
    """

    def __init__(self, table: CopyTable):
        self.rows = table.footprints
        self.need = list(table.capacities)
        col_rows: list[list[int]] = [[] for _ in self.need]
        for r, fp in enumerate(self.rows):
            for c in fp:
                col_rows[c].append(r)
        self.masks = [_mask(rows) for rows in col_rows]
        self.kill_cost = 1800 * max(map(len, self.rows), default=0) ** 3
        self.selection: list[int] = []
        self.nodes = 0
        self.deadline = None
        self.node_budget = None

    def _tick(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _Timeout(list(self.selection))
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout(list(self.selection))

    def run(self, on_solution, replay=None):
        """Search until on_solution returns True (then True) or the space is
        exhausted (then False)."""
        self.on_solution = on_solution
        n = len(self.rows)
        open_cols = [c for c, k in enumerate(self.need) if k > 0]
        counts = [m.bit_count() for m in self.masks]
        return self._search((1 << n) - 1, self.masks, range(n), open_cols, counts, replay or [])

    def _search(self, alive, masks, ids, open_cols, counts, replay) -> bool:
        self._tick()
        if not open_cols:
            return self.on_solution(list(self.selection))
        n_alive = alive.bit_count()
        if alive.bit_length() > 4 * n_alive + 64:
            ids = [ids[i] for i in _bits(alive)]
            alive, masks = (1 << len(ids)) - 1, [0] * len(masks)
            for i, r in enumerate(ids):
                for col in self.rows[r]:
                    masks[col] |= 1 << i
        # the column with the fewest alive rows, lowest index on ties; the two
        # per-node costs of the class docstring, both times 30 * len(open_cols)
        if counts is not None and (
            len(open_cols) ** 2 * (1200 + alive.bit_length()) > self.kill_cost * n_alive
        ):
            c = min(open_cols, key=counts.__getitem__)
            least = counts[c]
        else:
            counts = None
            least = len(self.rows) + 1
            for col in open_cols:
                k = (masks[col] & alive).bit_count()
                if k < least:
                    c, least = col, k
                    if not k:
                        break
        need = self.need
        need_c = need[c]
        if least < need_c:
            return False
        rows_c = masks[c] & alive
        cands = _bits(rows_c)
        start = 0
        inner_replay = []
        if replay:
            targets = [ids[r] for r in cands]
            if replay[0] in targets:
                start = targets.index(replay[0])
                inner_replay = replay[1:]
        for pos in range(start, len(cands)):
            if len(cands) - pos < need_c:
                break  # fewer rows of c are left than c still needs
            r = cands[pos]
            # r is the lowest-indexed selected row covering c in this branch
            sub = alive ^ (rows_c & ((2 << r) - 1))
            fp = self.rows[ids[r]]
            done = 0
            viable = True
            closed = False
            for col in fp:
                done += 1
                k = need[col] - 1
                need[col] = k
                if k == 0:
                    sub &= ~masks[col]
                    closed = True
                elif (masks[col] & sub).bit_count() < k:
                    viable = False
                    break
            if viable:
                self.selection.append(ids[r])
                child_open = [x for x in open_cols if need[x]] if closed else open_cols
                if counts is not None:
                    killed = [self.rows[ids[k]] for k in _bits(alive ^ sub)]
                    for kfp in killed:
                        for col in kfp:
                            counts[col] -= 1
                viable = self._search(sub, masks, ids, child_open, counts, inner_replay)
                if counts is not None:
                    for kfp in killed:
                        for col in kfp:
                            counts[col] += 1
                self.selection.pop()
            for col in fp[:done]:
                need[col] += 1
            if viable:
                return True
            inner_replay = []
        return False


def _mask(bits: list[int]) -> int:
    """The int with exactly the given bits (ascending) set."""
    if not bits:
        return 0
    buf = bytearray(bits[-1] // 8 + 1)  # or-ing bits into an int is quadratic
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    out = []
    if x.bit_length() > 4096:  # peeling bits off a long int costs its length each
        digits = bin(x)
        top = len(digits) - 1
        i = digits.rfind("1")
        while i > 1:
            out.append(top - i)
            i = digits.rfind("1", 2, i)
        return out
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def find_decomposition(
    host,
    patterns,
    partition=None,
    timeout: float | None = 60.0,
    node_budget: int | None = None,
    table: CopyTable | None = None,
    resume: list | None = None,
    budget: int = 10_000_000,
) -> SolveResult:
    """First decomposition under the deterministic search order.

    Returns status "none" only when the search space is exhausted; hitting
    the time or node budget returns "timeout" with a frontier that can be
    passed back as ``resume`` to continue the identical search.  The time
    budget covers copy enumeration too (the frontier is then empty, so a
    resume starts over); ``budget`` caps its nodes as in enumerate_copies.
    """
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    try:
        table = table or enumerate_copies(host, patterns, partition, budget, deadline)
    except TimeBudgetExceeded:
        return SolveResult("timeout", None, 0, time.monotonic() - t0, frontier=[])
    search = _CoverSearch(table)
    search.deadline = deadline
    search.node_budget = node_budget
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
    budget: int = 10_000_000,
) -> int:
    """Exact number of decompositions (sets of footprints).  Running out of
    ``timeout``, copy enumeration included, raises TimeBudgetExceeded."""
    deadline = None if timeout is None else time.monotonic() + timeout
    table = table or enumerate_copies(host, patterns, partition, budget, deadline)
    search = _CoverSearch(table)
    search.deadline = deadline
    count = 0

    def on_solution(_sel):
        nonlocal count
        count += 1
        return False

    try:
        search.run(on_solution)
    except _Timeout:
        raise TimeBudgetExceeded("counting hit the time budget")
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
    sums against the host capacities exactly.  A copy whose pattern index
    is not an int naming one of the patterns makes the certificate invalid."""
    if not isinstance(patterns, (list, tuple)):
        patterns = [patterns]
    atoms = host_atoms(host)
    covered: dict = {}
    weights = cert.weights if cert.weights is not None else [1] * len(cert.embeddings)
    if partition is not None:
        pattern_partition, host_partition = partition
        hp = host_partition.assignment()
        pp = pattern_partition.assignment()
    pattern_atoms: dict = {}  # built on first use: patterns no copy names stay unchecked
    for (p_idx, images), w in zip(cert.embeddings, weights):
        if type(p_idx) is not int or not 0 <= p_idx < len(patterns):
            return VerificationReport(valid=False, deficit=[("pattern", p_idx)])
        if p_idx not in pattern_atoms:
            pattern_atoms[p_idx] = _pattern_atoms(patterns[p_idx])
        q, items = pattern_atoms[p_idx]
        if len(images) != q or len(set(images)) != q:
            return VerificationReport(valid=False, deficit=[("embedding", images)])
        if partition is not None:
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
