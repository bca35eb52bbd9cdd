"""Exact decomposition search and counting via capacity-aware exact cover.

Hosts are atomized into columns (edge, (edge, colour) or arc slots with
capacities), pattern copies into rows (footprints), and the search is a
deterministic most-constrained-column backtracker.  A decomposition selects
distinct footprints whose slot sums hit every capacity exactly; "none" is
only reported on exhausted search, and timeouts are a distinct outcome
carrying a resumable frontier.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .intlattice import SpanChecker

_log = logging.getLogger(__name__)


class BudgetExceeded(RuntimeError):
    pass


class TimeBudgetExceeded(BudgetExceeded):
    """The time budget ran out, in copy enumeration or in counting."""


# ---------------------------------------------------------------------------
# atomization


def host_atoms(host) -> dict:
    """Column keys with capacities.  Edges and arcs are their own keys;
    coloured hosts key on (edge-or-arc, colour)."""
    out = {}
    for item, vec in host.slots():
        if vec is None:
            out[item] = 1
        else:
            for d, m in enumerate(vec):
                if m:
                    out[(item, d)] = m
    return out


def _getter(verts):
    """The function from a sequence to the tuple of its entries at verts."""
    if len(verts) > 1:
        return itemgetter(*verts)
    return lambda seq: tuple(seq[x] for x in verts)


def _pattern_atoms(pattern) -> tuple[int, list]:
    """(vertex count, [(pattern vertex tuple, atom key function)]) where the
    function maps the host images of all pattern vertices, indexed by
    pattern vertex, to the slot's column key: the images of the arc, the
    sorted images of the edge, paired with the colour for coloured
    patterns."""
    items = []
    for item, colour in pattern.unit_colours() if pattern._coloured else pattern.slots():
        get = _getter(item)
        key = get if pattern._ordered else (lambda seq, get=get: tuple(sorted(get(seq))))
        if colour is not None:
            key = lambda seq, key=key, d=colour: (key(seq), d)
        items.append((item, key))
    return pattern.n, items


def _rest_index(keys, ordered: bool, coloured: bool) -> dict:
    """The rest map of the column keys ``keys``, each column its position:
    for every key and every vertex v of its edge or arc, the triple (v's
    position in the arc, or None for an edge; the colour, or None when
    uncoloured; the edge or arc without v) maps to {v: column}.  The
    column of a slot closed by placing v is then one lookup of v in the
    map of the slot's other images."""
    index: dict = {}
    for column, key in enumerate(keys):
        item, colour = key if coloured else (key, None)
        for i, v in enumerate(item):
            rest = (i if ordered else None, colour, item[:i] + item[i + 1 :])
            index.setdefault(rest, {})[v] = column
    return index


def _rest_key(verts, x, ordered: bool, colour):
    """The function from the host images of all pattern vertices to the
    rest-map key (see _rest_index) of the slot on ``verts`` less x."""
    i = verts.index(x)
    get = _getter(verts[:i] + verts[i + 1 :])
    if ordered:
        return lambda seq: (i, colour, get(seq))
    return lambda seq: (None, colour, tuple(sorted(get(seq))))


# ---------------------------------------------------------------------------
# copy enumeration


@dataclass
class CopyTable:
    atoms: list  # column keys, canonical order
    capacities: list
    footprints: list  # sorted tuples of atom indices
    embeddings: list  # one representative (pattern index, images) per footprint
    multiplicities: list  # number of embeddings per footprint


def _placements(plans, index, budget=math.inf, deadline=None):
    """Yield, for each plan in turn, its placements whose slots all have
    columns in the rest map ``index``, in batches: lists of rows
    (footprint, plan index, images) with the footprint the sorted tuple of
    the slots' columns and ``images`` the host vertex per pattern vertex.

    A plan (order, ready, pools, after) places pattern vertex order[k] at
    level k on the members of pools[order[k]] in pool order, skipping host
    vertices already used and, when after[k] is not -1, every pool position
    up to that of the vertex placed at level after[k]; ready[k] holds, for
    each slot whose last vertex is order[k], the function from ``images``
    to the slot's rest key.  Entering level k resolves those keys to their
    {vertex: column} maps once, and each candidate then looks itself up in
    them; a key missing from ``index`` gives an empty map, so its candidates
    fail but still count as nodes.  The last level counts its candidates
    as nodes all at once, builds their rows in its own frame and yields
    them as one batch, never an empty one, so the rows come in walk order
    and no leaf passes up through the levels above.  More than ``budget``
    nodes raise BudgetExceeded; passing the ``time.monotonic()`` instant
    ``deadline``, checked every 1024 nodes and when the walk ends, raises
    TimeBudgetExceeded.
    """
    nodes = 0
    limit = budget if deadline is None else min(budget, 1024)  # next check
    keys: list = []  # the columns found, in level order
    used: set = set()
    empty: dict = {}

    def tick():
        nonlocal limit
        if nodes > budget:
            raise BudgetExceeded(f"copy enumeration exceeded {budget} nodes")
        if time.monotonic() > deadline:
            raise TimeBudgetExceeded("copy enumeration hit the time budget")
        limit = min(budget, nodes + 1024)

    def level(k):
        nonlocal nodes
        x = order[k]
        pool = pools[x]
        columns = [index.get(rest(images), empty) for rest in ready[k]]
        start = at[after[k]] + 1 if after[k] >= 0 else 0
        if k == last:
            candidates = [v for v in pool[start:] if v not in used]
            nodes += len(candidates)
            if nodes > limit:
                tick()
            batch = []
            mark = len(keys)
            for v in candidates:
                images[x] = v
                for column in columns:
                    a = column.get(v)
                    if a is None:
                        break
                    keys.append(a)
                else:
                    batch.append((tuple(sorted(keys)), p, tuple(images)))
                del keys[mark:]
            if batch:
                yield batch
            return
        for i in range(start, len(pool)):
            v = pool[i]
            if v in used:
                continue
            nodes += 1
            if nodes > limit:
                tick()
            images[x] = v
            mark = len(keys)
            for column in columns:
                a = column.get(v)
                if a is None:
                    break
                keys.append(a)
            else:
                at[k] = i
                used.add(v)
                yield from level(k + 1)
                used.discard(v)
            del keys[mark:]

    for p, (order, ready, pools, after) in enumerate(plans):
        images = [None] * len(order)
        at = [0] * len(order)  # pool position of the vertex placed per level
        last = len(order) - 1
        if order:
            yield from level(0)
        else:
            yield [((), p, ())]
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("copy enumeration hit the time budget")


def _plan(pattern, part_of: dict | None, host_pools: list, deadline=None) -> tuple:
    """(placement plan, embeddings per placement) for one pattern;
    ``part_of`` maps each pattern vertex to its part (None: one part) and
    ``host_pools[j]`` lists the host vertices of part j.  The plan's
    ready[k] holds the rest-key functions (see _rest_key) of the slots that
    placing order[k] closes.

    Vertices are placed in an order that closes edges early.  The
    automorphisms of the pattern (the vertex permutations that keep every
    vertex in its part and map slot keys, colours and orientation included,
    onto slot keys) act freely on the placements and keep their footprints.
    With O_k the images of order[k] under the automorphisms fixing
    order[:k] pointwise, requiring the vertex placed at level k to follow, in
    pool position, the vertex placed at each earlier level j with order[k]
    in O_j keeps exactly the least placement of each orbit in walk order
    (Puget, "Breaking symmetries in all different problems", IJCAI 2005),
    and each stands for prod |O_k| embeddings.  That chain of constraints
    closes under transitivity, so the latest such level j is the only one
    checked.
    """
    q, items = _pattern_atoms(pattern)
    if part_of is not None and len(part_of) != q:
        raise ValueError("pattern partition does not match pattern order")
    part = [0] * q if part_of is None else [part_of[x] for x in range(q)]
    occurrences = [0] * q
    for verts, _ in items:
        for x in verts:
            occurrences[x] += 1
    order = sorted(range(q), key=lambda x: (-occurrences[x], x))
    level_of = [0] * q
    for k, x in enumerate(order):
        level_of[x] = k
    coloured = pattern._coloured
    own = [key(range(q)) for _, key in items]
    ready: list[list] = [[] for _ in range(q)]
    for (verts, _), key in zip(items, own):
        x = max(verts, key=level_of.__getitem__)
        colour = key[1] if coloured else None
        ready[level_of[x]].append(_rest_key(verts, x, pattern._ordered, colour))
    own_index = _rest_index(own, pattern._ordered, coloured)
    orbits = _orbits(order, ready, part, own_index, deadline)
    after = [max((j for j in range(k) if x in orbits[j]), default=-1) for k, x in enumerate(order)]
    plan = (order, ready, [host_pools[part[x]] for x in range(q)], after)
    return plan, math.prod(map(len, orbits))


def _orbits(order, ready, part, own_index, deadline=None) -> list[list[int]]:
    """O_k for each level k: the pattern vertices that an automorphism
    fixing order[:k] pointwise maps order[k] to.

    Each candidate image is decided by a search for one such automorphism,
    a placement of the pattern on itself whose slots all have columns in
    ``own_index``, the rest map of the pattern's own slot keys, which stops
    at the first one found; the group is never listed.
    """
    q = len(order)
    pools = [[y for y in range(q) if part[y] == part[x]] for x in range(q)]
    no_after = [-1] * q
    orbits = []
    for k, x in enumerate(order):
        orbit = [x]
        for y in order[k + 1 :]:
            if part[y] == part[x]:
                pools[x] = [y]
                plans = [(order, ready, pools, no_after)]
                if next(_placements(plans, own_index, deadline=deadline), None):
                    orbit.append(y)
        pools[x] = [x]
        orbits.append(orbit)
    return orbits


def enumerate_copies(
    host, patterns, partition=None, budget: int = 10_000_000, deadline: float | None = None
) -> CopyTable:
    """All pattern copies whose footprint fits inside the host.

    ``patterns`` is a single pattern or a list; ``partition`` an optional
    (pattern Partition, host Partition) pair constraining images partwise.
    Footprints are deduplicated; each keeps a representative embedding (the
    first in the walk order) and an embedding count.  The walk visits one
    embedding per orbit of the pattern's automorphisms and counts it
    |Aut(pattern)| times, so the table is the one that placing every
    labelled embedding gives.  ``budget`` caps the nodes of that reduced
    walk (one per host vertex tried at a level): more raise BudgetExceeded.
    Passing the ``time.monotonic()`` instant ``deadline``, checked every
    1024 nodes and when the walk ends, raises TimeBudgetExceeded.  Pattern
    arcs go only onto host arcs and pattern edges only onto host edges.
    """
    if not isinstance(patterns, (list, tuple)):
        patterns = [patterns]
    atoms = host_atoms(host)
    atom_order = sorted(atoms, key=repr)
    index = _rest_index(atom_order, host._ordered, host._coloured)
    host_pools = [range(host.n)]
    part_of = None
    if partition is not None:
        pattern_partition, host_partition = partition
        if pattern_partition.t > host_partition.t:
            raise ValueError("host partition has fewer parts than the pattern partition")
        part_of = pattern_partition.assignment()
        host_pools = [list(p) for p in host_partition.parts]
    plans, multiplicities = [], []
    for pattern in patterns:
        plan, multiplicity = _plan(pattern, part_of, host_pools, deadline)
        plans.append(plan)
        multiplicities.append(multiplicity)
    rows = list(chain.from_iterable(_placements(plans, index, budget, deadline)))
    rows.sort(key=itemgetter(0))  # stable: equal footprints stay in walk order
    footprints, embeddings, counts = [], [], []
    last = None
    for fp, p_idx, images in rows:
        if fp == last:
            counts[-1] += multiplicities[p_idx]
        else:
            footprints.append(fp)
            embeddings.append((p_idx, images))
            counts.append(multiplicities[p_idx])
            last = fp
    return CopyTable(
        atoms=atom_order,
        capacities=[atoms[a] for a in atom_order],
        footprints=footprints,
        embeddings=embeddings,
        multiplicities=counts,
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
        if type(doc) is not dict or doc.get("type") != "decomposition-certificate":
            raise ValueError("not a decomposition certificate")
        try:
            embeddings = [(c["pattern"], tuple(c["images"])) for c in doc["copies"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"certificate copies need a pattern and images: {exc!r}") from None
        if any(type(v) is not int for _, images in embeddings for v in images):
            raise ValueError("certificate images must be host vertices (integers)")
        weights = doc.get("weights")
        if weights is not None and (
            type(weights) is not list or any(type(w) is not int for w in weights)
        ):
            raise ValueError("certificate weights must be a list of integers")
        return cls(footprint_indices=[], embeddings=embeddings, weights=weights)


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


# Keys per generation of a count's memo: hits are local in walk order, so two
# small generations keep nearly all of them within a bounded size.
_COUNT_MEMO = 4096
# Bits of one numbering's per-row conflict masks in a count (rows² of them):
# below it, entering a child is one mask operation, above it one per column.
_CONFLICT_BITS = 1 << 24


class _CoverSearch:
    """Deterministic capacity-aware exact cover over a copy table.

    Rows are the bits of Python ints: ``masks[c]`` holds the rows covering
    column c, and a node's alive rows are one int.  ``solutions`` walks the
    search tree with an explicit stack, one frame per selected row holding
    the parent node's state and place in its candidate list, so depth is
    bounded only by memory and backtracking only restores the selected
    row's ``need`` entries.  When the alive rows grow sparse in their int,
    a subtree renumbers them densely in the same order; ``ids`` maps its
    row numbers back to footprint indices, which selections, solutions and
    frontiers always use.

    Counting each open column's alive rows through its mask costs a node
    about 40 ns per open column plus 1 ns per 30 bits of the alive int;
    keeping ``counts`` costs about 60 ns per column of each killed row, some
    ``alive * width**3 / open`` per node for ``width``-column footprints.
    Counts are kept while they are the cheaper (many columns of few rows,
    as in K_n^(3) by K_4^(3)) and dropped for good once a subtree is not.
    While they are kept, a closed column's entry carries an offset larger
    than any open column's count, so the first least entry of ``counts`` is
    the column the rule picks and no list of open columns is kept; that
    list is built from ``need`` when counts are dropped, for the mask scan.

    ``solutions`` is the find walk and ``count`` the one count.  On a table
    whose capacities are all 1, ``count`` takes a walk of its own: selecting
    a row there closes all its columns, so a node's alive rows are exactly
    the rows whose columns are all open, and the number of solutions below
    a node is a function of its open columns.
    Keyed by that set as an int, which renumbering leaves alone, a memo of
    two generations, each of at most ``_COUNT_MEMO`` entries, lives for one
    count.  That walk keeps no ``need`` or ``counts`` and takes the first
    open column with at most one alive row without scanning the rest.  Given
    the twin classes of the host's vertices, its upper levels branch on
    orbits of candidate rows and count each orbit once, weighted by its
    size; the levels below run as without them.
    While a numbering's rows² bits fit ``_CONFLICT_BITS``, it keeps per row
    the OR of its columns' masks, so entering a child kills its dead rows in
    one operation; above that it clears the columns' masks one by one.

    The masks are built in one pass over the footprints, last to first,
    into one bytearray per column sized by the column's last row.  A
    capacity below 1, or a footprint naming a column twice, a negative
    column or one past the capacities raises ValueError.
    """

    def __init__(self, table: CopyTable):
        rows = self.rows = table.footprints
        self.capacities = list(table.capacities)
        ncols = len(self.capacities)
        for c, k in enumerate(self.capacities):
            if k < 1:
                raise ValueError(f"column {c} has capacity {k}, below 1")
        # one bytearray per column, as or-ing bits into an int is quadratic;
        # rows are read last to first, so each is sized by its column's last
        # row.  Keyed by column, so a negative column is missing, not the one
        # that many places from the end.
        bufs = dict.fromkeys(range(ncols), b"")
        try:
            for r in range(len(rows) - 1, -1, -1):
                fp = rows[r]
                byte, bit = r >> 3, 1 << (r & 7)
                for c in fp:
                    buf = bufs[c]
                    if not buf:
                        buf = bufs[c] = bytearray(byte + 1)
                    buf[byte] |= bit
        except KeyError:
            raise ValueError(
                f"footprint {fp} names a negative column or one past the "
                f"{ncols} capacities"
            ) from None
        self.masks = [int.from_bytes(bufs.pop(c), "little") for c in range(ncols)]
        self.counts = [m.bit_count() for m in self.masks]  # a repeated column sets its bit once
        if sum(self.counts) != sum(map(len, rows)):
            raise ValueError("a footprint names a column twice")
        self.kill_cost = 1800 * max(map(len, rows), default=0) ** 3
        self.nodes = self.orbit_nodes = self.leaves = 0
        self.deadline = None
        self.node_budget = None
        self.frontier: list | None = None

    @cached_property
    def row_keys(self) -> list[int]:
        """Per row, its columns as the bits of an int."""
        return [sum(1 << col for col in fp) for fp in self.rows]

    @cached_property
    def conflicts(self) -> list | None:
        """The rows' conflict masks in table order (see _conflicts)."""
        return _conflicts(self.masks, range(len(self.rows)), self.rows)

    def solutions(self, replay=None):
        """Yield each solution's footprint indices in selection order.

        ``replay`` is a frontier of an earlier stopped search: the walk
        starts at the node it names, skipping every earlier branch.  When
        the node budget or the deadline (checked every 256 nodes) runs
        out, ``frontier`` becomes the selection leading to the node
        reached and the generator returns; it stays None after an
        exhausted search.
        """
        rows, need = self.rows, list(self.capacities)
        node_budget, deadline = self.node_budget, self.deadline
        n = len(rows)
        alive, masks, ids = (1 << n) - 1, self.masks, range(n)
        # while counts are kept, a closed column's entry is offset by shut, more
        # than any open column's, so the first least entry is the open column
        # the rule picks; open_cols is kept only once counts are dropped
        shut = n + 1
        counts, open_cols, n_open = list(self.counts), None, len(need)
        replay = replay or ()
        selection: list[int] = []
        stack: list[tuple] = []  # per selected row, its parent's state
        self.frontier = None
        while True:
            # enter the node whose state the locals hold
            self.nodes += 1
            if (node_budget is not None and self.nodes > node_budget) or (
                deadline is not None and self.nodes % 256 == 0 and time.monotonic() > deadline
            ):
                self.frontier = list(selection)
                return
            here, replay = replay, ()
            cands, pos, need_c = (), 0, 1  # leaves and dead ends have no candidates
            if not n_open:
                yield list(selection)
            else:
                n_alive = alive.bit_count()
                if alive.bit_length() > 4 * n_alive + 64:
                    alive, masks, ids = _renumber(alive, ids, rows, len(masks))
                # the column with the fewest alive rows, lowest index on ties; the
                # two per-node costs of the class docstring, both times 30 * n_open
                if counts is not None and (
                    n_open**2 * (1200 + alive.bit_length()) > self.kill_cost * n_alive
                ):
                    least = min(counts)
                    c = counts.index(least)
                else:
                    if counts is not None:
                        counts, open_cols = None, [x for x, k in enumerate(need) if k]
                    least = n + 1
                    for col in open_cols:
                        k = (masks[col] & alive).bit_count()
                        if k < least:
                            c, least = col, k
                            if not k:
                                break
                need_c = need[c]
                if least >= need_c:
                    rows_c = masks[c] & alive
                    cands = _bits(rows_c)
                    if here:
                        targets = [ids[r] for r in cands]
                        if here[0] in targets:
                            pos = targets.index(here[0])
                            replay = here[1:]
            # select the next viable candidate, backtracking while there is none
            while True:
                if len(cands) - pos < need_c:  # too few rows of c are left
                    if not stack:
                        return
                    (alive, masks, ids, open_cols, n_open, counts, cands, pos, rows_c, need_c,
                     fp, killed) = stack.pop()
                    selection.pop()
                    if counts is not None:
                        for col in fp:
                            if not need[col]:
                                counts[col] -= shut
                        for col in chain.from_iterable(killed):
                            counts[col] += 1
                    for col in fp:
                        need[col] += 1
                    replay = ()
                    continue
                r = cands[pos]
                pos += 1
                # r is the lowest-indexed selected row covering c in this branch
                sub = alive ^ (rows_c & ((2 << r) - 1))
                fp = rows[ids[r]]
                done = 0
                viable = True
                closed = 0
                for col in fp:
                    done += 1
                    k = need[col] - 1
                    need[col] = k
                    if k == 0:
                        sub &= ~masks[col]
                        closed += 1
                    elif (masks[col] & sub).bit_count() < k:
                        viable = False
                        break
                if viable:
                    break
                for col in fp[:done]:
                    need[col] += 1
                replay = ()
            killed = ()
            if counts is not None:
                killed = [rows[ids[k]] for k in _bits(alive ^ sub)]
                for col in chain.from_iterable(killed):
                    counts[col] -= 1
                if closed:
                    for col in fp:
                        if not need[col]:
                            counts[col] += shut
            stack.append(
                (alive, masks, ids, open_cols, n_open, counts, cands, pos, rows_c, need_c,
                 fp, killed)
            )
            selection.append(ids[r])
            alive = sub
            if closed:
                n_open -= closed
                if open_cols is not None:
                    open_cols = [x for x in open_cols if need[x]]

    def count(self, act=None, classes=()) -> int | None:
        """The number of solutions, or None when the node budget or the
        deadline stops the walk, which sets ``frontier`` as ``solutions``
        does: the footprint indices selected on the way to the node reached.

        A table with a capacity above 1 is counted solution by solution in
        the find walk.  On one whose capacities are all 1, a node is its
        open columns as the bits of ``key`` and its alive rows; selecting a
        row clears its conflict mask (or, above ``_CONFLICT_BITS``, its
        columns' masks) from the alive rows, as the capacity-1 rule leaves
        nothing else to track.  The walk branches on
        the open column with the fewest alive rows, lowest index on ties,
        but stops the scan at the first open column with at most one: it is
        forced (one candidate) or dead (none), and a later column could
        improve on it only by being dead.  So the walk can enter a forced
        column before a dead one later in index order.  A node's count is
        stored under its key when its candidates run out (a dead end's is
        0); when the new generation of the memo holds ``_COUNT_MEMO`` keys
        it becomes the old one, and lookups read the new, then the old.  A
        candidate whose child key is 0 or stored adds 1 or the stored count
        without being entered.  Renumbering waits for 512 dead bits, not the
        find walk's 64: each one rebuilds every mask, and memo hits end most
        sparse subtrees within a few nodes (at 64, a count of the resolvable
        STS(9) table renumbers 3 600 times and takes half as long again).

        ``classes``, with ``act`` the table's _Action, are twin classes of two
        or more of the host's vertices (see _Action.twin_classes), and make the
        walk's upper levels orbit nodes.  A node's touched vertices are those of
        its selected rows.  The product H of the symmetric groups on each
        class's untouched vertices less those of the column c branched on fixes
        the closed columns and c, so it maps the node's residual problem and c's
        candidate rows to themselves, and candidates in one H-orbit have equal
        counts.  While some class has two untouched vertices a node is an orbit
        node: its candidates are the least rows of the orbits (see
        _candidate_orbits), each child's count weighted by its orbit's size, and
        it checks the deadline itself and never renumbers.  Below that every
        node is a plain node, as without ``classes``.  ``nodes`` and the node
        budget count plain nodes only; ``orbit_nodes`` counts the root, when it
        is an orbit node, and the children of orbit nodes, and ``leaves`` the
        plain ones among those children.
        """
        if any(k != 1 for k in self.capacities):
            total = sum(1 for _ in self.solutions())
            return None if self.frontier is not None else total
        rows, row_keys, conf = self.rows, self.row_keys, self.conflicts
        node_budget, deadline = self.node_budget, self.deadline
        n = len(rows)
        masks, ids = self.masks, range(n)
        key, alive, new, old = (1 << len(masks)) - 1, (1 << n) - 1, {}, {}
        class_of = {v: i for i, cls in enumerate(classes) for v in cls}
        left = [len(cls) for cls in classes]  # untouched vertices per class
        big = len(classes)  # classes with two or more of them
        touched = 0
        self.orbit_nodes += big > 0
        # per entered child, its parent's
        # (key, alive, masks, ids, conf, cands, weights, pos, total, touched)
        stack: list[tuple] = []
        self.frontier = None
        while True:
            # enter the node whose state the locals hold
            if big:
                stop = deadline is not None and time.monotonic() > deadline
            else:
                self.nodes += 1
                stop = (node_budget is not None and self.nodes > node_budget) or (
                    deadline is not None and self.nodes % 256 == 0 and time.monotonic() > deadline
                )
            if stop:
                self.frontier = [f[3][f[5][f[7] - 1]] for f in stack]
                return None
            cands, weights, pos, total = (), None, 0, 0
            if not key:  # only a root without columns; children of key 0 are not entered
                total = 1
            else:
                if not big and alive.bit_length() > 4 * alive.bit_count() + 512:
                    alive, masks, ids = _renumber(alive, ids, rows, len(masks))
                    conf = _conflicts(masks, ids, rows)
                c, least = _least_column(key, masks, alive)
                if least:
                    cands = _bits(masks[c] & alive)
                    if big:
                        fixed = touched | act.col_verts[c]
                        cands, weights = _candidate_orbits(act, cands, fixed, classes, class_of)
            # add up the candidates, entering the next one the memo does not know
            while True:
                if pos == len(cands):
                    new[key] = total
                    if len(new) >= _COUNT_MEMO:
                        old, new = new, {}
                    if not stack:
                        return total
                    got = total
                    key, alive, masks, ids, conf, cands, weights, pos, total, was = stack.pop()
                    if weights is not None:  # back at an orbit node
                        for v in _bits(touched ^ was):
                            i = class_of.get(v)
                            if i is not None:
                                left[i] += 1
                                big += left[i] == 2
                        touched = was
                else:
                    r = cands[pos]
                    pos += 1
                    child = key ^ row_keys[ids[r]]
                    got = new.get(child) if child else 1
                    if got is None:
                        got = old.get(child)
                        if got is None:
                            break
                total += got if weights is None else weights[pos - 1] * got
            stack.append((key, alive, masks, ids, conf, cands, weights, pos, total, touched))
            if conf is not None:
                alive &= ~conf[r]
            else:
                for col in rows[ids[r]]:
                    alive &= ~masks[col]
            key = child
            if weights is not None:  # a child of an orbit node, whose rows are the table's
                self.orbit_nodes += 1
                for v in _bits(act.row_verts[r] & ~touched):
                    i = class_of.get(v)
                    if i is not None:
                        left[i] -= 1
                        big -= left[i] == 1
                touched |= act.row_verts[r]
                self.leaves += not big


def _renumber(alive: int, ids, rows, ncols: int) -> tuple:
    """(alive, masks, ids) with the alive rows renumbered densely in the
    same order: masks over the new numbers and ids from them to footprint
    indices."""
    ids = [ids[i] for i in _bits(alive)]
    masks = [0] * ncols
    for bit, r in zip(map((1).__lshift__, range(len(ids))), ids):
        for col in rows[r]:
            masks[col] |= bit
    return (1 << len(ids)) - 1, masks, ids


def _conflicts(masks, ids, rows) -> list | None:
    """Per row number of a numbering, the rows that selecting it kills in a
    capacity-1 table: the OR of its columns' masks.  None when the rows²
    bits would pass _CONFLICT_BITS."""
    if len(ids) ** 2 > _CONFLICT_BITS:
        return None
    conf = []
    for r in ids:
        m = 0
        for col in rows[r]:
            m |= masks[col]
        conf.append(m)
    return conf


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


def _deadline(t0: float, timeout: float | None) -> float | None:
    """The ``time.monotonic()`` instant ``timeout`` seconds after t0, or None
    for no timeout.  0 stops at the first check and inf never does; NaN,
    which no clock reading passes, and a negative timeout raise ValueError."""
    if timeout is None:
        return None
    if not timeout >= 0:
        raise ValueError(f"timeout must be 0 or more seconds, not {timeout}")
    return t0 + timeout


# ---------------------------------------------------------------------------
# vertex symmetries of a copy table: twin classes and orbit-weighted counts


def _vertex_keys(atoms, ordered: bool) -> list | None:
    """Per column key, (vertex tuple, colour) with the colour None when
    uncoloured; None unless every key is an arc (``ordered``) or a sorted
    edge of vertices (ints from 0), alone or paired with an int colour.
    Vertex maps then map distinct keys to distinct keys."""
    out = []
    for atom in atoms:
        item, colour = atom, None
        if type(atom) is tuple and len(atom) == 2 and type(atom[0]) is tuple:
            item, colour = atom
            if type(colour) is not int:
                return None
        if type(item) is not tuple or not all(type(v) is int and v >= 0 for v in item):
            return None
        if not ordered and list(item) != sorted(item):
            return None
        out.append((item, colour))
    return out


class _Action:
    """A copy table read as a structure on the host's vertices, whose
    column keys are ``keys`` (see _vertex_keys): the images of its columns
    and rows under a vertex map ``perm``, a dict from each vertex it moves
    to that vertex's image.  ``ordered`` says whether a key's vertex tuple
    is an arc (kept in position order) or an edge (sorted)."""

    def __init__(self, table: CopyTable, ordered: bool, keys: list):
        self.keys, self.ordered = keys, ordered
        self.capacities, self.footprints = table.capacities, table.footprints
        self.column = {key: c for c, key in enumerate(table.atoms)}
        self.row = {tuple(sorted(fp)): r for r, fp in enumerate(table.footprints)}
        self.col_verts = [sum({1 << v for v in item}) for item, _ in keys]
        self.row_verts = [0] * len(self.footprints)
        self.cols_of: dict[int, list] = {}  # per vertex, the columns through it
        self.rows_of: list[list] = [[] for _ in keys]  # per column, its rows
        self.through: dict[int, set] = {}  # per vertex tested, the rows through it
        for c, (item, _) in enumerate(keys):
            for v in set(item):
                self.cols_of.setdefault(v, []).append(c)
        for r, fp in enumerate(self.footprints):
            for c in fp:
                self.rows_of[c].append(r)
                self.row_verts[r] |= self.col_verts[c]

    def rows_through(self, v: int) -> set:
        """The rows with a column through vertex v."""
        rows = self.through.get(v)
        if rows is None:
            rows = self.through[v] = {r for c in self.cols_of[v] for r in self.rows_of[c]}
        return rows

    def column_image(self, c: int, perm: dict) -> int | None:
        """The column whose key is the image of column c's key, when there
        is one of the same capacity."""
        item, colour = self.keys[c]
        item = tuple(perm.get(v, v) for v in item)
        if not self.ordered:
            item = tuple(sorted(item))
        image = self.column.get(item if colour is None else (item, colour))
        if image is None or self.capacities[image] != self.capacities[c]:
            return None
        return image

    def row_image(self, r: int, columns: dict) -> int | None:
        """The row whose footprint is row r's under the column images
        ``columns`` (unlisted columns fixed), when there is one."""
        return self.row.get(tuple(sorted([columns.get(c, c) for c in self.footprints[r]])))

    def swaps(self, u: int, v: int) -> bool:
        """Whether the transposition (u v) is an automorphism.  It maps the
        columns through u one to one into those through v, and so the rows;
        so when u and v lie on equally many of each, the columns and rows
        through u having images makes it an automorphism."""
        cols_u, rows_u = self.cols_of[u], self.rows_through(u)
        if len(cols_u) != len(self.cols_of[v]) or len(rows_u) != len(self.rows_through(v)):
            return False
        perm = {u: v, v: u}
        columns = {}
        for c in cols_u:
            image = self.column_image(c, perm)
            if image is None:
                return False
            columns[c] = image
            columns[image] = c
        return all(self.row_image(r, columns) is not None for r in rows_u)

    def twin_classes(self) -> list[list[int]]:
        """The vertices of the column keys in classes of twins, in order of
        least member: u and v are twins when the transposition (u v) is an
        automorphism.  That relation is an equivalence, so each vertex is
        tested against one member of each class found.  With N(u) the
        vertices sharing a column with u, twins u and v have N(u) less v
        equal to N(v) less u; so a class whose members share columns lies
        in one set of equal closed neighbourhoods N(u) + u and any other in
        one set of equal open ones N(u), and only vertices of one such set
        are tested against each other, closed sets first."""
        nbrs: dict[int, set] = {}
        for item, _ in self.keys:
            for v in item:
                nbrs.setdefault(v, set()).update(item)
        classes, pending = [], sorted(nbrs)
        for closed in (True, False):
            groups: dict[frozenset, list] = {}
            for v in pending:
                groups.setdefault(frozenset(nbrs[v] if closed else nbrs[v] - {v}), []).append(v)
            pending = []
            for group in groups.values():
                found: list[list] = []
                for v in group:
                    for cls in found:
                        if self.swaps(cls[0], v):
                            cls.append(v)
                            break
                    else:
                        found.append([v])
                for cls in found:
                    if len(cls) > 1 or not closed:
                        classes.append(cls)
                    else:
                        pending.append(cls[0])
        return sorted(classes)


def _action(table: CopyTable, ordered: bool) -> _Action | None:
    """The table's _Action, or None when its column keys are not vertex
    keys or two footprints have the same columns."""
    keys = _vertex_keys(table.atoms, ordered)
    if keys is None:
        return None
    act = _Action(table, ordered, keys)
    return act if len(act.row) == len(table.footprints) else None


def _table_action(table: CopyTable, ordered: bool, perm) -> tuple | None:
    """(column images, row images) of the table, as lists by index, under
    the permutation ``perm`` of the host's vertices (a sequence or a dict,
    vertices past a sequence's end or missing from a dict fixed), or None
    when it is not an automorphism: a column key whose image is no column
    of the same capacity (colours and arc positions included), or a
    footprint whose image is no footprint.  A table whose column keys are
    not vertex keys (see _vertex_keys), or with two footprints of the same
    columns, has no action: None."""
    items = perm.items() if isinstance(perm, dict) else enumerate(perm)
    perm = {v: w for v, w in items if v != w}
    if set(perm) != set(perm.values()):
        raise ValueError("perm is not a permutation")
    act = _action(table, ordered)
    if act is None:
        return None
    columns = [act.column_image(c, perm) for c in range(len(table.atoms))]
    if None in columns:
        return None
    images = dict(enumerate(columns))
    rows = [act.row_image(r, images) for r in range(len(table.footprints))]
    return None if None in rows else (columns, rows)


def _twin_classes(table: CopyTable, ordered: bool) -> list[list[int]]:
    """The twin classes of the vertices of the table's column keys (see
    _Action.twin_classes), singletons included; [] when its column keys are
    not vertex keys."""
    act = _action(table, ordered)
    return act.twin_classes() if act else []


def _candidate_orbits(
    act: _Action, cands: list, fixed: int, classes: list, class_of: dict
) -> tuple[list, list]:
    """(least rows, sizes) of the orbits, in order of least row, of the
    candidate rows ``cands`` under the product of the symmetric groups on
    each class's vertices outside the bits of ``fixed``: union-find over one
    transposition and one cycle per class whose vertices outside ``fixed``
    are two or more and meet the candidates."""
    free = 0
    for r in cands:
        free |= act.row_verts[r]
    free &= ~fixed
    parent = {r: r for r in cands}

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for i in sorted({class_of[v] for v in _bits(free) if v in class_of}):
        moved = [v for v in classes[i] if not fixed >> v & 1]
        if len(moved) < 2:
            continue
        bits = sum(1 << v for v in moved)
        cycle = dict(zip(moved, moved[1:] + moved[:1]))
        for perm in ({moved[0]: moved[1], moved[1]: moved[0]}, cycle)[: 1 + (len(moved) > 2)]:
            columns: dict = {}
            for r in cands:
                if act.row_verts[r] & bits:
                    for col in act.footprints[r]:
                        if col not in columns and act.col_verts[col] & bits:
                            columns[col] = act.column_image(col, perm)
                    a, b = find(r), find(act.row_image(r, columns))
                    if a != b:
                        parent[max(a, b)] = min(a, b)
    sizes: dict[int, int] = {}  # a root is its orbit's least row, so met first
    for r in cands:
        root = find(r)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes), list(sizes.values())


def _least_column(key: int, masks: list, alive: int) -> tuple[int, int]:
    """(column, alive rows in it) by the count walk's rule: the open column
    (a bit of ``key``) with the fewest alive rows, lowest on ties, the scan
    stopping at the first one with at most one."""
    least = alive.bit_count() + 1
    c = -1
    while key:
        low = key & -key
        col = low.bit_length() - 1
        k = (masks[col] & alive).bit_count()
        if k < least:
            c, least = col, k
            if k <= 1:
                break
        key ^= low
    return c, least


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
    deadline = _deadline(t0, timeout)
    try:
        table = table or enumerate_copies(host, patterns, partition, budget, deadline)
    except TimeBudgetExceeded:
        return SolveResult("timeout", None, 0, time.monotonic() - t0, frontier=[])
    search = _CoverSearch(table)
    search.deadline = deadline
    search.node_budget = node_budget
    solution = next(search.solutions(resume), None)
    elapsed = time.monotonic() - t0
    if search.frontier is not None:
        return SolveResult("timeout", None, search.nodes, elapsed, frontier=search.frontier)
    if solution is None:
        return SolveResult("none", None, search.nodes, elapsed)
    cert = Certificate(
        footprint_indices=sorted(solution),
        embeddings=[table.embeddings[r] for r in sorted(solution)],
    )
    return SolveResult("found", cert, search.nodes, elapsed)


def count_decompositions(
    host,
    patterns,
    partition=None,
    timeout: float | None = None,
    table: CopyTable | None = None,
    budget: int = 10_000_000,
) -> int:
    """Exact number of decompositions (sets of footprints).  Running out of
    ``timeout``, copy enumeration included, raises TimeBudgetExceeded.

    The count is one walk of _CoverSearch.count.  On a table whose
    capacities are all 1, subproblems with the same open columns share one
    count through a bounded memo of two generations that lives for this
    call, and a column with at most one alive row is branched on as soon
    as the scan meets it.  When such a table comes with its host and has a
    class of two or more twin vertices (see _Action.twin_classes), the
    walk's upper levels branch on orbits of candidates; the count is the
    same int.  Other tables are counted solution by solution in the find
    walk, whose node counts, certificates and frontiers the count walk
    leaves alone.  Each call logs one DEBUG record on the
    ``decomp_lab.solver`` logger: the twin class sizes with the orbit
    nodes, leaves and the plain nodes below them (leaf nodes), or why no
    orbit levels ran (no host, a capacity above 1, or no twin class) with
    the walk's nodes."""
    deadline = _deadline(time.monotonic(), timeout)
    table = table or enumerate_copies(host, patterns, partition, budget, deadline)
    search = _CoverSearch(table)
    search.deadline = deadline
    act, classes, plain = None, [], None
    if host is None:
        plain = "no host"
    elif any(k != 1 for k in search.capacities):
        plain = "a capacity above 1"
    else:
        act = _action(table, host._ordered)
        classes = [] if act is None else [c for c in act.twin_classes() if len(c) > 1]
        if not classes:
            plain = "no twin class"
    count = search.count(act, classes)
    if count is None:
        raise TimeBudgetExceeded("counting hit the time budget")
    if plain is None:
        _log.debug(
            "count %d: twin classes by size %s, %d orbit nodes, %d leaves, %d leaf nodes",
            count, dict(sorted(Counter(map(len, classes)).items(), reverse=True)),
            search.orbit_nodes, search.leaves, search.nodes,
        )
    else:
        _log.debug("count %d: plain walk (%s), %d nodes", count, plain, search.nodes)
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
    if len(weights) != len(cert.embeddings):
        return VerificationReport(valid=False, deficit=[("weights", len(weights))])
    for w in weights:
        if type(w) is not int:
            return VerificationReport(valid=False, deficit=[("weight", w)])
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
        for _, key_of in items:
            key = key_of(images)
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
    rows = []
    for fp in table.footprints:
        row = [0] * ncols
        for c in fp:
            row[c] = 1
        rows.append(row)
    coeffs = SpanChecker(rows).membership(table.capacities)
    if coeffs is None:
        return False, None
    return True, [(i, w) for i, w in enumerate(coeffs) if w]
