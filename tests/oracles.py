"""Independent brute-force oracles used to pin expected values.

The counting oracles touch none of the package's solver or lattice code
paths: Latin squares are enumerated row by row, triple systems (undirected
and cyclic) and grid counts by plain backtracking over itertools
combinations.  The
reference degree queries scan every edge or arc on each call, the way the
library counted degrees before its incidence index; the library must agree
with them exactly.  `RefCoverSearch` is the solver's earlier exact-cover
engine, kept verbatim as the reference for node counts and frontiers;
`ref_enumerate_copies` is its earlier copy enumeration, which places every
labelled embedding, kept verbatim as the reference for copy tables; and
the `ref_is_typical_*` functions are the earlier typicality checks, one
loop per mode, kept verbatim as the reference for typicality reports; and
`RefLatticeChecker` with the other `ref_*` weight functions is the earlier
weights module, one lift and one span checker per use, kept verbatim as
the reference for weights, edge vectors, lattice and regularity reports.
`ref_restrictions` and `ref_onto` are the earlier `PermGroup` methods,
which rebuilt their result from every group element on each call, and
`ref_pair_degree_max` is the auxiliary's earlier pair degree, counted when
the auxiliary was built; both are kept verbatim as references.  The
`ref_*_divisible` lattice checkers are the earlier divisibility module, one
level loop and one span cache per checker, kept verbatim as the reference
for divisibility reports.  `ref_master_weight_system` is the earlier
coloured directed partite weight builder, its own lift loop over part
index vectors.  `ref_hermite_normal_form` is the earlier dense Hermite
normal form, and `IncrementalLattice` with
`ref_integral_decomposition_exists` the earlier integral oracle, an
echelon basis built one footprint at a time; all are kept verbatim as
references for (H, U), weights and integral verdicts.  `RefSplitMix64`
is the earlier one-output-per-call generator and `ref_random_greedy` the
earlier greedy process drawing through its ``randrange``; both are kept
verbatim as references for the random stream and for greedy runs.
`ref_h_divisible`, `ref_canonical_family_check`, `ref_master_edge_vector`,
`ref_lift_coloured_weight_system` and `ref_orbits_at_size` are the lattice
layer's earlier second paths (a gcd loop, a family check with its own
block rule, a hand-rolled master lift, a coloured-only weight system and an
orbit walk of its own), kept verbatim as references for reports, infos,
edge vectors, weight systems and orbit lists.  `ref_verify_resolvable` and
`ref_verify_large_set` are the earlier triple-system verifiers, each with
its own block, class and pair checks, kept verbatim as references for
verdicts.  `ref_twin_classes` finds a copy table's twin vertices by trying
every transposition on every column key and footprint.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product, repeat
from math import comb, gcd

from decomp_lab.complexes import LabelledComplex, PermGroup, TypicalityReport
from decomp_lab.core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    Inj,
    _Incidence,
    blowup,
    host_degree_vector,
    index_set,
    inj_compose,
    inj_domain,
    injections,
    is_index_blowup,
    partite_density,
    pattern_degree_vector,
)
from decomp_lab.divisibility import (
    CanonicalInfo,
    DivisibilityReport,
    LevelFailure,
    _position_blocks,
    _report,
    canonical_family_check,
)
from decomp_lab.intlattice import SpanChecker
from decomp_lab.linprog import solve_feasibility
from decomp_lab.nibble import (
    AuxiliaryMatchingInstance,
    CountingBounds,
    GreedyRun,
    TrajectoryStep,
    build_auxiliary,
    default_count_stop,
    random_greedy,
)
from decomp_lab.rng import SplitMix64
from decomp_lab.solver import (
    BudgetExceeded,
    CopyTable,
    TimeBudgetExceeded,
    enumerate_copies,
)
from decomp_lab.weights import (
    AtomDecomposition,
    EdgeVector,
    LatticeReport,
    OrbitVerdict,
    RegularityReport,
    TypeTable,
    WeightSystem,
    _lift,
    edge_vector_add,
    molecule,
)


def latin_square_count(n: int) -> int:
    """Number of order-n Latin squares, by row-permutation backtracking."""
    total = 0
    cols_used = [set() for _ in range(n)]

    def rec(i: int) -> None:
        nonlocal total
        if i == n:
            total += 1
            return
        for perm in permutations(range(n)):
            if all(perm[c] not in cols_used[c] for c in range(n)):
                for c in range(n):
                    cols_used[c].add(perm[c])
                rec(i + 1)
                for c in range(n):
                    cols_used[c].discard(perm[c])

    rec(0)
    return total


def all_latin_squares(n: int):
    """Yield every order-n Latin square as a tuple of row tuples."""
    rows: list[tuple] = []
    cols_used = [set() for _ in range(n)]

    def rec(i: int):
        if i == n:
            yield tuple(rows)
            return
        for perm in permutations(range(n)):
            if all(perm[c] not in cols_used[c] for c in range(n)):
                rows.append(perm)
                for c in range(n):
                    cols_used[c].add(perm[c])
                yield from rec(i + 1)
                rows.pop()
                for c in range(n):
                    cols_used[c].discard(perm[c])

    yield from rec(0)


def _exact_cover_count(rows: list[frozenset], columns: set) -> int:
    """Number of ways to pick rows that cover every column exactly once, by
    plain backtracking on the column with the fewest live rows."""
    cols = {c: set() for c in columns}
    for r, row in enumerate(rows):
        for c in row:
            cols[c].add(r)
    alive = set(range(len(rows)))
    uncovered = set(columns)
    count = 0

    def rec() -> None:
        nonlocal count
        if not uncovered:
            count += 1
            return
        c = min(uncovered, key=lambda c: (len(cols[c] & alive), c))
        for r in sorted(cols[c] & alive):
            uncovered.difference_update(rows[r])
            dead = set()
            for cc in rows[r]:
                dead |= cols[cc] & alive
            alive.difference_update(dead)
            rec()
            uncovered.update(rows[r])
            alive.update(dead)

    rec()
    return count


def labelled_sts_count(n: int) -> int:
    """Number of labelled triple systems on n points, by exact cover over
    pair sets with plain backtracking."""
    pairs = set(combinations(range(n), 2))
    triples = [frozenset(combinations(t, 2)) for t in combinations(range(n), 3)]
    return _exact_cover_count(triples, pairs)


def mendelsohn_exists(n: int) -> bool:
    """Whether the complete digraph K*_n splits into cyclic triangles.

    Mendelsohn, "A natural generalization of Steiner triple systems" (1971):
    a Mendelsohn triple system of order n exists iff n = 0 or 1 (mod 3) and
    n != 6.  Divisibility, 3 | n(n-1), is the first condition alone.
    """
    return n % 3 in (0, 1) and n != 6


def labelled_mts_count(n: int) -> int:
    """Number of decompositions of the complete digraph K*_n into cyclic
    triangles, by exact cover over arc sets with plain backtracking.  Each
    3-set gives two cyclic triangles, one per orientation."""
    arcs = {(a, b) for a in range(n) for b in range(n) if a != b}
    cycles = [
        frozenset([(a, b), (b, c), (c, a)])
        for t in combinations(range(n), 3)
        for a, b, c in (t, (t[0], t[2], t[1]))
    ]
    return _exact_cover_count(cycles, arcs)


def sudoku_grid_count(box_order: int) -> int:
    """Number of completed grids with box_order^2 boxes, cell backtracking."""
    n = box_order
    size = n * n
    grid = [[-1] * size for _ in range(size)]
    count = 0

    def ok(r: int, c: int, v: int) -> bool:
        for j in range(size):
            if grid[r][j] == v or grid[j][c] == v:
                return False
        br, bc = n * (r // n), n * (c // n)
        for i in range(br, br + n):
            for j in range(bc, bc + n):
                if grid[i][j] == v:
                    return False
        return True

    def rec(k: int) -> None:
        nonlocal count
        if k == size * size:
            count += 1
            return
        r, c = divmod(k, size)
        for v in range(size):
            if ok(r, c, v):
                grid[r][c] = v
                rec(k + 1)
                grid[r][c] = -1

    rec(0)
    return count


def kirkman_triple_system_9():
    """The classical resolvable triple system of order nine: lines of the
    3x3 affine grid, points numbered 3i+j, in four parallel classes."""
    classes = []
    rows = [[(i, 0), (i, 1), (i, 2)] for i in range(3)]
    cols = [[(0, j), (1, j), (2, j)] for j in range(3)]
    diag1 = [[(i, (i + k) % 3) for i in range(3)] for k in range(3)]
    diag2 = [[(i, (-i + k) % 3) for i in range(3)] for k in range(3)]
    for family in (rows, cols, diag1, diag2):
        classes.append(
            [tuple(sorted(3 * i + j for i, j in line)) for line in family]
        )
    return classes


# ---------------------------------------------------------------------------
# reference degree queries: one full scan of the edges or arcs per query


def ref_neighbourhood(h, e) -> set:
    """Sets f disjoint from e with e u f an edge."""
    e = tuple(sorted(set(e)))
    if any(v < 0 or v >= h.n for v in e):
        raise ValueError("vertex id out of range")
    if len(e) > h.r:
        return set()
    es = set(e)
    out = set()
    for edge in h.edges:
        if es <= set(edge):
            out.add(tuple(sorted(set(edge) - es)))
    return out


def ref_degree(h, e) -> int:
    return len(ref_neighbourhood(h, e))


def ref_pattern_degree_vector(h, p, f, index) -> tuple:
    """Component i = number of index-i edges of h containing f."""
    f = set(f)
    counts = {i: 0 for i in index}
    for e in h.edges:
        if f <= set(e):
            i = p.index_vector(e)
            if i in counts:
                counts[i] += 1
    return tuple(counts[i] for i in index)


def ref_partite_density(g, p_host, i) -> Fraction:
    """Edges of index i relative to the number of such transversal slots."""
    count = sum(1 for e in g.edges if p_host.index_vector(e) == tuple(i))
    slots = 1
    for j, size in enumerate(p_host.sizes()):
        slots *= comb(size, i[j])
    return Fraction(count, slots) if slots else Fraction(0)


def ref_class_densities(g, host_partition, h) -> dict:
    """Per pattern edge f: host edges with class footprint f over the
    product of those class sizes (blowup typicality's densities)."""
    part_of = host_partition.assignment()
    classes = host_partition.parts
    dens = {}
    for f in h.edges:
        count = sum(
            1 for e in g.edges if tuple(sorted(part_of[v] for v in e)) == f
        )
        slots = 1
        for x in f:
            slots *= len(classes[x])
        dens[f] = Fraction(count, slots) if slots else Fraction(0)
    return dens


def ref_coloured_degree_vector(g, e) -> tuple:
    """Component d = multiplicity-weighted number of colour-d edges over e."""
    es = set(e)
    if len(es) > g.r:
        return (0,) * g.colours
    out = [0] * g.colours
    for edge, vec in g.mult:
        if es <= set(edge):
            for d in range(g.colours):
                out[d] += vec[d]
    return tuple(out)


def _injections(i: int, n: int) -> list:
    return sorted(permutations(range(n), i))


def ref_neighbourhood_count(g, partial) -> int:
    """Arcs agreeing with a partial position->vertex assignment."""
    return sum(1 for a in g.arcs if all(a[pos] == v for pos, v in partial))


def ref_digraph_degree_vector(g, psi) -> tuple:
    """Coordinate pi (injections [i]->[r], lex order): arcs with positions
    pi placed on the vertices psi."""
    psi = tuple(psi)
    i = len(psi)
    out = []
    for pi in _injections(i, g.r):
        partial = tuple((pi[k], psi[k]) for k in range(i))
        out.append(ref_neighbourhood_count(g, partial))
    return tuple(out)


def ref_coloured_digraph_degree_vector(g, psi) -> tuple:
    """Coordinates (d, pi), d major and pi in lex order."""
    psi = tuple(psi)
    i = len(psi)
    pis = _injections(i, g.r)
    out = []
    for d in range(g.colours):
        for pi in pis:
            total = 0
            for a, vec in g.mult:
                if vec[d] and all(a[pi[k]] == psi[k] for k in range(i)):
                    total += vec[d]
            out.append(total)
    return tuple(out)


def ref_shift_regular(g) -> bool:
    """Degree vectors constant along order-preserving position shifts."""
    for i in range(1, g.r + 1):
        shift_pairs = []
        base = list(combinations(range(g.r), i))
        for pi in base:
            for cshift in range(1, g.r):
                moved = tuple(x + cshift for x in pi)
                if moved[-1] < g.r:
                    shift_pairs.append((pi, moved))
        if not shift_pairs:
            continue
        for psi in _injections(i, g.n):
            for pi, moved in shift_pairs:
                a = ref_neighbourhood_count(g, tuple(zip(pi, psi)))
                b = ref_neighbourhood_count(g, tuple(zip(moved, psi)))
                if a != b:
                    return False
    return True


def ref_h_balanced(g, host_partition, h) -> bool:
    """For each pattern subset f and f-partite partial transversal e, the
    counts into the pattern edges containing f all agree."""
    if host_partition.t != h.n:
        raise ValueError("need one host class per pattern vertex")
    part_of = host_partition.assignment()
    classes = host_partition.parts

    def partite_count(e, f_prime) -> int:
        es = set(e)
        count = 0
        for edge in g.edges:
            if es <= set(edge):
                if tuple(sorted(part_of[v] for v in edge)) == f_prime:
                    count += 1
        return count

    for size in range(h.r + 1):
        for f in combinations(range(h.n), size):
            containing = [fp for fp in sorted(h.edges) if set(f) <= set(fp)]
            if not containing:
                continue
            for choice in product(*(classes[x] for x in f)):
                if len(set(choice)) != len(choice):
                    continue
                e = tuple(sorted(choice))
                counts = {partite_count(e, fp) for fp in containing}
                if len(counts) > 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# reference exact-cover engine: per-column row sets and an undo trail, the
# way the solver searched before its bitset engine.  The library must give
# the same nodes, solutions and frontiers under the same branching rule.


class RefTimeout(Exception):
    def __init__(self, frontier):
        self.frontier = frontier


_Timeout = RefTimeout  # the name the verbatim engine body raises


class RefCoverSearch:
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


def ref_forced_count(table: CopyTable) -> tuple[int, int]:
    """(count, nodes) of a plain recursive count of a table whose capacities
    are all 1, under the rule of the library's count walk: branch on the
    open column with the fewest alive rows, lowest column on ties, except
    that the first open column with at most one alive row is taken at once.
    No memo, so every child is entered and counts as a node."""
    rows = [frozenset(fp) for fp in table.footprints]
    nodes = 0

    def walk(open_cols: frozenset, alive: list) -> int:
        nonlocal nodes
        nodes += 1
        if not open_cols:
            return 1
        best = None
        for c in sorted(open_cols):
            k = sum(1 for r in alive if c in rows[r])
            if best is None or k < best[0]:
                best = (k, c)
                if k <= 1:
                    break
        c = best[1]
        return sum(
            walk(open_cols - rows[r], [s for s in alive if not rows[s] & rows[r]])
            for r in alive
            if c in rows[r]
        )

    return walk(frozenset(range(len(table.capacities))), list(range(len(rows)))), nodes


def ref_twin_classes(table: CopyTable, ordered: bool) -> list[list[int]]:
    """Twin classes of the vertices of a copy table's column keys, by brute
    force: for every pair u < v, the transposition (u v) is applied to every
    column key, with its capacity, and to every footprint read as its set of
    keys, and u, v are twins when both sets come back unchanged.  The
    classes are the connected parts of that relation, singletons included,
    each sorted and in order of least member.  A key is an edge or arc of
    vertices, or such a tuple paired with a colour; edges are sorted after
    the swap unless ``ordered``."""

    def split(atom):
        return atom if isinstance(atom[0], tuple) else (atom, None)

    def swap(atom, u, v):
        item, colour = split(atom)
        item = tuple(v if x == u else u if x == v else x for x in item)
        item = item if ordered else tuple(sorted(item))
        return item if colour is None else (item, colour)

    capacity = dict(zip(table.atoms, table.capacities))
    copies = {frozenset(table.atoms[c] for c in fp) for fp in table.footprints}
    verts = sorted({x for atom in table.atoms for x in split(atom)[0]})
    part = {x: x for x in verts}

    def root(x):
        while part[x] != x:
            x = part[x]
        return x

    for u, v in combinations(verts, 2):
        if {swap(a, u, v): k for a, k in capacity.items()} != capacity:
            continue
        if {frozenset(swap(a, u, v) for a in fp) for fp in copies} != copies:
            continue
        a, b = root(u), root(v)
        part[max(a, b)] = min(a, b)
    classes: dict[int, list] = {}
    for x in verts:
        classes.setdefault(root(x), []).append(x)
    return sorted(classes.values())


# ---------------------------------------------------------------------------
# reference copy enumeration: every labelled embedding is placed and its slot
# keys are built again at the leaf, the way the solver enumerated before it
# visited one embedding per pattern automorphism orbit.  The library must
# give equal copy tables: atoms, capacities, footprint order, representative
# embeddings and multiplicities.


def _ref_slots(structure, role: str) -> list:
    """(edge or arc, multiplicity vector, or None when uncoloured) pairs in
    canonical order."""
    if not isinstance(structure, _Incidence):
        raise TypeError(f"unsupported {role} type {type(structure)!r}")
    if hasattr(structure, "colours"):
        return list(structure.mult)
    items = structure.arcs if structure._ordered else structure.edges
    return [(item, None) for item in sorted(items)]


def _ref_host_atoms(host) -> dict:
    """Column keys with capacities.  Edges and arcs are their own keys;
    coloured hosts key on (edge-or-arc, colour)."""
    out = {}
    for item, vec in _ref_slots(host, "host"):
        if vec is None:
            out[item] = 1
        else:
            for d, m in enumerate(vec):
                if m:
                    out[(item, d)] = m
    return out


def _ref_sorted_key(img) -> tuple:
    return tuple(sorted(img))


def _ref_pattern_atoms(pattern) -> tuple[int, list]:
    """(vertex count, [(pattern vertex tuple, atom key function)]) where the
    function maps the tuple of host images of the vertex tuple to a column
    key: the images themselves for arcs, sorted for edges, paired with the
    colour for coloured patterns."""
    slots = _ref_slots(pattern, "pattern")
    key = tuple if pattern._ordered else _ref_sorted_key
    items = []
    for item, vec in slots:
        if vec is None:
            items.append((item, key))
            continue
        if sum(vec) != 1:
            kind = "arcs" if pattern._ordered else "edges"
            raise ValueError(f"pattern {kind} must carry exactly one colour once")
        items.append((item, lambda img, d=vec.index(1): (key(img), d)))
    return pattern.n, items


def ref_enumerate_copies(
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
    atoms = _ref_host_atoms(host)
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
        q, items = _ref_pattern_atoms(pattern)
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
# reference typicality checks: one deviation/witness loop per mode, the way
# the library checked typicality before its shared core.  The library must
# give the same verdicts, counts, deviations and errors; the witnesses of
# blowup, coloured and index-partite mode must match too.  Plain mode here
# records a witness only when a failing family also sets a new worst
# deviation, so it can report a failure with no witness.


def ref_is_typical_plain(
    g: Hypergraph,
    c,
    s: int,
    budget: int = 200000,
    samples: int = 2000,
    seed: int | None = None,
) -> TypicalityReport:
    """Joint neighbourhoods of up to s many (r-1)-sets have near-expected size."""
    c = Fraction(c)
    n = g.n
    d = g.density()
    fsets = list(combinations(range(n), g.r - 1))
    nbhd = {f: frozenset(v for (v,) in g.neighbourhood(f)) for f in fsets}

    def families():
        total = sum(comb(len(fsets), k) for k in range(1, s + 1))
        if total <= budget:
            for k in range(1, s + 1):
                yield from combinations(fsets, k)
            return None
        if seed is None:
            raise ValueError("sampling typicality requires an explicit seed")
        rng = SplitMix64(seed)
        for _ in range(samples):
            k = 1 + rng.randrange(s)
            yield tuple(rng.sample(fsets, min(k, len(fsets))))

    checked = 0
    worst = Fraction(0)
    witness = None
    ok = True
    for fam in families():
        k = len(fam)
        inter = nbhd[fam[0]]
        for f in fam[1:]:
            inter = inter & nbhd[f]
        lhs = len(inter)
        expected = d**k * n
        checked += 1
        if expected == 0:
            if lhs != 0:
                ok = False
                witness = witness or (fam, lhs, expected)
            continue
        dev = abs(Fraction(lhs) / expected - 1)
        if dev > worst:
            worst = dev
            if dev > k * c:
                witness = (fam, lhs, expected)
        if dev > k * c:
            ok = False
    exact = sum(comb(len(fsets), k) for k in range(1, s + 1)) <= budget
    return TypicalityReport(
        typical=ok, c=c, s=s, mode="plain", checked=checked,
        worst_deviation=worst, witness=witness, exact=exact,
    )


def ref_is_typical_blowup(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    c,
    s: int,
    budget: int = 200000,
) -> TypicalityReport:
    """Blowup typicality: within-class joint neighbourhoods track the class
    densities of the pattern edges involved."""
    c = Fraction(c)
    if host_partition.t != h.n:
        raise ValueError("host partition must have one class per pattern vertex")
    part_of = host_partition.assignment()
    classes = host_partition.parts
    # class density per pattern edge: the host edges indexed by its classes
    dens = {
        f: partite_density(g, host_partition, [int(x in f) for x in range(h.n)])
        for f in h.edges
    }
    # candidate (r-1)-partite sets, grouped by footprint
    fsets = []
    for e in combinations(range(g.n), g.r - 1):
        fp = tuple(sorted(part_of[v] for v in e))
        if len(set(fp)) == len(fp):
            fsets.append((e, fp))
    nbhd = {
        e: frozenset(v for (v,) in g.neighbourhood(e)) for e, _ in fsets
    }
    checked = 0
    worst = Fraction(0)
    witness = None
    ok = True
    total = sum(comb(len(fsets), k) for k in range(1, s + 1))
    if total > budget:
        raise ValueError("exact blowup typicality above budget; reduce s or the host")
    for k in range(1, s + 1):
        for fam in combinations(fsets, k):
            footprints = [set(fp) for _, fp in fam]
            for x in range(h.n):
                if any(x in fp for fp in footprints):
                    continue
                involved = [
                    tuple(sorted(fp | {x})) for fp in (frozenset(f) for _, f in fam)
                ]
                if any(f not in h.edges for f in involved):
                    continue
                inter = set(classes[x])
                for e, _ in fam:
                    inter &= nbhd[e]
                lhs = len(inter)
                expected = Fraction(len(classes[x]))
                for f in involved:
                    expected *= dens[f]
                checked += 1
                if expected == 0:
                    if lhs:
                        ok = False
                        witness = witness or (fam, x, lhs, expected)
                    continue
                dev = abs(Fraction(lhs) / expected - 1)
                if dev > worst:
                    worst = dev
                if dev > k * c:
                    ok = False
                    witness = witness or (fam, x, lhs, expected)
    return TypicalityReport(
        typical=ok, c=c, s=s, mode="blowup", checked=checked,
        worst_deviation=worst, witness=witness,
    )


def ref_is_typical_coloured(
    g: ColouredMultigraph,
    c,
    s: int,
    budget: int = 200000,
    samples: int = 2000,
    seed: int | None = None,
) -> TypicalityReport:
    """Colour-weighted joint degrees track products of colour densities."""
    c = Fraction(c)
    n = g.n
    dens = g.density_vector()
    fsets = list(combinations(range(n), g.r - 1))
    # vertex profiles: for f and colour d, weight of f+v edges in colour d
    weight = {}
    for e, vec in g.mult:
        for f in combinations(e, g.r - 1):
            rest = (set(e) - set(f)).pop()
            weight[(f, rest)] = vec

    def joint(fam, cols) -> int:
        total = 0
        for v in range(n):
            prod_w = 1
            for f, d in zip(fam, cols):
                if v in f:
                    prod_w = 0
                    break
                vec = weight.get((f, v))
                if vec is None or not vec[d]:
                    prod_w = 0
                    break
                prod_w *= vec[d]
            total += prod_w
        return total

    def tuples():
        total = sum(
            (len(fsets) * g.colours) ** k for k in range(1, s + 1)
        )
        if total <= budget:
            for k in range(1, s + 1):
                for fam in product(fsets, repeat=k):
                    for cols in product(range(g.colours), repeat=k):
                        yield fam, cols
            return
        if seed is None:
            raise ValueError("sampling typicality requires an explicit seed")
        rng = SplitMix64(seed)
        for _ in range(samples):
            k = 1 + rng.randrange(s)
            fam = tuple(fsets[rng.randrange(len(fsets))] for _ in range(k))
            cols = tuple(rng.randrange(g.colours) for _ in range(k))
            yield fam, cols

    checked = 0
    worst = Fraction(0)
    witness = None
    ok = True
    for fam, cols in tuples():
        k = len(fam)
        lhs = joint(fam, cols)
        expected = Fraction(n)
        for d in cols:
            expected *= dens[d]
        checked += 1
        if expected == 0:
            if lhs:
                ok = False
                witness = witness or (fam, cols, lhs, expected)
            continue
        dev = abs(Fraction(lhs) / expected - 1)
        if dev > worst:
            worst = dev
        if dev > k * c:
            ok = False
            witness = witness or (fam, cols, lhs, expected)
    exact = sum((len(fsets) * g.colours) ** k for k in range(1, s + 1)) <= budget
    return TypicalityReport(
        typical=ok, c=c, s=s, mode="coloured", checked=checked,
        worst_deviation=worst, witness=witness, exact=exact,
    )


def ref_is_typical_hp(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    pattern_partition: Partition,
    c,
    s: int,
    budget: int = 200000,
) -> TypicalityReport:
    """Index-partite typicality: per-part joint neighbourhoods track the
    densities of the index classes hit, with both sides allowed to vanish
    when an index falls outside the pattern's realized index set."""
    c = Fraction(c)
    I = set(index_set(h, pattern_partition))
    dens = {i: partite_density(g, host_partition, i) for i in I}
    fsets = list(combinations(range(g.n), g.r - 1))
    nbhd = {f: frozenset(v for (v,) in g.neighbourhood(f)) for f in fsets}
    checked = 0
    worst = Fraction(0)
    witness = None
    ok = True
    total = sum(comb(len(fsets), k) for k in range(1, s + 1)) * host_partition.t
    if total > budget:
        raise ValueError("exact index-partite typicality above budget")
    basis = [
        tuple(1 if k == j else 0 for k in range(host_partition.t))
        for j in range(host_partition.t)
    ]
    for k in range(1, s + 1):
        for fam in combinations(fsets, k):
            for j in range(host_partition.t):
                idxs = []
                outside = False
                for f in fam:
                    i = tuple(
                        a + b
                        for a, b in zip(host_partition.index_vector(f), basis[j])
                    )
                    if i not in I:
                        outside = True
                        break
                    idxs.append(i)
                part = set(host_partition.parts[j])
                inter = part
                for f in fam:
                    inter = inter & nbhd[f]
                lhs = len(inter)
                checked += 1
                if outside:
                    if lhs:
                        ok = False
                        witness = witness or (fam, j, lhs, Fraction(0))
                    continue
                expected = Fraction(len(part))
                for i in idxs:
                    expected *= dens[i]
                if expected == 0:
                    if lhs:
                        ok = False
                        witness = witness or (fam, j, lhs, expected)
                    continue
                dev = abs(Fraction(lhs) / expected - 1)
                if dev > worst:
                    worst = dev
                if dev > k * c:
                    ok = False
                    witness = witness or (fam, j, lhs, expected)
    return TypicalityReport(
        typical=ok, c=c, s=s, mode="index-partite", checked=checked,
        worst_deviation=worst, witness=witness,
    )


# ---------------------------------------------------------------------------
# reference weight systems, edge vectors, atom decompositions, lattice
# checks and regularity witnesses: one lift loop per builder and per host
# encoding, one span checker built per orbit and per query, and a lattice
# checker that memoizes every verdict, the way the weights module worked
# before its shared lift, atom spans and restriction sums.  The library
# must give equal weights, edge vectors, decomposition terms, lattice
# reports, regularity reports, witnesses and errors.


def _zero(dim: int) -> tuple[int, ...]:
    return (0,) * dim


def _unit(dim: int, d: int) -> tuple[int, ...]:
    return tuple(1 if k == d else 0 for k in range(dim))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_coloured_weight_system(
    patterns, partition: Partition | None = None
) -> WeightSystem:
    """One tag per coloured pattern; an r-level map gets the unit vector of
    the colour its image carries in that pattern.

    With a label partition the group is the part stabilizer, otherwise
    the full symmetric group.
    """
    if not patterns:
        raise ValueError("empty pattern family")
    q = patterns[0].n
    r = patterns[0].r
    dim = patterns[0].colours
    for h in patterns:
        if (h.n, h.r, h.colours) != (q, r, dim):
            raise ValueError("patterns disagree on (q, r, colours)")
        for e, vec in h.mult:
            if sum(vec) != 1:
                raise ValueError(f"pattern edge {e} must carry exactly one colour once")
    group = (
        PermGroup.part_stabilizer(partition)
        if partition is not None
        else PermGroup.symmetric(q)
    )
    weight = {}
    for tag, h in enumerate(patterns):
        colour_of = {e: vec.index(1) for e, vec in h.mult}
        for B in combinations(range(q), r):
            for theta in group.restrictions(B):
                image = tuple(sorted(v for _, v in theta))
                d = colour_of.get(image)
                if d is not None:
                    weight[(tag, theta)] = _unit(dim, d)
    return WeightSystem(group, r, dim, [f"pattern-{i}" for i in range(len(patterns))], weight)


def ref_digraph_weight_system(pattern: Digraph, allow_non_simple: bool = False) -> WeightSystem:
    """Indicator weights on order-preserving lifts of the pattern's arcs.

    Non-simple patterns (repeated arc images) generally break atom
    independence and are rejected unless explicitly allowed for diagnosis.
    """
    if not allow_non_simple and not pattern.is_simple():
        raise ValueError("pattern digraph must be simple (distinct arc images)")
    q = pattern.n
    r = pattern.r
    group = PermGroup.symmetric(q)
    weight = {}
    for B in combinations(range(q), r):
        for theta in group.restrictions(B):
            values = tuple(v for _, v in theta)  # ordered by label
            if values in pattern.arcs:
                weight[(0, theta)] = (1,)
    return WeightSystem(group, r, 1, ["pattern-0"], weight)


def ref_master_weight_system(
    patterns,
    partition: Partition,
    groups_by_colour=None,
) -> WeightSystem:
    """Weight system for coloured directed partite families.

    Requires the family to pass the canonical-structure check (see
    divisibility.canonical_family_check); lifts each colour class along
    order-preserving position maps whose label set matches the colour's
    part index.
    """
    info = canonical_family_check(patterns, partition)
    q = patterns[0].n
    r = patterns[0].r
    dim = patterns[0].colours
    group = PermGroup.part_stabilizer(partition)
    weight = {}
    for tag, h in enumerate(patterns):
        for B in combinations(range(q), r):
            idx_B = partition.index_vector(B)
            for theta in group.restrictions(B):
                values = tuple(v for _, v in theta)
                vec = h.multiplicity(values)
                for d in range(dim):
                    if vec[d] and idx_B == info.colour_index[d]:
                        weight[(tag, theta)] = _unit(dim, d)
    return WeightSystem(group, r, dim, [f"pattern-{i}" for i in range(len(patterns))], weight)


def ref_atom_decomposition(
    J: EdgeVector, system: WeightSystem, phi: LabelledComplex, types: TypeTable | None = None
) -> AtomDecomposition:
    """Express J orbit-by-orbit as integer combinations of typed atoms.

    Fails (returning the offending orbit) when some orbit restriction lies
    outside the integer span of the atoms there; with an elementary system
    the coefficients are unique.
    """
    types = types or TypeTable(system)
    group = system.group
    dim = system.dim
    seen = set()
    terms = []
    for psi in sorted(J):
        if psi in seen:
            continue
        B = inj_domain(psi)
        sigmas = group.onto(B)
        rep = min(inj_compose(psi, s) for s in sigmas)
        B_rep = inj_domain(rep)
        sig_rep = group.onto(B_rep)
        members = [inj_compose(rep, s) for s in sig_rep]
        seen.update(members)
        target = []
        for member in members:
            target.extend(J.get(member, _zero(dim)))
        nonzero = types.nonzero_classes(B_rep)
        gens = [tuple(x for vec in cls.vector for x in vec) for _, cls in nonzero]
        coeffs = SpanChecker(gens).membership(target)
        if coeffs is None:
            return AtomDecomposition(terms=[], failed_orbit=(rep, tuple(target)))
        for (idx, _cls), c in zip(nonzero, coeffs):
            if c:
                terms.append((rep, idx, c))
    return AtomDecomposition(terms=terms)


def _ref_dominates(
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    tag: int,
    embedding: Inj,
    types: TypeTable | None = None,
) -> bool:
    """True when J minus the molecule of (tag, embedding) is a nonnegative
    integer combination of atoms."""
    diff = edge_vector_add(J, molecule(system, tag, embedding), system.dim, sign=-1)
    dec = ref_atom_decomposition(diff, system, phi, types)
    return dec.ok and all(c >= 0 for _, _, c in dec.terms)


class RefLatticeChecker:
    """Precomputed orbit structure for repeated lattice-membership queries.

    The per-orbit generator matrices depend only on the complex, the group
    and the weights, so they are built once; queries then flatten the
    restriction sums of J to each orbit and delegate to exact span checks,
    memoized per generator matrix.
    """

    def __init__(
        self,
        system: WeightSystem,
        phi: LabelledComplex,
        include_high_levels: bool = False,
    ) -> None:
        self.system = system
        self.phi = phi
        self.dim = system.dim
        self.r_subsets = [frozenset(B) for B in system.r_subsets()]
        group = system.group
        # lifted generator sums: (tag, theta', B) -> sum of weights over
        # extensions of theta' in the tagged complex at level B
        self._sharp_weight: dict = {}
        for (tag, theta), vec in system.weight.items():
            B = inj_domain(theta)
            dom = sorted(x for x, _ in theta)
            for size in range(len(dom) + 1):
                for sub in combinations(dom, size):
                    key = (tag, tuple((x, dict(theta)[x]) for x in sub), B)
                    cur = self._sharp_weight.get(key, _zero(self.dim))
                    self._sharp_weight[key] = _vec_add(cur, vec)
        levels = list(range(system.r + 1))
        if include_high_levels:
            levels = list(range(system.q + 1))
        self.orbits = []  # (rep, [(sigma, member)], coords, span_key)
        self._span_cache: dict[tuple, SpanChecker] = {}
        self._verdict_cache: dict[tuple, tuple] = {}
        ntags = len(system.tags)
        for size in levels:
            for orbit in phi.orbits_at_size(size, group):
                rep = orbit[0]
                B_rep = inj_domain(rep)
                sig = group.onto(B_rep)
                members = [(s, inj_compose(rep, s)) for s in sig]
                coords = []
                for s, member in members:
                    dom = inj_domain(member)
                    for B in self.r_subsets:
                        if dom <= B:
                            coords.append((s, member, B))
                gens = []
                for tag in range(ntags):
                    for theta0 in group.restrictions(B_rep):
                        partial = tuple(
                            sorted(
                                (dict(theta0)[x], dict(rep)[x])
                                for x in sorted(B_rep)
                            )
                        )
                        if not phi.full_embedding_exists(partial):
                            continue
                        row = []
                        for s, _member, B in coords:
                            row.extend(
                                self._sharp_weight.get(
                                    (tag, inj_compose(theta0, s), B),
                                    _zero(self.dim),
                                )
                            )
                        gens.append(tuple(row))
                gens = sorted(set(gens))
                span_key = tuple(gens)
                if span_key not in self._span_cache:
                    self._span_cache[span_key] = SpanChecker(list(gens))
                self.orbits.append((rep, members, coords, span_key))

    def check(self, J: EdgeVector) -> LatticeReport:
        dim = self.dim
        sharp: dict = {}
        for psi, vec in J.items():
            B = inj_domain(psi)
            if B not in self.r_subsets:
                raise ValueError("edge vector supported outside the r-level")
            dom = sorted(x for x, _ in psi)
            lookup = dict(psi)
            for size in range(len(dom) + 1):
                for sub in combinations(dom, size):
                    key = (tuple((x, lookup[x]) for x in sub), B)
                    cur = sharp.get(key, _zero(dim))
                    sharp[key] = _vec_add(cur, vec)
        checked = 0
        for rep, members, coords, span_key in self.orbits:
            target = []
            for _s, member, B in coords:
                target.extend(sharp.get((member, B), _zero(dim)))
            target_t = tuple(target)
            checked += 1
            cache_key = (span_key, target_t)
            hit = self._verdict_cache.get(cache_key)
            if hit is None:
                witness = self._span_cache[span_key].membership(list(target_t))
                hit = (witness is not None, witness)
                self._verdict_cache[cache_key] = hit
            ok, witness = hit
            if not ok:
                return LatticeReport(
                    member=False,
                    failing_orbit=OrbitVerdict(
                        representative=rep,
                        ok=False,
                        witness=None,
                        target=target_t,
                        generator_count=len(span_key),
                    ),
                    orbits_checked=checked,
                )
        return LatticeReport(member=True, failing_orbit=None, orbits_checked=checked)


def ref_coloured_edge_vector(g: ColouredMultigraph, phi: LabelledComplex) -> EdgeVector:
    """Every labelled edge of the complex carries the multiplicity vector of
    its image edge."""
    by_image = {e: vec for e, vec in g.mult}
    out: EdgeVector = {}
    for B in combinations(range(phi.q), g.r):
        for psi in phi.level(B):
            image = tuple(sorted(v for _, v in psi))
            vec = by_image.get(image)
            if vec is not None:
                out[psi] = vec
    return out


def ref_digraph_edge_vector(g: Digraph, phi: LabelledComplex) -> EdgeVector:
    """Indicator of order-preserving lifts: a labelled edge is in the lift
    iff reading its values in label order gives an arc."""
    out: EdgeVector = {}
    for B in combinations(range(phi.q), g.r):
        for psi in phi.level(B):
            values = tuple(v for _, v in psi)
            if values in g.arcs:
                out[psi] = (1,)
    return out


def ref_verify_regularity_witness(
    y: dict,
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    c,
    omega,
    types: TypeTable | None = None,
) -> RegularityReport:
    """Check a molecule weighting: box constraints on each weight and the
    typed degree sums within (1 +- c) of J's atom coefficients.

    ``y`` maps (tag, full embedding) to a rational weight and must be
    indexed by copies whose molecules J dominates.
    """
    c = Fraction(c)
    omega = Fraction(omega)
    types = types or TypeTable(system)
    n = phi.vertex_count
    lo = omega * Fraction(n) ** (system.r - system.q)
    hi = Fraction(n) ** (system.r - system.q) / omega
    box_violations = 0
    for (tag, emb), weight in y.items():
        if not _ref_dominates(J, system, phi, tag, emb, types):
            raise ValueError(f"witness indexed by a copy J does not dominate: {emb}")
        if not (lo <= Fraction(weight) <= hi):
            box_violations += 1
    # typed degree sums: a molecule contributes at every member of every
    # orbit it touches, via the basepoint-changed type
    partial: dict = {}
    support = {
        tag: types.nonzero_level_maps(tag) for tag in range(len(system.tags))
    }
    for (tag, emb), weight in y.items():
        for theta, tindex in support[tag]:
            key = (inj_compose(emb, theta), tindex)
            partial[key] = partial.get(key, Fraction(0)) + Fraction(weight)
    # atom coefficients of J at every labelled edge of the support levels
    group = system.group
    dim = system.dim
    coeffs: dict = {}
    seen = set()
    for psi in J:
        if psi in seen:
            continue
        B = inj_domain(psi)
        sigmas = group.onto(B)
        members = [inj_compose(psi, s) for s in sigmas]
        seen.update(members)
        for member in members:
            Bm = inj_domain(member)
            sig_m = system.group.onto(Bm)
            target = []
            for s in sig_m:
                target.extend(J.get(inj_compose(member, s), _zero(dim)))
            nonzero = types.nonzero_classes(Bm)
            gens = [tuple(x for vec in cls.vector for x in vec) for _, cls in nonzero]
            sol = SpanChecker(gens).membership(target)
            if sol is None:
                raise ValueError("J is not atom-decomposable; no witness can verify")
            for (idx, _cls), coef in zip(nonzero, sol):
                coeffs[(member, idx)] = coef
    worst = Fraction(0)
    band_violations = 0
    checked = 0
    keys = set(partial) | set(coeffs)
    for key in keys:
        expected = Fraction(coeffs.get(key, 0))
        got = partial.get(key, Fraction(0))
        checked += 1
        if expected == 0:
            if got != 0:
                band_violations += 1
                worst = max(worst, Fraction(1))
            continue
        dev = abs(got / expected - 1)
        worst = max(worst, dev)
        if dev > c:
            band_violations += 1
    return RegularityReport(
        regular=(box_violations == 0 and band_violations == 0),
        worst_ratio=worst,
        box_violations=box_violations,
        band_violations=band_violations,
        checked=checked,
    )


def ref_search_regularity_witness(
    J: EdgeVector,
    system: WeightSystem,
    phi: LabelledComplex,
    c,
    omega,
    molecule_budget: int = 10000,
):
    """Rational feasibility fallback: find a witness weighting or None.

    Enumerates dominated molecules (bounded by ``molecule_budget``) and
    solves the band/box system exactly.
    """
    c = Fraction(c)
    omega = Fraction(omega)
    types = TypeTable(system)
    n = phi.vertex_count
    lo = omega * Fraction(n) ** (system.r - system.q)
    hi = Fraction(n) ** (system.r - system.q) / omega
    copies = []
    for tag in range(len(system.tags)):
        for emb in sorted(phi.full_level()):
            if _ref_dominates(J, system, phi, tag, emb, types):
                copies.append((tag, emb))
                if len(copies) > molecule_budget:
                    raise ValueError("molecule budget exceeded")
    # typed incidence
    rows: dict = {}
    support = {
        tag: types.nonzero_level_maps(tag) for tag in range(len(system.tags))
    }
    for col, (tag, emb) in enumerate(copies):
        for theta, tindex in support[tag]:
            rows.setdefault((inj_compose(emb, theta), tindex), []).append(col)
    # coefficients of J
    dec = ref_atom_decomposition(J, system, phi, types)
    if not dec.ok:
        return None
    group = system.group
    coeffs: dict = {}
    for rep, tindex, coef in dec.terms:
        B = inj_domain(rep)
        cls = types.classes(B)[tindex]
        for s in group.onto(B):
            member = inj_compose(rep, s)
            # coefficient transported along the orbit: resolve per member
            coeffs[(member, tindex)] = None
    for member, tindex in list(coeffs):
        Bm = inj_domain(member)
        sig_m = group.onto(Bm)
        target = []
        for s in sig_m:
            target.extend(J.get(inj_compose(member, s), _zero(system.dim)))
        nonzero = types.nonzero_classes(Bm)
        gens = [tuple(x for vec in cl.vector for x in vec) for _, cl in nonzero]
        sol = SpanChecker(gens).membership(target)
        for (idx, _cl), coef in zip(nonzero, sol):
            coeffs[(member, idx)] = coef
    constraints = []
    keys = sorted(set(rows) | {k for k, v in coeffs.items() if v})
    for key in keys:
        cols = rows.get(key, [])
        coef = Fraction(coeffs.get(key) or 0)
        vec = [Fraction(0)] * len(copies)
        for col in cols:
            vec[col] += 1
        constraints.append((vec, (1 - c) * coef, (1 + c) * coef))
    sol = solve_feasibility(
        len(copies), [(lo, hi)] * len(copies), constraints
    )
    if sol is None:
        return None
    return {copies[i]: sol[i] for i in range(len(copies))}


# ---------------------------------------------------------------------------
# reference group restrictions and auxiliary pair degree


def ref_restrictions(group: PermGroup, labels) -> tuple:
    """All restrictions of group elements to a fixed domain."""
    labels = tuple(sorted(labels))
    out = {tuple((x, s[x]) for x in labels) for s in group.elements}
    return tuple(sorted(out))


def ref_onto(group: PermGroup, labels) -> tuple:
    """All restrictions of group elements mapping onto a fixed image set."""
    target = frozenset(labels)
    out = set()
    for s in group.elements:
        domain = sorted(x for x in range(group.degree) if s[x] in target)
        out.add(tuple((x, s[x]) for x in domain))
    return tuple(sorted(out))


def ref_pair_degree_max(footprints) -> int:
    """The most copies through one pair of slots, from the copies' footprints."""
    pair_deg = Counter(chain.from_iterable(map(combinations, footprints, repeat(2))))
    return max(pair_deg.values()) if pair_deg else 0


# ---------------------------------------------------------------------------
# reference random stream and greedy process: the earlier scalar splitmix64,
# one output per call, and the random greedy process drawing through its
# randrange

_REF_MASK64 = (1 << 64) - 1


class RefSplitMix64:
    """splitmix64 stream; state advances by the golden-ratio increment."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _REF_MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _REF_MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _REF_MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _REF_MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n); rejection keeps the draw unbiased."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]


def ref_random_greedy(
    aux: AuxiliaryMatchingInstance,
    seed: int,
    stop_density=None,
    stop_steps: int | None = None,
) -> GreedyRun:
    """Uniformly random surviving copy each step, conflicts deleted.

    Stops at the density threshold (checked before each step against
    1 - i*R/N), after ``stop_steps`` selections, or at exhaustion.
    """
    rng = RefSplitMix64(seed)
    alive = [True] * len(aux.copies)
    alive_count = len(aux.copies)
    pool = list(range(len(aux.copies)))
    matching: list[int] = []
    steps: list[TrajectoryStep] = []
    stop_density = Fraction(stop_density) if stop_density is not None else None
    i = 0
    stop_reason = "exhausted"
    while alive_count > 0:
        density = 1 - Fraction(i * aux.R, aux.N) if aux.N else Fraction(0)
        if stop_density is not None and density < stop_density:
            stop_reason = "density"
            break
        if stop_steps is not None and i >= stop_steps:
            stop_reason = "steps"
            break
        # uniform over alive copies; dead pool entries are discarded lazily
        while True:
            idx = rng.randrange(len(pool))
            cid = pool[idx]
            if alive[cid]:
                break
            pool[idx] = pool[-1]
            pool.pop()
        choices = alive_count
        matching.append(cid)
        for a in aux.copies[cid]:
            for other in aux.incidence[a]:
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


def ref_counting_bounds(pattern, n: int, seed: int, stop_density=None) -> CountingBounds:
    """counting_bounds as it was before the blowup auxiliary was cached:
    one fresh build per call, kept verbatim as the reference."""
    if not pattern.edges:
        raise ValueError("pattern has no edges; its blowup has nothing to count")
    if stop_density is None:
        stop_density = default_count_stop(n)
    host, host_partition = blowup(pattern, [n] * pattern.n)
    pattern_partition = Partition.singletons(pattern.n)
    aux = build_auxiliary(host, pattern, (pattern_partition, host_partition))
    R = aux.R
    q, r = pattern.n, pattern.r
    D = n ** (q - r)
    cells = n**r
    log_upper = (aux.N / R) * (math.log(D) + 1 - R)
    run = random_greedy(aux, seed=seed, stop_density=stop_density)
    log_lower = 0.0
    for s in run.steps:
        log_lower += math.log(s.choices) - math.log(cells - s.step)
    return CountingBounds(
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


# ---------------------------------------------------------------------------
# reference lattice divisibility: the earlier checkers, one level loop each,
# with local span caches in the index-partite ones and a pattern-lattice LRU
# of their own, kept verbatim as the reference for divisibility reports.


@lru_cache(maxsize=64)
def _ref_pattern_span(patterns, levels: int) -> tuple[SpanChecker, ...]:
    """Per level i < levels, the span of the level-i pattern degree vectors
    of a simple Digraph (one per injection [i] -> V) or of a tuple of
    ColouredMultigraphs (one per i-set of the first pattern's vertex range).
    One entry holds every level, so a check hashes the family once."""
    spans = []
    for level in range(levels):
        if isinstance(patterns, Digraph):
            gens = {patterns.degree_vector(t) for t in injections(level, patterns.n)}
        else:
            q = patterns[0].n
            gens = {h.degree_vector(f) for h in patterns for f in combinations(range(q), level)}
        spans.append(SpanChecker(sorted(gens)))
    return tuple(spans)


def ref_hp_divisible(
    g: Hypergraph,
    host_partition: Partition,
    h: Hypergraph,
    pattern_partition: Partition,
) -> DivisibilityReport:
    """Host degree vectors lie in the integer span of the pattern degree
    vectors with matching part index, at every level."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if host_partition.t != pattern_partition.t:
        raise ValueError("partitions have different part counts")
    I = index_set(h, pattern_partition)
    bad = is_index_blowup(g, host_partition, I)
    if bad is not None:
        raise ValueError(f"host edge {bad} has an index outside the pattern index set")
    failures = []
    span_cache: dict[tuple, SpanChecker] = {}
    for level in range(g.r + 1):
        by_index: dict[tuple, list] = {}
        for f in combinations(range(h.n), level):
            by_index.setdefault(pattern_partition.index_vector(f), []).append(
                pattern_degree_vector(h, pattern_partition, f, I)
            )
        found = None
        for e in combinations(range(g.n), level):
            ie = host_partition.index_vector(e)
            gens = by_index.get(ie, [])
            key = (ie, level)
            checker = span_cache.get(key)
            if checker is None:
                checker = SpanChecker(sorted(set(map(tuple, gens))))
                span_cache[key] = checker
            vec = host_degree_vector(g, host_partition, e, I)
            if checker.membership(vec) is None:
                found = LevelFailure(
                    level, e, f"span of pattern degree vectors at index {ie}", vec
                )
                break
        if found:
            failures.append(found)
    return _report("hp", failures, range(g.r + 1))


def ref_coloured_divisible(g: ColouredMultigraph, patterns) -> DivisibilityReport:
    """Colour degree vectors lie in the span of all pattern colour degree
    vectors of the same level."""
    if not isinstance(patterns, tuple):
        patterns = tuple(patterns)
    if not patterns:
        raise ValueError("empty pattern family")
    for h in patterns:
        if h.r != g.r or h.colours != g.colours:
            raise ValueError("pattern family mismatches host")
    failures = []
    for level, checker in enumerate(_ref_pattern_span(patterns, g.r + 1)):
        found = None
        for e in combinations(range(g.n), level):
            vec = g.degree_vector(e)
            if checker.membership(vec) is None:
                found = LevelFailure(level, e, "span of pattern colour degrees", vec)
                break
        if found:
            failures.append(found)
    return _report("coloured", failures, range(g.r + 1))


def ref_digraph_divisible(g: Digraph, h: Digraph) -> DivisibilityReport:
    """Positional degree vectors lie in the span of the pattern's, at every
    level, checked on one injection per image set (the symmetry reduction)."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if not h.is_simple():
        raise ValueError("pattern digraph must be simple")
    failures = []
    for i, checker in enumerate(_ref_pattern_span(h, g.r + 1)):
        found = None
        for image in combinations(range(g.n), i):
            psi = tuple(image)  # increasing representative of the coset
            vec = g.degree_vector(psi)
            if checker.membership(vec) is None:
                found = LevelFailure(i, psi, "span of pattern positional degrees", vec)
                break
        if found:
            failures.append(found)
    return _report("digraph", failures, range(g.r + 1))


def ref_master_divisible(
    g: ColouredMultidigraph,
    host_partition: Partition,
    patterns,
    pattern_partition: Partition,
) -> DivisibilityReport:
    """Coloured positional degree vectors against index-matched pattern
    generators, plus the support condition that every host arc places its
    position blocks into the matching host parts in ascending order."""
    info = canonical_family_check(patterns, pattern_partition)
    q = patterns[0].n
    failures = []
    notes = []
    # support: arcs must be block-ascending for their image index
    for arc, vec in g.mult:
        idx = host_partition.index_vector(arc)
        try:
            blocks = _position_blocks(idx, g.r)
        except ValueError:
            failures.append(LevelFailure(g.r, arc, "index consistent with arity", idx))
            continue
        for j, block in enumerate(blocks):
            part = set(host_partition.parts[j])
            if not {arc[pos] for pos in block} <= part:
                failures.append(
                    LevelFailure(
                        g.r,
                        arc,
                        f"position block {j} inside host part {j}",
                        idx,
                    )
                )
                break
    if failures:
        return _report("master", failures, range(g.r + 1), notes)
    span_cache: dict[tuple, SpanChecker] = {}
    for i in range(g.r + 1):
        found = None
        for image in combinations(range(g.n), i):
            psi = tuple(image)
            idx = host_partition.index_vector(image)
            key = (i, idx)
            checker = span_cache.get(key)
            if checker is None:
                gens = set()
                for h in patterns:
                    for theta in injections(i, q):
                        if pattern_partition.index_vector(set(theta)) == idx:
                            gens.add(h.degree_vector(theta))
                checker = SpanChecker(sorted(gens))
                span_cache[key] = checker
            vec = g.degree_vector(psi)
            if checker.membership(vec) is None:
                found = LevelFailure(
                    i, psi, f"span of pattern degree vectors at index {idx}", vec
                )
                break
        if found:
            failures.append(found)
    return _report("master", failures, range(g.r + 1), notes)


# ---------------------------------------------------------------------------
# reference lattice layer: the earlier second paths that the divisibility,
# weights and complexes modules now route through one primitive each, kept
# verbatim as references.  `ref_h_divisible` is the gcd loop that preceded
# the shared span scan, `ref_canonical_family_check` the family check with
# its own block rule and group test, `ref_master_edge_vector` the hand-rolled
# master lift, `ref_lift_coloured_weight_system` the weight-system function
# that read only coloured patterns, and `ref_orbits_at_size` the orbit walk
# of `LabelledComplex.orbits_at_size` with the complex passed as ``phi``.


def ref_h_divisible(g: Hypergraph, h: Hypergraph) -> DivisibilityReport:
    """Each host degree divisible by the gcd of same-level pattern degrees."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    if not h.edges:
        raise ValueError("pattern has no edges; degree gcd undefined")
    failures = []
    for i in range(g.r + 1):
        level_gcd = 0
        for f in combinations(range(h.n), i):
            level_gcd = gcd(level_gcd, h.degree(f))
        if level_gcd <= 1:
            continue
        for e in combinations(range(g.n), i):
            d = g.degree(e)
            if d % level_gcd:
                failures.append(
                    LevelFailure(i, e, f"{level_gcd} | degree", (d,))
                )
                break
    return _report("h", failures, range(g.r + 1))


def ref_canonical_family_check(patterns, partition: Partition) -> CanonicalInfo:
    """Infer per-colour index vectors and per-block symmetry groups, or
    raise naming the violated clause.

    Clauses: every colour-d arc places its position blocks into the
    matching parts; no two colours share an arc image inside one pattern;
    the same-image arcs of a colour form left cosets of one block-product
    group, shared across the family.
    """
    if not patterns:
        raise ValueError("empty pattern family")
    if not partition.is_ordered_intervals():
        raise ValueError("pattern partition must be ordered intervals")
    q = patterns[0].n
    r = patterns[0].r
    D = patterns[0].colours
    for h in patterns:
        if (h.n, h.r, h.colours) != (q, r, D):
            raise ValueError("patterns disagree on (q, r, colours)")
        for arc, vec in h.mult:
            if any(m > 1 for m in vec) or sum(vec) != 1:
                raise ValueError(f"arc {arc} must carry exactly one colour once")
    colour_index: list = [None] * D
    groups: list = [None] * D
    blocks_per_colour: list = [None] * D
    for h in patterns:
        by_colour: dict[int, list] = {}
        for arc, vec in h.mult:
            by_colour.setdefault(vec.index(1), []).append(arc)
        for d, arcs in by_colour.items():
            for arc in arcs:
                idx = partition.index_vector(arc)
                if colour_index[d] is None:
                    colour_index[d] = idx
                    blocks_per_colour[d] = _position_blocks(idx, r)
                elif colour_index[d] != idx:
                    raise ValueError(
                        f"colour {d} arcs have mixed indices {colour_index[d]} and {idx}"
                    )
                blocks = blocks_per_colour[d]
                for j, block in enumerate(blocks):
                    part = set(partition.parts[j])
                    if not {arc[pos] for pos in block} <= part:
                        raise ValueError(
                            f"colour {d} arc {arc} does not place block {j} into part {j}"
                        )
            # same-image structure within this pattern
            by_image: dict[frozenset, list] = {}
            for arc in arcs:
                by_image.setdefault(frozenset(arc), []).append(arc)
            image_sets = set()
            for img, same in by_image.items():
                for d2, arcs2 in by_colour.items():
                    if d2 != d and any(frozenset(a) == img for a in arcs2):
                        raise ValueError(
                            f"image {sorted(img)} occurs in colours {d} and {d2}"
                        )
                per_base = set()
                for base in same:
                    pos_of = {v: k for k, v in enumerate(base)}
                    per_base.add(
                        frozenset(
                            tuple(pos_of[other[k]] for k in range(r))
                            for other in same
                        )
                    )
                if len(per_base) > 1:
                    raise ValueError(
                        f"colour {d} same-image arcs at {sorted(img)} are not a coset"
                    )
                image_sets.add(per_base.pop())
            if len(image_sets) > 1:
                raise ValueError(f"colour {d} same-image sets are not uniform")
            lam = image_sets.pop() if image_sets else frozenset({tuple(range(r))})
            ident = tuple(range(r))
            if ident not in lam:
                raise ValueError(f"colour {d} symmetry set misses the identity")
            for a in lam:
                for b in lam:
                    if tuple(a[b[k]] for k in range(r)) not in lam:
                        raise ValueError(f"colour {d} symmetry set is not a group")
            blocks = blocks_per_colour[d]
            projections = []
            for block in blocks:
                proj = set()
                for sigma in lam:
                    if not {sigma[pos] for pos in block} <= set(block):
                        raise ValueError(
                            f"colour {d} symmetry does not preserve position blocks"
                        )
                    proj.add(tuple(sigma[pos] for pos in block))
                projections.append(proj)
            size = 1
            for proj in projections:
                size *= len(proj)
            if size != len(lam):
                raise ValueError(
                    f"colour {d} symmetry is not a product over position blocks"
                )
            if groups[d] is None:
                groups[d] = lam
            elif groups[d] != lam:
                raise ValueError(f"colour {d} symmetry differs across the family")
    for d in range(D):
        if colour_index[d] is None:
            raise ValueError(f"colour {d} unused by the family")
    return CanonicalInfo(
        colour_index=colour_index,
        position_blocks=blocks_per_colour,
        groups=groups,
    )


def ref_master_edge_vector(
    g: ColouredMultidigraph,
    host_partition: Partition,
    phi: LabelledComplex,
) -> EdgeVector:
    """Order-preserving lift of a coloured multidigraph into a partite complex.

    Each arc lifts to the label sets whose part index matches the arc
    image's host index; the arc must place its position blocks into the
    matching host parts in ascending order, otherwise the lift leaves the
    complex and the host is rejected.
    """
    out: EdgeVector = {}
    q = phi.q
    r = g.r
    label_index = {}
    for B in combinations(range(q), r):
        label_index.setdefault(
            phi.label_partition.index_vector(B) if phi.label_partition else (r,),
            [],
        ).append(B)
    for arc, vec in g.mult:
        host_idx = host_partition.index_vector(arc)
        targets = label_index.get(host_idx, [])
        if not targets:
            raise ValueError(f"arc {arc} has index {host_idx} outside the label indices")
        for B in targets:
            pairs = tuple(zip(sorted(B), arc))
            psi = tuple(sorted(pairs))
            if psi not in phi:
                raise ValueError(
                    f"arc {arc} does not map its position blocks into the host parts"
                )
            cur = out.get(psi, _zero(g.colours))
            out[psi] = _vec_add(cur, vec)
    return out


def ref_lift_coloured_weight_system(
    patterns, partition: Partition | None = None
) -> WeightSystem:
    """One tag per coloured pattern; an r-level map gets the unit vector of
    the colour its image carries in that pattern.

    With a label partition the group is the part stabilizer, otherwise
    the full symmetric group.
    """
    if not patterns:
        raise ValueError("empty pattern family")
    q = patterns[0].n
    r = patterns[0].r
    dim = patterns[0].colours
    for h in patterns:
        if (h.n, h.r, h.colours) != (q, r, dim):
            raise ValueError("patterns disagree on (q, r, colours)")
        for e, vec in h.mult:
            if sum(vec) != 1:
                raise ValueError(f"pattern edge {e} must carry exactly one colour once")
    group = (
        PermGroup.part_stabilizer(partition)
        if partition is not None
        else PermGroup.symmetric(q)
    )
    # each pattern edge carries one unit colour vector: its weight
    weight = {
        (tag, theta): vec
        for tag, h in enumerate(patterns)
        for theta, vec in _lift(h, q, group.restrictions).items()
    }
    return WeightSystem(group, r, dim, [f"pattern-{i}" for i in range(len(patterns))], weight)


def ref_orbits_at_size(phi: LabelledComplex, size: int, group: PermGroup) -> list[tuple[Inj, ...]]:
    """Orbit decomposition of the size-level, canonically sorted."""
    seen = set()
    out = []
    for psi in phi.at_size(size):
        if psi in seen:
            continue
        orb = phi.orbit(psi, group)
        for member in orb:
            if member not in phi.levels.get(inj_domain(member), frozenset()):
                raise ValueError("complex is not adapted to the group")
            seen.add(member)
        out.append(orb)
    return sorted(out)


# ---------------------------------------------------------------------------
# the integer-lattice module's earlier dense Hermite normal form and its
# incremental row lattice, and the solver's integral oracle built on that
# lattice, kept verbatim as references.  `integral_decomposition_exists`
# must give the same verdicts; `hermite_normal_form` the same (H, U).


def _ref_pivot_col(row: list[int]) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def ref_hermite_normal_form(matrix) -> tuple[list, list]:
    """Row-style HNF of an integer matrix.

    Returns (H, U) with U @ M == H and |det U| == 1.  H is in row echelon
    form with positive pivots, entries above each pivot reduced into
    [0, pivot), and zero rows at the bottom; this form is unique for the
    row lattice of M, which makes it usable for golden tests.
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def sub(i: int, k: int, q: int) -> None:
        # row i -= q * row k, in both m and u
        mi, mk = m[i], m[k]
        for j in range(ncols):
            mi[j] -= q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(nrows):
            ui[j] -= q * uk[j]

    r = 0
    for c in range(ncols):
        # gcd-eliminate column c below row r until one nonzero entry is left
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i != i0:
                    q = m[i][c] // m[i0][c]
                    if q:
                        sub(i, i0, q)
        nz = [i for i in range(r, nrows) if m[i][c]]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != r:
            m[r], m[i0] = m[i0], m[r]
            u[r], u[i0] = u[i0], u[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        piv = m[r][c]
        for i in range(r):
            q = m[i][c] // piv
            if q:
                sub(i, r, q)
        r += 1
        if r == nrows:
            break
    return m, u


class IncrementalLattice:
    """Integer row lattice built by inserting vectors one at a time.

    Keeps an echelon basis keyed by pivot column, with each basis row
    carrying its expression in the inserted vectors, so membership queries
    can report witnesses.  Suited to incidence systems whose HNF would be
    wasteful to recompute per insertion.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.ntags = 0
        # pivot col -> (row, expression over inserted vectors)
        self._basis: dict[int, tuple[list[int], dict[int, int]]] = {}

    @staticmethod
    def _combine(dst: dict[int, int], src: dict[int, int], mult: int) -> None:
        if not mult:
            return
        for k, x in src.items():
            dst[k] = dst.get(k, 0) + mult * x

    def insert(self, vector) -> bool:
        """Insert a vector; returns True when it enlarged the lattice."""
        row = list(map(int, vector))
        if len(row) != self.ncols:
            raise ValueError("dimension mismatch")
        expr = {self.ntags: 1}
        self.ntags += 1
        c = 0
        while c < self.ncols:
            if not row[c]:
                c += 1
                continue
            hit = self._basis.get(c)
            if hit is None:
                if row[c] < 0:
                    row = [-x for x in row]
                    expr = {k: -x for k, x in expr.items()}
                self._basis[c] = (row, expr)
                return True
            brow, bexpr = hit
            p = brow[c]
            if row[c] % p == 0:
                q = row[c] // p
                for j in range(c, self.ncols):
                    row[j] -= q * brow[j]
                self._combine(expr, bexpr, -q)
                c += 1
            else:
                # replace the pivot by the gcd combination, keep reducing
                g = gcd(p, row[c])
                a, b = _bezout(p, row[c], g)
                new_row = [a * brow[j] + b * row[j] for j in range(self.ncols)]
                new_expr = {k: a * x for k, x in bexpr.items()}
                self._combine(new_expr, expr, b)
                qp, qr = p // g, row[c] // g
                row = [qp * row[j] - qr * brow[j] for j in range(self.ncols)]
                old_expr = expr
                expr = {k: qp * x for k, x in old_expr.items()}
                self._combine(expr, bexpr, -qr)
                self._basis[c] = (new_row, new_expr)
        return False

    def membership(self, vector) -> dict[int, int] | None:
        """Witness {inserted-index: weight} expressing vector, or None."""
        v = list(map(int, vector))
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        wit: dict[int, int] = {}
        for c in range(self.ncols):
            if not v[c]:
                continue
            hit = self._basis.get(c)
            if hit is None:
                return None
            brow, bexpr = hit
            q, rem = divmod(v[c], brow[c])
            if rem:
                return None
            for j in range(c, self.ncols):
                v[j] -= q * brow[j]
            self._combine(wit, bexpr, q)
        return wit


def _bezout(a: int, b: int, g: int) -> tuple[int, int]:
    # extended gcd coefficients for a*x + b*y == g
    x0, x1, y0, y1 = 1, 0, 0, 1
    aa, bb = a, b
    while bb:
        q, (aa, bb) = aa // bb, (bb, aa % bb)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if aa == g:
        return x0, y0
    return -x0, -y0


def ref_integral_decomposition_exists(
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


def criterion_12_instances() -> list[tuple]:
    """(host, patterns, partition) for the thirteen instances of the
    acceptance soundness chain: triangles in K_7, K_9, K_13; partite
    triangles and sudoku blow-ups; cyclic triangles in K*_3, K*_4, K*_7;
    the resolvable and large-set instances of order 9; and triangles
    with unit colour in doubled K_6."""
    from decomp_lab.encodings import (
        large_set_instance,
        resolvable_sts_instance,
        sudoku_host,
        sudoku_pattern,
        tight_cycle,
        triangle_host,
        triangle_pattern,
    )

    triangle = Hypergraph.complete(3, 2)
    out = [(Hypergraph.complete(n, 2), triangle, None) for n in (7, 9, 13)]
    tri, tpart = triangle_pattern()
    for n in (2, 3, 4):
        host, hpart = triangle_host(n)
        out.append((host, tri, (tpart, hpart)))
    sp, spart = sudoku_pattern()
    shost, shpart = sudoku_host(2)
    out.append((shost, sp, (spart, shpart)))
    cycle = tight_cycle(3, 2)
    out += [(Digraph.complete(n, 2), cycle, None) for n in (3, 4, 7)]
    for inst in (resolvable_sts_instance(9), large_set_instance(9)):
        out.append(
            (inst.host, inst.pattern, (inst.pattern_partition, inst.host_partition))
        )
    doubled = ColouredMultigraph.from_dict(
        6, 2, 1, {e: (2,) for e in Hypergraph.complete(6, 2).sorted_edges()}
    )
    ctri = ColouredMultigraph.from_dict(
        3, 2, 1, {e: (1,) for e in triangle.sorted_edges()}
    )
    out.append((doubled, ctri, None))
    return out


# ---------------------------------------------------------------------------
# reference triple-system verifiers: each with its own checks


def ref_verify_resolvable(cert, n: int) -> bool:
    """Blocks form a triple system on 0..n-1 and the classes partition them
    into perfect matchings."""
    if cert.kind != "resolvable-sts" or cert.classes is None:
        return False
    pair_seen = set()
    for block in cert.blocks:
        if len(block) != 3 or len(set(block)) != 3:
            return False
        if not all(0 <= v < n for v in block):
            return False
        for pair in combinations(sorted(block), 2):
            if pair in pair_seen:
                return False
            pair_seen.add(pair)
    if len(pair_seen) != comb(n, 2):
        return False
    covered = sorted(i for cls in cert.classes for i in cls)
    if covered != list(range(len(cert.blocks))):
        return False
    for cls in cert.classes:
        verts = [v for i in cls for v in cert.blocks[i]]
        if sorted(verts) != list(range(n)):
            return False
    return True


def ref_verify_large_set(cert, n: int) -> bool:
    """n-2 pairwise block-disjoint triple systems covering every triple."""
    if cert.kind != "large-set" or cert.classes is None:
        return False
    if len(cert.classes) != n - 2:
        return False
    covered = sorted(i for cls in cert.classes for i in cls)
    if covered != list(range(len(cert.blocks))):
        return False
    all_triples = set()
    for block in cert.blocks:
        if len(block) != 3 or not all(0 <= v < n for v in block):
            return False
        key = tuple(sorted(block))
        if key in all_triples:
            return False
        all_triples.add(key)
    if len(all_triples) != comb(n, 3):
        return False
    for cls in cert.classes:
        pair_seen = set()
        for i in cls:
            for pair in combinations(sorted(cert.blocks[i]), 2):
                if pair in pair_seen:
                    return False
                pair_seen.add(pair)
        if len(pair_seen) != comb(n, 2):
            return False
    return True
