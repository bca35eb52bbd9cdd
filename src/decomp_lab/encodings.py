"""Design equivalences: Latin squares, Sudoku, resolvable triple systems,
large sets, plus pattern constructors (tight cycles, rainbow families,
labelled-edge lifts).

All encoders are bijections on valid inputs and reject invalid ones with
the violated clause; each design kind has an independent verifier that
never trusts solver output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb

from .core import (
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    blowup,
)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class LatinSquare:
    """Order-n grid over symbols 0..n-1, one per row and column."""

    grid: tuple

    @classmethod
    def from_rows(cls, rows) -> "LatinSquare":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.grid)

    def validate(self) -> None:
        n = self.order
        for i, row in enumerate(self.grid):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if sorted(row) != list(range(n)):
                raise ValueError(f"row {i} does not use every symbol once")
        for j in range(n):
            col = [self.grid[i][j] for i in range(n)]
            if sorted(col) != list(range(n)):
                raise ValueError(f"column {j} does not use every symbol once")

    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.grid)

    @classmethod
    def from_text(cls, text: str) -> "LatinSquare":
        rows = [line.split() for line in text.strip().splitlines()]
        return cls.from_rows(rows)


@dataclass(frozen=True)
class SudokuGrid:
    """Latin square of order n^2 whose n x n aligned boxes each use every
    symbol once."""

    box_order: int
    grid: tuple

    @classmethod
    def from_rows(cls, box_order: int, rows) -> "SudokuGrid":
        return cls(box_order, tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return self.box_order * self.box_order

    def validate(self) -> None:
        n = self.box_order
        LatinSquare(self.grid).validate()
        if len(self.grid) != n * n:
            raise ValueError("grid size does not match the box order")
        for bi in range(n):
            for bj in range(n):
                box = [
                    self.grid[bi * n + i][bj * n + j]
                    for i in range(n)
                    for j in range(n)
                ]
                if sorted(box) != list(range(n * n)):
                    raise ValueError(f"box ({bi},{bj}) does not use every symbol once")

    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.grid)

    @classmethod
    def from_text(cls, box_order: int, text: str) -> "SudokuGrid":
        rows = [line.split() for line in text.strip().splitlines()]
        return cls.from_rows(box_order, rows)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class DesignCertificate:
    kind: str
    blocks: list  # vertex tuples
    classes: list | None = None  # grouping of block indices (classes/systems)

    def to_json_dict(self) -> dict:
        doc = {"type": "design-certificate", "kind": self.kind,
               "blocks": [list(b) for b in self.blocks]}
        if self.classes is not None:
            doc["classes"] = [list(c) for c in self.classes]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DesignCertificate":
        if type(doc) is not dict or doc.get("type") != "design-certificate":
            raise ValueError("not a design-certificate document")
        kind, blocks, classes = doc.get("kind"), doc.get("blocks"), doc.get("classes", [])
        if type(kind) is not str or not _int_lists(blocks) or not _int_lists(classes):
            raise ValueError("design-certificate kind, blocks or classes missing or ill-typed")
        return cls(kind, [tuple(b) for b in blocks], classes if "classes" in doc else None)


def _int_lists(x) -> bool:
    return type(x) is list and all(type(r) is list and all(type(v) is int for v in r) for r in x)


def _grid_certificate(kind: str, n: int, cells) -> DesignCertificate:
    """Cells given as coordinate tuples to sorted blocks: coordinate x of
    part j becomes vertex j*n + x."""
    blocks = [tuple(sorted(j * n + x for j, x in enumerate(cell))) for cell in cells]
    return DesignCertificate(kind=kind, blocks=sorted(blocks))


def _grid_cells(cert: DesignCertificate, kind: str, n: int, parts: int, width: int) -> dict:
    """Inverse of _grid_certificate for a grid of n**width cells: every block
    holds, in any order, exactly one integer vertex in each part's range
    j*n..j*n+n-1, and its first width coordinates name a cell no other
    block names.  Returns {cell coordinates: the remaining coordinates}."""
    if cert.kind != kind:
        raise ValueError("certificate kind mismatch")
    if len(cert.blocks) != n**width:
        raise ValueError(f"expected {n**width} blocks, got {len(cert.blocks)}")
    cells = {}
    for block in cert.blocks:
        if len(block) != parts or any(type(v) is not int for v in block):
            raise ValueError(f"block {block} is not {parts} integer vertices")
        ordered = sorted(block)
        if [v // n for v in ordered] != list(range(parts)):
            raise ValueError(f"block {block} is not transversal to the parts")
        coords = tuple(v - j * n for j, v in enumerate(ordered))
        if coords[:width] in cells:
            raise ValueError(f"cell {coords[:width]} covered twice")
        cells[coords[:width]] = coords[width:]
    return cells


# ---------------------------------------------------------------------------
# Latin squares <-> partite triangle decompositions


def triangle_pattern() -> tuple[Hypergraph, Partition]:
    return Hypergraph.complete(3, 2), Partition.singletons(3)


def triangle_host(n: int) -> tuple[Hypergraph, Partition]:
    """Complete tripartite graph with parts rows, columns, symbols."""
    return blowup(Hypergraph.complete(3, 2), [n, n, n])


def latin_encode(square: LatinSquare):
    """Cells to partite triangles: cell (i, j) = s becomes {row i, col j, sym s}."""
    square.validate()
    cells = [(i, j, s) for i, row in enumerate(square.grid) for j, s in enumerate(row)]
    return _grid_certificate("latin-triangles", square.order, cells)


def latin_decode(cert: DesignCertificate, n: int) -> LatinSquare:
    cells = _grid_cells(cert, "latin-triangles", n, 3, 2)
    square = LatinSquare.from_rows([[cells[i, j][0] for j in range(n)] for i in range(n)])
    square.validate()
    return square


def mols_pattern() -> tuple[Hypergraph, Partition]:
    return Hypergraph.complete(4, 2), Partition.singletons(4)


def mols_host(n: int) -> tuple[Hypergraph, Partition]:
    return blowup(Hypergraph.complete(4, 2), [n, n, n, n])


def mols_encode(first: LatinSquare, second: LatinSquare) -> DesignCertificate:
    """Orthogonal pair to partite 4-cliques: cell (i, j) becomes
    {row i, col j, sym1, sym2}; orthogonality means every symbol pair
    appears exactly once."""
    first.validate()
    second.validate()
    n = first.order
    if second.order != n:
        raise ValueError("orders differ")
    seen = set()
    cells = []
    for i in range(n):
        for j in range(n):
            pair = (first.grid[i][j], second.grid[i][j])
            if pair in seen:
                raise ValueError(f"symbol pair {pair} appears twice; squares not orthogonal")
            seen.add(pair)
            cells.append((i, j) + pair)
    return _grid_certificate("mols-cliques", n, cells)


def mols_decode(cert: DesignCertificate, n: int) -> tuple[LatinSquare, LatinSquare]:
    cells = _grid_cells(cert, "mols-cliques", n, 4, 2)
    first, second = (
        LatinSquare.from_rows([[cells[i, j][k] for j in range(n)] for i in range(n)])
        for k in (0, 1)
    )
    mols_encode(first, second)  # revalidates Latin + orthogonality
    return first, second


# ---------------------------------------------------------------------------
# Sudoku <-> 4-graph blowup decompositions


def sudoku_pattern() -> tuple[Hypergraph, Partition]:
    """Six-vertex 4-graph: vertices (x1,x2,y1,y2,z1,z2) = 0..5 and edges
    rows-cols, rows-syms, cols-syms, box-syms."""
    edges = [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5), (0, 2, 4, 5)]
    return Hypergraph.from_edges(6, 4, edges), Partition.singletons(6)


def sudoku_host(n: int) -> tuple[Hypergraph, Partition]:
    h, _ = sudoku_pattern()
    return blowup(h, [n] * 6)


def sudoku_encode(grid: SudokuGrid) -> DesignCertificate:
    """Cells to pattern copies: row (a1,a2), column (b1,b2), symbol (c1,c2),
    box (a1,b1); blocks store the six part-offset images."""
    grid.validate()
    n = grid.box_order
    cells = [
        divmod(row, n) + divmod(col, n) + divmod(sym, n)
        for row, line in enumerate(grid.grid)
        for col, sym in enumerate(line)
    ]
    return _grid_certificate("sudoku-copies", n, cells)


def sudoku_decode(cert: DesignCertificate, box_order: int) -> SudokuGrid:
    n = box_order
    grid = [[0] * (n * n) for _ in range(n * n)]
    for (a1, a2, b1, b2), (c1, c2) in _grid_cells(cert, "sudoku-copies", n, 6, 4).items():
        grid[a1 * n + a2][b1 * n + b2] = c1 * n + c2
    out = SudokuGrid.from_rows(n, grid)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# resolvable triple systems and large sets


@dataclass
class PartiteInstance:
    host: Hypergraph
    host_partition: Partition
    pattern: Hypergraph
    pattern_partition: Partition
    kind: str = ""


def resolvable_sts_instance(n: int) -> PartiteInstance:
    """Host whose partite 4-clique decompositions are the resolvable triple
    systems of order n: point part of size n, class part of size (n-1)/2,
    edges all pairs not inside the class part."""
    if n % 6 != 3:
        raise ValueError("resolvable instances need n congruent to 3 mod 6")
    classes = (n - 1) // 2
    total = n + classes
    edges = [e for e in combinations(range(total), 2) if e[0] < n]
    return PartiteInstance(
        host=Hypergraph.from_edges(total, 2, edges),
        host_partition=Partition.from_lists([range(n), range(n, total)]),
        pattern=Hypergraph.complete(4, 2),
        pattern_partition=Partition.from_lists([[0, 1, 2], [3]]),
        kind="resolvable-sts",
    )


def _extract_by_label(embeddings, kind: str) -> DesignCertificate:
    """Copies (images of pattern vertices 0..3) to triples grouped by the
    image of vertex 3."""
    blocks = []
    labels = []
    for images in embeddings:
        blocks.append(tuple(sorted(images[:3])))
        labels.append(images[3])
    order = sorted(range(len(blocks)), key=lambda k: (labels[k], blocks[k]))
    blocks = [blocks[k] for k in order]
    labels = [labels[k] for k in order]
    classes: dict[int, list[int]] = {}
    for idx, y in enumerate(labels):
        classes.setdefault(y, []).append(idx)
    return DesignCertificate(
        kind=kind,
        blocks=blocks,
        classes=[classes[y] for y in sorted(classes)],
    )


def _classes_to_embeddings(cert: DesignCertificate, n: int, verify, what: str) -> list[tuple]:
    """Inverse of _extract_by_label: class k's triples get label vertex n + k."""
    if not verify(cert, n):
        raise ValueError(f"not a valid {what} certificate")
    out = []
    for label, cls in enumerate(cert.classes):
        y = n + label
        for idx in cls:
            triple = cert.blocks[idx]
            out.append((triple[0], triple[1], triple[2], y))
    return sorted(out)


def extract_resolvable(embeddings, n: int) -> DesignCertificate:
    """Copies to triples grouped into parallel classes by the image of vertex 3."""
    return _extract_by_label(embeddings, "resolvable-sts")


def _triple_classes(cert: DesignCertificate, n: int, kind: str) -> bool:
    """The certificate has the kind and classes, its blocks are 3-sets of
    0..n-1, and its classes partition the block indices."""
    if cert.kind != kind or cert.classes is None:
        return False
    if not all(len(b) == len(set(b)) == 3 and all(0 <= v < n for v in b) for b in cert.blocks):
        return False
    return sorted(i for cls in cert.classes for i in cls) == list(range(len(cert.blocks)))


def _pairs_once(blocks, n: int) -> bool:
    """Every pair of 0..n-1 lies in exactly one of the triples in blocks."""
    pairs = [pair for block in blocks for pair in combinations(sorted(block), 2)]
    return len(pairs) == len(set(pairs)) == comb(n, 2)


def verify_resolvable(cert: DesignCertificate, n: int) -> bool:
    """Blocks form a triple system on 0..n-1 and the classes partition them
    into perfect matchings."""
    if not _triple_classes(cert, n, "resolvable-sts") or not _pairs_once(cert.blocks, n):
        return False
    return all(
        sorted(v for i in cls for v in cert.blocks[i]) == list(range(n)) for cls in cert.classes
    )


def resolvable_to_embeddings(cert: DesignCertificate, n: int) -> list[tuple]:
    """Inverse direction: parallel classes back to partite 4-clique copies."""
    return _classes_to_embeddings(cert, n, verify_resolvable, "resolvable triple system")


def large_set_instance(n: int) -> PartiteInstance:
    """Host whose partite complete-4-block decompositions are the partitions
    of all triples on n points into n-2 disjoint triple systems."""
    if n % 6 not in (1, 3):
        raise ValueError("large-set instances need n congruent to 1 or 3 mod 6")
    total = n + (n - 2)
    edges = [
        e
        for e in combinations(range(total), 3)
        if sum(1 for v in e if v < n) >= 2
    ]
    return PartiteInstance(
        host=Hypergraph.from_edges(total, 3, edges),
        host_partition=Partition.from_lists([range(n), range(n, total)]),
        pattern=Hypergraph.complete(4, 3),
        pattern_partition=Partition.from_lists([[0, 1, 2], [3]]),
        kind="large-set",
    )


def extract_large_set(embeddings, n: int) -> DesignCertificate:
    """Copies to triples grouped into systems by the image of vertex 3."""
    return _extract_by_label(embeddings, "large-set")


def verify_large_set(cert: DesignCertificate, n: int) -> bool:
    """n-2 pairwise block-disjoint triple systems covering every triple."""
    if not _triple_classes(cert, n, "large-set") or len(cert.classes) != n - 2:
        return False
    triples = {tuple(sorted(b)) for b in cert.blocks}
    return len(cert.blocks) == len(triples) == comb(n, 3) and all(
        _pairs_once([cert.blocks[i] for i in cls], n) for cls in cert.classes
    )


def large_set_to_embeddings(cert: DesignCertificate, n: int) -> list[tuple]:
    """Inverse direction: systems back to partite complete-4-block copies."""
    return _classes_to_embeddings(cert, n, verify_large_set, "large-set")


# ---------------------------------------------------------------------------
# pattern constructors


def tight_cycle(q: int, r: int) -> Digraph:
    """q arcs on q vertices, arc j reading (j, j+1, ..., j+r-1) mod q;
    simple exactly because q > r."""
    if not q > r >= 2:
        raise ValueError("tight cycles need q > r >= 2")
    arcs = [tuple((i + j) % q for i in range(r)) for j in range(q)]
    return Digraph.from_arcs(q, r, arcs)


def rainbow_family(colours: int) -> list[ColouredMultigraph]:
    """All triangles on three vertices whose edges carry three distinct
    colours; one pattern per labelled colour assignment."""
    if colours < 3:
        raise ValueError("rainbow triangles need at least three colours")
    edges = [(0, 1), (0, 2), (1, 2)]
    out = []
    for assignment in permutations(range(colours), 3):
        classes: list[list] = [[] for _ in range(colours)]
        for e, d in zip(edges, assignment):
            classes[d].append(e)
        out.append(ColouredMultigraph.from_colour_classes(3, 2, colours, classes))
    return out


def lift_edge(e, q: int, mode: str = "unordered") -> list[tuple]:
    """Labelled-edge lifts of one edge or arc.

    unordered: all (q)_r placements of the r-set onto label subsets;
    ordered: the binom(q, r) order-preserving placements of the arc.
    Returns injections as sorted (label, vertex) pair tuples.
    """
    e = tuple(e)
    r = len(e)
    if r > q:
        raise ValueError("edge size exceeds the label count")
    out = []
    if mode == "unordered":
        if len(set(e)) != r:
            raise ValueError("edge vertices must be distinct")
        for labels in combinations(range(q), r):
            for img in permutations(e):
                out.append(tuple(zip(labels, img)))
    elif mode == "ordered":
        for labels in combinations(range(q), r):
            out.append(tuple(zip(labels, e)))
    else:
        raise ValueError("mode must be 'unordered' or 'ordered'")
    return sorted(out)

