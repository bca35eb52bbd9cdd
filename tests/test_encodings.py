"""Design encoders, their inverses, and pattern constructors."""

import random
from itertools import permutations
from math import comb

import pytest

from decomp_lab.core import Digraph, Hypergraph
from decomp_lab.encodings import (
    DesignCertificate,
    LatinSquare,
    SudokuGrid,
    extract_large_set,
    extract_resolvable,
    large_set_instance,
    large_set_to_embeddings,
    latin_decode,
    latin_encode,
    lift_edge,
    mols_decode,
    mols_encode,
    rainbow_family,
    resolvable_sts_instance,
    resolvable_to_embeddings,
    sudoku_decode,
    sudoku_encode,
    sudoku_pattern,
    tight_cycle,
    verify_large_set,
    verify_resolvable,
)
from oracles import (
    all_latin_squares,
    kirkman_triple_system_9,
    ref_verify_large_set,
    ref_verify_resolvable,
)


def test_latin_validation():
    LatinSquare.from_rows([[0, 1], [1, 0]]).validate()
    with pytest.raises(ValueError, match="row"):
        LatinSquare.from_rows([[0, 0], [1, 1]]).validate()
    with pytest.raises(ValueError, match="column"):
        LatinSquare.from_rows([[0, 1], [0, 1]]).validate()


def test_latin_encode_order_one_and_roundtrip():
    one = LatinSquare.from_rows([[0]])
    cert = latin_encode(one)
    assert cert.blocks == [(0, 1, 2)]
    assert latin_decode(cert, 1) == one
    rng = random.Random(5)
    squares = list(all_latin_squares(4))
    for square_rows in rng.sample(squares, 10):
        square = LatinSquare.from_rows(square_rows)
        cert = latin_encode(square)
        assert len(cert.blocks) == 16
        assert latin_decode(cert, 4) == square


def test_latin_decode_rejects_corruption():
    square = LatinSquare.from_rows([[0, 1], [1, 0]])
    cert = latin_encode(square)
    broken = DesignCertificate(kind=cert.kind, blocks=cert.blocks[:-1] + [cert.blocks[0]])
    with pytest.raises(ValueError):
        latin_decode(broken, 2)


def test_latin_text_roundtrip():
    square = LatinSquare.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert LatinSquare.from_text(square.to_text()) == square


def test_mols_encode_decode():
    # the classical orthogonal pair of order 3
    first = LatinSquare.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    second = LatinSquare.from_rows([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    cert = mols_encode(first, second)
    assert len(cert.blocks) == 9
    got1, got2 = mols_decode(cert, 3)
    assert (got1, got2) == (first, second)
    with pytest.raises(ValueError, match="orthogonal"):
        mols_encode(first, first)


def test_sudoku_pattern_shape():
    h, _ = sudoku_pattern()
    assert h.n == 6 and h.r == 4 and h.edge_count == 4


def test_sudoku_trivial_and_roundtrip():
    grid1 = SudokuGrid.from_rows(1, [[0]])
    cert1 = sudoku_encode(grid1)
    assert len(cert1.blocks) == 1
    assert sudoku_decode(cert1, 1) == grid1
    grid2 = SudokuGrid.from_rows(
        2,
        [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]],
    )
    grid2.validate()
    cert2 = sudoku_encode(grid2)
    assert len(cert2.blocks) == 16
    assert sudoku_decode(cert2, 2) == grid2


def test_sudoku_rejects_box_violation():
    # Latin but with a broken box
    rows = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    grid = SudokuGrid.from_rows(2, rows)
    with pytest.raises(ValueError, match="box"):
        grid.validate()


def test_resolvable_instance_shapes():
    inst = resolvable_sts_instance(9)
    assert inst.host_partition.sizes() == (9, 4)
    assert inst.host.edge_count == comb(9, 2) * 2
    trivial = resolvable_sts_instance(3)
    assert trivial.host_partition.sizes() == (3, 1)
    assert trivial.host.edge_count == 3 + 3
    with pytest.raises(ValueError):
        resolvable_sts_instance(7)
    with pytest.raises(ValueError):
        resolvable_sts_instance(8)


def test_large_set_instance_shapes():
    inst = large_set_instance(9)
    assert inst.host_partition.sizes() == (9, 7)
    assert inst.host.edge_count == comb(9, 3) + comb(9, 2) * 7
    # the constructor allows n = 7 even though no object exists there
    inst7 = large_set_instance(7)
    assert inst7.host_partition.sizes() == (7, 5)
    with pytest.raises(ValueError):
        large_set_instance(8)


def test_resolvable_roundtrip_on_synthetic_system():
    classes = kirkman_triple_system_9()
    blocks = [b for cls in classes for b in cls]
    index_classes = []
    pos = 0
    for cls in classes:
        index_classes.append(list(range(pos, pos + len(cls))))
        pos += len(cls)
    cert = DesignCertificate(kind="resolvable-sts", blocks=blocks, classes=index_classes)
    assert verify_resolvable(cert, 9)
    embeddings = resolvable_to_embeddings(cert, 9)
    assert len(embeddings) == 12
    again = extract_resolvable(embeddings, 9)
    assert verify_resolvable(again, 9)
    assert sorted(again.blocks) == sorted(cert.blocks)
    # class structure survives up to relabelling
    assert sorted(len(c) for c in again.classes) == sorted(
        len(c) for c in cert.classes
    )
    # a third pass reproduces the second exactly (canonical labels)
    embeddings2 = resolvable_to_embeddings(again, 9)
    assert extract_resolvable(embeddings2, 9) == again


def test_resolvable_verifier_rejects_bad_classes():
    classes = kirkman_triple_system_9()
    blocks = [b for cls in classes for b in cls]
    bad = DesignCertificate(
        kind="resolvable-sts",
        blocks=blocks,
        classes=[list(range(6)), list(range(6, 12))],
    )
    assert not verify_resolvable(bad, 9)


# a labelled partition of all triples on nine points into seven disjoint
# triple systems, produced by the exact-cover search and verified
# independently before freezing
LARGE_SET_9 = [
    [[0, 1, 8], [0, 2, 6], [0, 3, 7], [0, 4, 5], [1, 2, 7], [1, 3, 4],
     [1, 5, 6], [2, 3, 5], [2, 4, 8], [3, 6, 8], [4, 6, 7], [5, 7, 8]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8], [1, 3, 5], [1, 4, 7],
     [1, 6, 8], [2, 3, 8], [2, 4, 6], [2, 5, 7], [3, 6, 7], [4, 5, 8]],
    [[0, 1, 3], [0, 2, 5], [0, 4, 7], [0, 6, 8], [1, 2, 4], [1, 5, 8],
     [1, 6, 7], [2, 3, 6], [2, 7, 8], [3, 4, 8], [3, 5, 7], [4, 5, 6]],
    [[0, 1, 4], [0, 2, 8], [0, 3, 5], [0, 6, 7], [1, 2, 6], [1, 3, 8],
     [1, 5, 7], [2, 3, 7], [2, 4, 5], [3, 4, 6], [4, 7, 8], [5, 6, 8]],
    [[0, 1, 5], [0, 2, 7], [0, 3, 6], [0, 4, 8], [1, 2, 8], [1, 3, 7],
     [1, 4, 6], [2, 3, 4], [2, 5, 6], [3, 5, 8], [4, 5, 7], [6, 7, 8]],
    [[0, 1, 6], [0, 2, 4], [0, 3, 8], [0, 5, 7], [1, 2, 3], [1, 4, 5],
     [1, 7, 8], [2, 5, 8], [2, 6, 7], [3, 4, 7], [3, 5, 6], [4, 6, 8]],
    [[0, 1, 7], [0, 2, 3], [0, 4, 6], [0, 5, 8], [1, 2, 5], [1, 3, 6],
     [1, 4, 8], [2, 4, 7], [2, 6, 8], [3, 4, 5], [3, 7, 8], [5, 6, 7]],
]


def large_set_certificate():
    blocks = []
    classes = []
    pos = 0
    for system in LARGE_SET_9:
        blocks.extend(tuple(b) for b in system)
        classes.append(list(range(pos, pos + len(system))))
        pos += len(system)
    return DesignCertificate(kind="large-set", blocks=blocks, classes=classes)


def test_large_set_roundtrip_on_synthetic_certificate():
    cert = large_set_certificate()
    assert verify_large_set(cert, 9)
    embeddings = large_set_to_embeddings(cert, 9)
    assert len(embeddings) == 84
    again = extract_large_set(embeddings, 9)
    assert verify_large_set(again, 9)
    assert sorted(again.blocks) == sorted(cert.blocks)
    embeddings2 = large_set_to_embeddings(again, 9)
    assert extract_large_set(embeddings2, 9) == again


def test_large_set_verifier_rejects_duplicated_block():
    cert = large_set_certificate()
    blocks = list(cert.blocks)
    blocks[0] = blocks[1]
    assert not verify_large_set(
        DesignCertificate(kind="large-set", blocks=blocks, classes=cert.classes), 9
    )


def test_tight_cycle_shapes():
    c32 = tight_cycle(3, 2)
    assert c32.sorted_arcs() == [(0, 1), (1, 2), (2, 0)]
    c42 = tight_cycle(4, 2)
    assert c42.arc_count == 4 and c42.n == 4
    for q in range(3, 7):
        for r in range(2, q):
            assert tight_cycle(q, r).is_simple()
    with pytest.raises(ValueError):
        tight_cycle(2, 2)


def test_rainbow_family_shapes():
    fam3 = rainbow_family(3)
    assert len(fam3) == 6
    for h in fam3:
        dv = sorted(h.density_vector())
        assert dv.count(dv[-1]) == 3  # three coordinates equal to 1/3
    fam4 = rainbow_family(4)
    assert len(fam4) == 24
    with pytest.raises(ValueError):
        rainbow_family(2)


def test_lift_edge_sizes():
    for q in range(1, 7):
        for r in range(1, q + 1):
            e = tuple(range(100, 100 + r))
            unordered = lift_edge(e, q, "unordered")
            ordered = lift_edge(e, q, "ordered")
            falling = 1
            for k in range(r):
                falling *= q - k
            assert len(unordered) == falling
            assert len(ordered) == comb(q, r)
            assert len(set(unordered)) == len(unordered)
    with pytest.raises(ValueError):
        lift_edge((0, 1, 2), 2)


def test_lift_edge_worked_examples():
    assert len(lift_edge((10, 11), 3, "unordered")) == 6
    assert len(lift_edge((10, 11), 3, "ordered")) == 3
    assert len(lift_edge((10, 11), 2, "ordered")) == 1


def test_sudoku_order_nine_roundtrip():
    # the standard shifted-rows construction gives a valid completed grid
    rows = []
    for bi in range(3):
        for i in range(3):
            shift = 3 * i + bi
            rows.append([(shift + j) % 9 for j in range(9)])
    grid = SudokuGrid.from_rows(3, rows)
    grid.validate()
    cert = sudoku_encode(grid)
    assert len(cert.blocks) == 81
    assert sudoku_decode(cert, 3) == grid


ORDER_3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
ORDER_3_MATE = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
SUDOKU_4 = [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]


def test_grid_encodings_are_pinned():
    # captured from the encoders before they shared one block writer
    first, second = LatinSquare.from_rows(ORDER_3), LatinSquare.from_rows(ORDER_3_MATE)
    docs = [
        latin_encode(first).to_json_dict(),
        mols_encode(first, second).to_json_dict(),
        sudoku_encode(SudokuGrid.from_rows(2, SUDOKU_4)).to_json_dict(),
    ]
    assert docs == [
        {"type": "design-certificate", "kind": "latin-triangles", "blocks": [
            [0, 3, 6], [0, 4, 7], [0, 5, 8], [1, 3, 7], [1, 4, 8], [1, 5, 6],
            [2, 3, 8], [2, 4, 6], [2, 5, 7]]},
        {"type": "design-certificate", "kind": "mols-cliques", "blocks": [
            [0, 3, 6, 9], [0, 4, 7, 10], [0, 5, 8, 11], [1, 3, 7, 11], [1, 4, 8, 9],
            [1, 5, 6, 10], [2, 3, 8, 10], [2, 4, 6, 11], [2, 5, 7, 9]]},
        {"type": "design-certificate", "kind": "sudoku-copies", "blocks": [
            [0, 2, 4, 6, 8, 10], [0, 2, 4, 7, 8, 11], [0, 2, 5, 6, 9, 10],
            [0, 2, 5, 7, 9, 11], [0, 3, 4, 6, 9, 10], [0, 3, 4, 7, 9, 11],
            [0, 3, 5, 6, 8, 10], [0, 3, 5, 7, 8, 11], [1, 2, 4, 6, 8, 11],
            [1, 2, 4, 7, 8, 10], [1, 2, 5, 6, 9, 11], [1, 2, 5, 7, 9, 10],
            [1, 3, 4, 6, 9, 11], [1, 3, 4, 7, 9, 10], [1, 3, 5, 6, 8, 11],
            [1, 3, 5, 7, 8, 10]]},
    ]
    for doc in docs:
        assert DesignCertificate.from_json_dict(doc).to_json_dict() == doc


def _grid_designs():
    """(valid certificate, its decoder, the design it decodes to) per grid kind."""
    first, second = LatinSquare.from_rows(ORDER_3), LatinSquare.from_rows(ORDER_3_MATE)
    square4 = LatinSquare.from_rows(random.Random(3).choice(list(all_latin_squares(4))))
    grid = SudokuGrid.from_rows(2, SUDOKU_4)
    return [
        (latin_encode(first), lambda c: latin_decode(c, 3), first),
        (latin_encode(square4), lambda c: latin_decode(c, 4), square4),
        (mols_encode(first, second), lambda c: mols_decode(c, 3), (first, second)),
        (sudoku_encode(grid), lambda c: sudoku_decode(c, 2), grid),
    ]


def _corrupt(blocks, rng):
    """One seeded corruption of a block list, and what it did."""
    blocks = [list(b) for b in blocks]
    k, top = rng.randrange(len(blocks)), max(max(b) for b in blocks)
    pos = rng.randrange(len(blocks[k]))
    how = rng.choice([
        "drop", "duplicate", "move", "out of range", "negative", "float", "string",
        "none", "short", "long", "swap", "shuffle",
    ])
    if how == "drop":
        del blocks[k]
    elif how == "duplicate":
        blocks[rng.randrange(len(blocks))] = list(blocks[k])
    elif how == "move":
        blocks[k][pos] = rng.randrange(top + 1)
    elif how == "out of range":
        blocks[k][pos] = top + 1 + rng.randrange(3)
    elif how == "negative":
        blocks[k][pos] = -1 - rng.randrange(3)
    elif how == "float":
        blocks[k][pos] = float(blocks[k][pos])
    elif how == "string":
        blocks[k][pos] = str(blocks[k][pos])
    elif how == "none":
        blocks[k][pos] = None
    elif how == "short":
        del blocks[k][pos]
    elif how == "long":
        blocks[k].append(rng.randrange(top + 1))
    elif how == "swap":
        j = rng.randrange(len(blocks))
        p2 = rng.randrange(len(blocks[j]))
        blocks[k][pos], blocks[j][p2] = blocks[j][p2], blocks[k][pos]
    else:
        rng.shuffle(blocks[k])
    return [tuple(b) for b in blocks], how


def test_grid_decoders_raise_only_value_error_on_corrupted_blocks():
    # every decoder reads blocks through one transversal reader: a corrupted
    # certificate decodes to the design it spells or raises ValueError
    rng = random.Random(17)
    for cert, decode, design in _grid_designs():
        for _ in range(300):
            blocks, how = _corrupt(cert.blocks, rng)
            try:
                got = decode(DesignCertificate(cert.kind, blocks))
            except ValueError:
                assert how != "shuffle"
                continue
            again = mols_encode(*got) if isinstance(got, tuple) else (
                latin_encode(got) if isinstance(got, LatinSquare) else sudoku_encode(got)
            )
            assert again.blocks == sorted(tuple(sorted(b)) for b in blocks), how
            if how == "shuffle":
                assert got == design


def test_grid_decoders_reject_pinned_corruptions():
    first, second = LatinSquare.from_rows(ORDER_3), LatinSquare.from_rows(ORDER_3_MATE)
    cert = mols_encode(first, second)
    # -1 // 3 used to index part 3, so (0, 5, 8, -1) read as (0, 5, 8, 11)
    aliased = [(0, 5, 8, -1) if b == (0, 5, 8, 11) else b for b in cert.blocks]
    with pytest.raises(ValueError, match="transversal"):
        mols_decode(DesignCertificate(cert.kind, aliased), 3)
    with pytest.raises(ValueError, match="blocks"):  # a TypeError before
        mols_decode(DesignCertificate(cert.kind, cert.blocks[1:]), 3)
    with pytest.raises(ValueError, match="transversal"):  # an IndexError before
        mols_decode(DesignCertificate(cert.kind, cert.blocks[1:] + [(0, 3, 6, 12)]), 3)
    sudoku = sudoku_encode(SudokuGrid.from_rows(2, SUDOKU_4))
    with pytest.raises(ValueError, match="blocks"):  # a TypeError before
        sudoku_decode(DesignCertificate(sudoku.kind, sudoku.blocks[1:]), 2)


def resolvable_certificate():
    classes = kirkman_triple_system_9()
    blocks = [b for cls in classes for b in cls]
    index_classes = [list(range(3 * k, 3 * k + 3)) for k in range(4)]
    return DesignCertificate(kind="resolvable-sts", blocks=blocks, classes=index_classes)


def _mutate_triple_system(cert, rng):
    blocks = [list(b) for b in cert.blocks]
    classes = [list(c) for c in cert.classes]
    kind = cert.kind
    k = rng.randrange(len(blocks))
    c = rng.randrange(len(classes))
    how = rng.randrange(10)
    if how == 0:
        blocks[k][rng.randrange(3)] = rng.randrange(-1, 11)
    elif how == 1:
        blocks[k] = list(blocks[rng.randrange(len(blocks))])
    elif how == 2:
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[i][rng.randrange(3)], blocks[j][rng.randrange(3)] = (
            blocks[j][rng.randrange(3)], blocks[i][rng.randrange(3)])
    elif how == 3 and classes[c]:
        classes[rng.randrange(len(classes))].append(classes[c].pop())
    elif how == 4:
        classes[c].append(rng.randrange(-1, len(blocks) + 1))
    elif how == 5:
        del classes[c]
    elif how == 6:
        blocks[k] = blocks[k][:2] if rng.random() < 0.5 else blocks[k] + [rng.randrange(9)]
    elif how == 7:
        blocks[k], blocks[-1] = blocks[-1], blocks[k]
        del blocks[-1]
        classes = [[i for i in cls if i != len(blocks)] for cls in classes]
    elif how == 8:
        kind = rng.choice(["resolvable-sts", "large-set"])
    else:
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return DesignCertificate(kind, [tuple(b) for b in blocks], classes)


def test_triple_system_verifiers_agree_with_the_references():
    rng = random.Random(29)
    verdicts = set()
    for cert in (resolvable_certificate(), large_set_certificate()):
        corpus = [cert, DesignCertificate(cert.kind, cert.blocks)]
        for _ in range(400):
            mutant = cert
            for _ in range(rng.randint(1, 2)):
                mutant = _mutate_triple_system(mutant, rng)
            corpus.append(mutant)
        for mutant in corpus:
            for n in (9, 7):
                pair = (verify_resolvable(mutant, n), verify_large_set(mutant, n))
                assert pair == (ref_verify_resolvable(mutant, n), ref_verify_large_set(mutant, n))
                verdicts.add(pair)
    assert {(True, False), (False, True), (False, False)} <= verdicts
