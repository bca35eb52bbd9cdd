"""Command-line front end.

Subcommands: check, solve, count, verify, encode, decode, nibble,
typicality, lattice.  Every run is reproducible from its echoed config;
randomized subcommands require an explicit seed.  Exit codes: 0 found/true,
1 proven-none/false, 2 timeout, 3 input error (a usage error included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import divisibility as dv
from . import encodings as enc
from . import nibble as nb
from . import solver as sv
from .complexes import (
    is_typical_blowup,
    is_typical_coloured,
    is_typical_hp,
    is_typical_plain,
)
from .core import (
    ColouredMultidigraph,
    ColouredMultigraph,
    Digraph,
    Hypergraph,
    Partition,
    dumps_canonical,
)
from .encodings import PartiteInstance
from .intlattice import (
    hermite_normal_form,
    matrix_from_json,
    matrix_to_json,
    span_membership,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_TIMEOUT = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def _budget_default() -> int:
    raw = os.environ.get("DECOMP_LAB_BUDGET")
    return int(raw) if raw else 10_000_000


# ---------------------------------------------------------------------------
# compact host/pattern specs


# spec name -> (accepted argument counts, constructor)
_BUILTINS = {
    "k_n": ((1, 2), lambda n, r=2: Hypergraph.complete(n, r)),
    "k3n": ((1,), lambda n: PartiteInstance(*enc.triangle_host(n), *enc.triangle_pattern())),
    "k4n": ((1,), lambda n: PartiteInstance(*enc.mols_host(n), *enc.mols_pattern())),
    "kdn": ((2,), lambda r, n: Digraph.complete(n, r)),
    "sudoku": ((1,), lambda n: PartiteInstance(*enc.sudoku_host(n), *enc.sudoku_pattern())),
    "cycle": ((2,), enc.tight_cycle),
    "rainbow": ((1,), enc.rainbow_family),
    "triangle": ((0,), lambda: enc.triangle_pattern()[0]),
    "k_q": ((1,), lambda q: Hypergraph.complete(q, 2)),
    "k2_q": ((1,), lambda q: Hypergraph.complete(q, 2)),
    "k3_q": ((1,), lambda q: Hypergraph.complete(q, 3)),
    "resolvable": ((1,), enc.resolvable_sts_instance),
    "largeset": ((1,), enc.large_set_instance),
}


def parse_structure(spec: str):
    """Builtin structures addressable without fixture files.

    k_n:7 or k_n:9:3      complete (hyper)graph, optional uniformity
    k3n:4                 triangle blowup host with its partitions
    k4n:4                 4-clique blowup host (orthogonal squares)
    kdn:2:5               complete r-digraph, r then n
    sudoku:2              sudoku blowup host with partitions
    cycle:3:2             tight cycle pattern, q then r
    rainbow:4             rainbow triangle family
    triangle              complete graph on three vertices
    k_q:4 / k2_q:4        clique pattern (graph)
    k3_q:4                clique pattern (3-graph)
    resolvable:9          resolvable triple system host instance
    largeset:9            large-set host instance
    @file.json            any JSON structure document

    k3n, k4n, sudoku, resolvable and largeset give a PartiteInstance.  A
    wrong argument count or a negative argument is an InputError.
    """
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            return load_structure(json.load(fh))
    name, *raw = spec.split(":")
    if name not in _BUILTINS:
        raise InputError(f"unknown structure spec {spec!r}")
    counts, build = _BUILTINS[name]
    args = [int(x) for x in raw]
    if len(args) not in counts:
        wanted = " or ".join(map(str, counts))
        raise InputError(f"structure spec {spec!r} takes {wanted} argument(s), got {len(args)}")
    if any(a < 0 for a in args):
        raise InputError(f"structure spec {spec!r} has a negative argument")
    return build(*args)


_DOCUMENT_TYPES = {
    "hypergraph": Hypergraph,
    "coloured-multigraph": ColouredMultigraph,
    "digraph": Digraph,
    "coloured-multidigraph": ColouredMultidigraph,
}


def load_structure(doc: dict):
    """The structure, partition or pattern family (a list of structures,
    from {"type": "pattern-family", "patterns": [structure documents]})
    that a JSON document describes."""
    if not isinstance(doc, dict):
        raise InputError("a structure document must be a JSON object")
    t = doc.get("type")
    if t == "pattern-family":
        patterns = doc.get("patterns")
        if not isinstance(patterns, list) or not patterns:
            raise InputError("a pattern family needs a nonempty list of patterns")
        family = [load_structure(p) for p in patterns]
        if not all(isinstance(p, _STRUCTURES) for p in family):
            raise InputError("every member of a pattern family must be a structure")
        return family
    try:
        if t in _DOCUMENT_TYPES:
            return _DOCUMENT_TYPES[t].from_json_dict(doc)
        if t is None and "parts" in doc:
            return Partition.from_json_dict(doc)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {t or 'partition'} document: {exc!r}") from exc
    raise InputError(f"unrecognized structure document type {t!r}")


_STRUCTURES = tuple(_DOCUMENT_TYPES.values())

# what parse_structure returns for an instance spec and for a family spec
_SPEC_KINDS = {PartiteInstance: "instance", list: "pattern family"}


def _kind_name(kind) -> str:
    return _SPEC_KINDS.get(kind, kind.__name__)


def _spec(spec: str | None, role: str, *kinds):
    """The object that spec names, which must be of one of kinds
    (PartiteInstance for an instance spec, list for a pattern family); a
    missing spec or one of another kind is an input error."""
    if spec is None:
        raise InputError(f"missing {role} spec")
    obj = parse_structure(spec)
    if not isinstance(obj, kinds):
        wanted = ", ".join(map(_kind_name, kinds))
        got = _kind_name(type(obj))
        raise InputError(f"{role} spec {spec!r} is of kind {got}; expected: {wanted}")
    return obj


def _host_spec(spec: str | None, *kinds):
    """(host, pattern or None, partition or None) from a host spec of one of
    kinds; an instance spec gives its pattern and partitions too."""
    obj = _spec(spec, "host", *kinds)
    if isinstance(obj, PartiteInstance):
        return obj.host, obj.pattern, (obj.pattern_partition, obj.host_partition)
    return obj, None, None


def _host_and_pattern(args):
    """(host, pattern or family, partition or None) from --host, which may
    name an instance, and --pattern, which overrides the instance's; the
    partition is the instance's under --partite, which needs one."""
    host, pattern, partition = _host_spec(args.host, PartiteInstance, *_STRUCTURES)
    if args.pattern or pattern is None:
        pattern = _spec(args.pattern, "pattern", list, *_STRUCTURES)
    if not args.partite:
        return host, pattern, None
    if partition is None:
        raise InputError(f"--partite needs a host spec with partitions; {args.host!r} has none")
    return host, pattern, partition


def _emit(doc: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(dumps_canonical(doc) + "\n")
    else:
        for key, value in doc.items():
            out.write(f"{key}: {value}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    kind = args.kind
    doc = {"command": "check", "kind": kind, "args": args.values}
    if kind == "steiner":
        n, q, r, lam = (int(x) for x in args.values)
        rep = dv.steiner_divisible(n, q, r, lam)
        doc["check"] = "block-size divisibility for (n, q, r, lambda) designs"
    elif kind == "h":
        host = _spec(args.host, "host", Hypergraph)
        pattern = _spec(args.pattern, "pattern", Hypergraph)
        rep = dv.h_divisible(host, pattern)
        doc["check"] = "per-level degree gcd divisibility"
    elif kind == "hp":
        host, pattern, partition = _host_spec(args.host, PartiteInstance, Hypergraph)
        if args.pattern or pattern is None:
            pattern = _spec(args.pattern, "pattern", Hypergraph)
        if partition is None or args.host_partition or args.pattern_partition:
            partition = (
                _spec(args.pattern_partition, "pattern partition", Partition),
                _spec(args.host_partition, "host partition", Partition),
            )
        rep = dv.hp_divisible(host, partition[1], pattern, partition[0])
        doc["check"] = "partite index-vector lattice divisibility"
    elif kind == "coloured":
        host = _spec(args.host, "host", ColouredMultigraph)
        family = _spec(args.pattern, "pattern", list)
        rep = dv.coloured_divisible(host, family)
        doc["check"] = "colour degree-vector lattice divisibility"
    elif kind == "digraph":
        host = _spec(args.host, "host", Digraph)
        pattern = _spec(args.pattern, "pattern", Digraph)
        rep = dv.digraph_divisible(host, pattern)
        doc["check"] = "positional degree-vector lattice divisibility"
    elif kind == "master":
        host = _spec(args.host, "host", ColouredMultidigraph)
        pattern = _spec(args.pattern, "pattern", ColouredMultidigraph)
        host_partition = _spec(args.host_partition, "host partition", Partition)
        pattern_partition = _spec(args.pattern_partition, "pattern partition", Partition)
        rep = dv.master_divisible(host, host_partition, [pattern], pattern_partition)
        doc["check"] = "coloured directed partite degree-vector lattice divisibility"
    doc["verdict"] = rep.verdict
    doc["failures"] = [
        {"level": f.level, "witness": list(f.witness), "vector": list(f.vector)}
        for f in rep.failures
    ]
    _emit(doc, args.format)
    return EXIT_TRUE if rep.verdict else EXIT_FALSE


def cmd_solve(args) -> int:
    host, pattern, partition = _host_and_pattern(args)
    result = sv.find_decomposition(
        host, pattern, partition, timeout=args.timeout, budget=_budget_default()
    )
    doc = {
        "command": "solve",
        "host": args.host,
        "pattern": args.pattern,
        "status": result.status,
        "nodes": result.nodes,
    }
    if result.found:
        doc["certificate"] = result.certificate.to_json_dict()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps_canonical(result.certificate.to_json_dict()))
    _emit(doc, args.format)
    return {"found": EXIT_TRUE, "none": EXIT_FALSE, "timeout": EXIT_TIMEOUT}[result.status]


def cmd_count(args) -> int:
    host, pattern, partition = _host_and_pattern(args)
    doc = {"command": "count", "host": args.host, "pattern": args.pattern}
    # running out of time is a timeout; an enumeration node overrun is an
    # input error (a plain BudgetExceeded, caught in main)
    try:
        doc["count"] = sv.count_decompositions(
            host, pattern, partition, timeout=args.timeout, budget=_budget_default()
        )
    except sv.TimeBudgetExceeded:
        doc.update(count=None, status="timeout")
        _emit(doc, args.format)
        return EXIT_TIMEOUT
    _emit(doc, args.format)
    return EXIT_TRUE


def cmd_verify(args) -> int:
    host, pattern, partition = _host_and_pattern(args)
    with open(args.certificate, encoding="utf-8") as fh:
        cert = sv.Certificate.from_json_dict(json.load(fh))
    rep = sv.verify_certificate(host, pattern, cert, partition)
    doc = {
        "command": "verify",
        "host": args.host,
        "valid": rep.valid,
        "deficit": [list(map(repr, d)) for d in rep.deficit],
        "surplus": [list(map(repr, s)) for s in rep.surplus],
    }
    _emit(doc, args.format)
    return EXIT_TRUE if rep.valid else EXIT_FALSE


def cmd_encode(args) -> int:
    kind = args.kind
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    if kind == "latin":
        square = enc.LatinSquare.from_text(text)
        cert = enc.latin_encode(square)
    elif kind == "sudoku":
        rows = enc.LatinSquare.from_text(text).grid
        grid = enc.SudokuGrid(_side(len(rows), 2, "grid rows"), rows)
        cert = enc.sudoku_encode(grid)
    elif kind == "mols":
        first_text, blank, second_text = text.partition("\n\n")
        if not blank:
            raise InputError("mols input needs a blank line and then the second square")
        cert = enc.mols_encode(
            enc.LatinSquare.from_text(first_text),
            enc.LatinSquare.from_text(second_text),
        )
    _emit(cert.to_json_dict(), args.format)
    return EXIT_TRUE


def cmd_decode(args) -> int:
    kind = args.kind
    with open(args.infile, encoding="utf-8") as fh:
        cert = enc.DesignCertificate.from_json_dict(json.load(fh))
    # n**2 cells of an order-n square, (n**2)**2 of a box-order-n Sudoku grid
    n = _side(len(cert.blocks), 4 if kind == "sudoku" else 2, "certificate blocks")
    if kind == "latin":
        square = enc.latin_decode(cert, n)
        sys.stdout.write(square.to_text() + "\n")
    elif kind == "sudoku":
        grid = enc.sudoku_decode(cert, n)
        sys.stdout.write(grid.to_text() + "\n")
    elif kind == "mols":
        first, second = enc.mols_decode(cert, n)
        sys.stdout.write(first.to_text() + "\n\n" + second.to_text() + "\n")
    return EXIT_TRUE


def _side(count: int, power: int, what: str) -> int:
    """The positive n with n**power == count (power 2 or 4); any other
    count is an input error."""
    n = math.isqrt(count) if power == 2 else math.isqrt(math.isqrt(count))
    if n < 1 or n**power != count:
        raise InputError(f"{count} {what} are not n**{power} for a positive n")
    return n


def _fraction(text: str, option: str) -> Fraction:
    """The option's value as a Fraction; a zero denominator is an input
    error, like any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"{option} {text!r} has a zero denominator") from None


def cmd_nibble(args) -> int:
    pattern = _spec(args.pattern, "pattern", Hypergraph)
    stop_density = _fraction(args.stop_density, "--stop-density") if args.stop_density else None
    bounds, run = nb._blowup_bounds(pattern, args.blowup, args.seed, stop_density)
    doc = {
        "command": "nibble",
        "pattern": args.pattern,
        "blowup": args.blowup,
        "seed": args.seed,
        "log_upper": bounds.log_upper,
        "log_lower_estimate": bounds.log_lower_estimate,
        "per_cell_upper": bounds.per_cell_upper,
        "per_cell_lower": bounds.per_cell_lower,
        "steps": bounds.steps_run,
        "o_terms_dropped": bounds.o_terms_dropped,
        "notes": bounds.notes,
    }
    if args.trajectory_out:
        with open(args.trajectory_out, "w", encoding="utf-8") as fh:
            fh.write(run.dump_jsonl() + "\n")
        doc["trajectory"] = args.trajectory_out
    _emit(doc, args.format)
    return EXIT_TRUE


def cmd_typicality(args) -> int:
    # blowup and hp read the pattern and partitions of an instance spec
    kinds = {"plain": (PartiteInstance, Hypergraph), "coloured": (ColouredMultigraph,)}
    kinds = kinds.get(args.mode, (PartiteInstance,))
    host, pattern, partition = _host_spec(args.host, *kinds)
    c = _fraction(args.c, "--c")
    if args.mode == "plain":
        rep = is_typical_plain(host, c, args.s, seed=args.seed)
    elif args.mode == "blowup":
        rep = is_typical_blowup(host, partition[1], pattern, c, args.s)
    elif args.mode == "coloured":
        rep = is_typical_coloured(host, c, args.s, seed=args.seed)
    elif args.mode == "hp":
        rep = is_typical_hp(host, partition[1], pattern, partition[0], c, args.s)
    doc = {
        "command": "typicality",
        "mode": rep.mode,
        "typical": rep.typical,
        "c": str(rep.c),
        "s": rep.s,
        "checked": rep.checked,
        "worst_deviation": str(rep.worst_deviation),
        "exact": rep.exact,
    }
    _emit(doc, args.format)
    return EXIT_TRUE if rep.typical else EXIT_FALSE


def cmd_lattice(args) -> int:
    with open(args.matrix, encoding="utf-8") as fh:
        matrix = matrix_from_json(json.load(fh))
    if args.vector:
        vector = [int(x) for x in args.vector.split(",")]
        coeffs = span_membership(vector, matrix)
        doc = {
            "command": "lattice",
            "operation": "membership",
            "member": coeffs is not None,
            "coefficients": coeffs,
        }
        _emit(doc, args.format)
        return EXIT_TRUE if coeffs is not None else EXIT_FALSE
    H, U = hermite_normal_form(matrix)
    doc = {
        "command": "lattice",
        "operation": "hnf",
        "hnf": matrix_to_json(H),
        "transform": matrix_to_json(U),
    }
    _emit(doc, args.format)
    return EXIT_TRUE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="decomp-lab",
        description="divisibility checks, exact decomposition search and "
        "design encodings at desk scale",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    c = add("check", help="run a divisibility checker")
    c.add_argument("--kind", required=True,
                   choices=("steiner", "h", "hp", "coloured", "digraph", "master"))
    c.add_argument("--host", help="host structure spec")
    c.add_argument("--pattern", help="pattern structure spec")
    c.add_argument("--host-partition", help="host partition spec (hp/master)")
    c.add_argument("--pattern-partition", help="pattern partition spec (hp/master)")
    c.add_argument("values", nargs="*", help="numeric arguments (steiner)")
    c.set_defaults(func=cmd_check)

    s = add("solve", help="find a decomposition")
    s.add_argument("--host", required=True)
    s.add_argument("--pattern")
    s.add_argument("--partite", action="store_true")
    s.add_argument("--timeout", type=float, default=60.0)
    s.add_argument("--out", help="write the certificate JSON here")
    s.set_defaults(func=cmd_solve)

    ct = add("count", help="count decompositions exactly")
    ct.add_argument("--host", required=True)
    ct.add_argument("--pattern")
    ct.add_argument("--partite", action="store_true")
    ct.add_argument("--timeout", type=float)
    ct.set_defaults(func=cmd_count)

    v = add("verify", help="verify a certificate independently")
    v.add_argument("--host", required=True)
    v.add_argument("--pattern")
    v.add_argument("--partite", action="store_true")
    v.add_argument("--certificate", required=True)
    v.set_defaults(func=cmd_verify)

    e = add("encode", help="designs to decomposition certificates")
    e.add_argument("--kind", required=True, choices=("latin", "sudoku", "mols"))
    e.add_argument("--infile", default="-")
    e.set_defaults(func=cmd_encode)

    d = add("decode", help="decomposition certificates to designs")
    d.add_argument("--kind", required=True, choices=("latin", "sudoku", "mols"))
    d.add_argument("--infile", required=True)
    d.set_defaults(func=cmd_decode)

    nbp = add("nibble", help="random greedy matching bounds")
    nbp.add_argument("--pattern", required=True)
    nbp.add_argument("--blowup", type=int, required=True)
    nbp.add_argument("--seed", type=int, required=True)
    nbp.add_argument("--stop-density")
    nbp.add_argument("--trajectory-out")
    nbp.set_defaults(func=cmd_nibble)

    t = add("typicality", help="near-random neighbourhood checks")
    t.add_argument("--host", required=True)
    t.add_argument("--mode", default="plain",
                   choices=("plain", "blowup", "coloured", "hp"))
    t.add_argument("--c", required=True)
    t.add_argument("--s", type=int, default=1)
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_typicality)

    lt = add("lattice", help="Hermite form / span membership")
    lt.add_argument("--matrix", required=True, help="int-matrix JSON file")
    lt.add_argument("--vector", help="comma-separated target vector")
    lt.set_defaults(func=cmd_lattice)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse exits 2, the timeout code, on a usage error
        return EXIT_INPUT if stop.code else EXIT_TRUE
    try:
        return args.func(args)
    except (
        InputError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        sv.BudgetExceeded,
    ) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
