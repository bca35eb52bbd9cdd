"""Span tracing of the library's public functions, installed from outside.

`Tracer.install` replaces each target function (or method) with a wrapper
that records a span: name, start, end, parent span and op id.  Spans stay
in memory in flat arrays and are written out once, when the run ends.
Counts taken from the wrapped call's result (search nodes, solutions,
footprints, embeddings, greedy steps, orbits, families) are recorded at the
same boundary.  Nothing in the library is edited.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from decomp_lab import complexes as cx
from decomp_lab import core
from decomp_lab import divisibility as dv
from decomp_lab import intlattice as il
from decomp_lab import nibble as nb
from decomp_lab import solver as sv
from decomp_lab import weights as wt


def _table_counts(table):
    return {"footprints": len(table.footprints), "embeddings": sum(table.multiplicities)}


# (owner, attribute, span name, counts taken from the result).  A function
# is patched on every module that looks it up by its own global name.
TARGETS = [
    (sv, "find_decomposition", "solver.find_decomposition", lambda r: {"nodes": r.nodes}),
    (sv, "count_decompositions", "solver.count_decompositions", lambda c: {"solutions": c}),
    (sv, "enumerate_copies", "solver.enumerate_copies", _table_counts),
    (nb, "enumerate_copies", "solver.enumerate_copies", _table_counts),
    (nb, "counting_bounds", "nibble.counting_bounds", None),
    (nb, "build_auxiliary", "nibble.build_auxiliary", None),
    (nb, "random_greedy", "nibble.random_greedy", lambda run: {"steps": len(run.steps)}),
    (dv, "digraph_divisible", "divisibility.digraph_divisible", None),
    (dv, "coloured_divisible", "divisibility.coloured_divisible", None),
    (dv, "hp_divisible", "divisibility.hp_divisible", None),
    (dv, "host_degree_vector", "core.degree_vector", None),
    (dv, "pattern_degree_vector", "core.degree_vector", None),
    (core.Digraph, "degree_vector", "core.degree_vector", None),
    (core.ColouredMultigraph, "degree_vector", "core.degree_vector", None),
    (core.ColouredMultidigraph, "degree_vector", "core.degree_vector", None),
    (il, "hermite_normal_form", "intlattice.hermite_normal_form", None),
    (il.SpanChecker, "membership", "intlattice.membership", None),
    (wt.LatticeChecker, "__init__", "weights.LatticeChecker.init", None),
    (wt.LatticeChecker, "check", "weights.LatticeChecker.check",
     lambda rep: {"orbits_checked": rep.orbits_checked}),
    (wt, "coloured_edge_vector", "weights.edge_vector", None),
    (wt, "digraph_edge_vector", "weights.edge_vector", None),
    (cx, "is_typical_plain", "complexes.typicality", lambda rep: {"families_checked": rep.checked}),
    (cx, "is_typical_blowup", "complexes.typicality", lambda rep: {"families_checked": rep.checked}),
    (cx, "is_typical_hp", "complexes.typicality", lambda rep: {"families_checked": rep.checked}),
]

LAYERS = ("solver.search", "solver.enumeration", "nibble", "core", "divisibility",
          "intlattice", "weights", "complexes")


def layer_of(name: str) -> str:
    """Module of a span, with the solver split into enumeration and search."""
    if name.startswith("solver."):
        return "solver.enumeration" if name == "solver.enumerate_copies" else "solver.search"
    return name.split(".")[0]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.op_id = 0  # 0 is set-up; ops are numbered from 1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, count):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self._stack
        )
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(out).items():
                    counts[f"{name}.{key}"] += value
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """All spans as tab-separated rows, times relative to the first span."""
        t0 = self.start[0] if self.names else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            fh.writelines(
                f"{i}\t{name}\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
                f"\t{self.parent[i]}\t{self.op[i]}\n"
                for i, name in enumerate(self.names)
            )

    def summary(self, op_time_s: float) -> tuple[dict, dict]:
        """Per-name (calls, busy, self) over every span, and each layer's
        share of the ops' self time (set-up spans excluded)."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        per_name = defaultdict(lambda: [0, 0.0, 0.0])
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            row = per_name[name]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
            if self.op[i] > 0:
                layer_self[layer_of(name)] += dur[i] - covered[i]
        queries = sum(
            1 for i, name in enumerate(self.names)
            if name == "intlattice.membership" and self.parent[i] >= 0
            and self.names[self.parent[i]] == "weights.LatticeChecker.check"
        )
        per_name["weights.check.span_queries"] = [queries, 0.0, 0.0]
        shares = {k: v / op_time_s for k, v in layer_self.items()} if op_time_s else {}
        if shares:
            shares["other"] = 1.0 - sum(shares.values())
        return dict(per_name), shares


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, op_time_s: float, untraced_ops_per_s: float,
                  traced_ops_per_s: float) -> tuple[list, dict]:
    """The per-layer metrics as (name, value, unit) rows, plus the self-time
    shares.  Every row is reported on every workload; a layer a workload
    does not exercise reads 0."""
    per_name, shares = tracer.summary(op_time_s)
    c = tracer.counts

    def calls(name):
        return per_name.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return per_name.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return per_name.get(name, [0, 0.0, 0.0])[2]

    div = [k for k in per_name if k.startswith("divisibility.")]
    find, count, enum = "solver.find_decomposition", "solver.count_decompositions", "solver.enumerate_copies"
    greedy, check = "nibble.random_greedy", "weights.LatticeChecker.check"
    rows = [
        (f"{find}.calls", calls(find), "count"),
        (f"{find}.busy_s", busy(find), "s"),
        (f"{find}.nodes", c[f"{find}.nodes"], "count"),
        (f"{find}.nodes_per_s", _ratio(c[f"{find}.nodes"], busy(find)), "1/s"),
        (f"{count}.calls", calls(count), "count"),
        (f"{count}.busy_s", busy(count), "s"),
        (f"{count}.solutions", c[f"{count}.solutions"], "count"),
        (f"{count}.solutions_per_s", _ratio(c[f"{count}.solutions"], busy(count)), "1/s"),
        (f"{enum}.calls", calls(enum), "count"),
        (f"{enum}.busy_s", busy(enum), "s"),
        (f"{enum}.footprints", c[f"{enum}.footprints"], "count"),
        (f"{enum}.embeddings", c[f"{enum}.embeddings"], "count"),
        (f"{enum}.embeddings_per_footprint",
         _ratio(c[f"{enum}.embeddings"], c[f"{enum}.footprints"]), "ratio"),
        (f"{enum}.footprints_per_s", _ratio(c[f"{enum}.footprints"], busy(enum)), "1/s"),
        ("nibble.counting_bounds.busy_s", busy("nibble.counting_bounds"), "s"),
        ("nibble.counting_bounds.self_s", self_s("nibble.counting_bounds"), "s"),
        ("nibble.build_auxiliary.calls", calls("nibble.build_auxiliary"), "count"),
        ("nibble.build_auxiliary.busy_s", busy("nibble.build_auxiliary"), "s"),
        ("nibble.build_auxiliary.self_s", self_s("nibble.build_auxiliary"), "s"),
        (f"{greedy}.calls", calls(greedy), "count"),
        (f"{greedy}.busy_s", busy(greedy), "s"),
        (f"{greedy}.steps", c[f"{greedy}.steps"], "count"),
        (f"{greedy}.steps_per_s", _ratio(c[f"{greedy}.steps"], busy(greedy)), "1/s"),
        ("core.degree_vector.calls", calls("core.degree_vector"), "count"),
        ("core.degree_vector.busy_s", busy("core.degree_vector"), "s"),
        ("divisibility.calls", sum(calls(k) for k in div), "count"),
        ("divisibility.busy_s", sum(busy(k) for k in div), "s"),
        ("divisibility.self_s", sum(self_s(k) for k in div), "s"),
        ("divisibility.digraph_divisible.busy_s", busy("divisibility.digraph_divisible"), "s"),
        ("divisibility.coloured_divisible.busy_s", busy("divisibility.coloured_divisible"), "s"),
        ("divisibility.hp_divisible.busy_s", busy("divisibility.hp_divisible"), "s"),
        ("intlattice.hermite_normal_form.calls", calls("intlattice.hermite_normal_form"), "count"),
        ("intlattice.hermite_normal_form.busy_s", busy("intlattice.hermite_normal_form"), "s"),
        ("intlattice.membership.calls", calls("intlattice.membership"), "count"),
        ("intlattice.membership.busy_s", busy("intlattice.membership"), "s"),
        ("weights.LatticeChecker.init_s", busy("weights.LatticeChecker.init"), "s"),
        (f"{check}.calls", calls(check), "count"),
        (f"{check}.busy_s", busy(check), "s"),
        (f"{check}.orbits_checked", c[f"{check}.orbits_checked"], "count"),
        ("weights.edge_vector.busy_s", busy("weights.edge_vector"), "s"),
        ("weights.check.span_queries_per_check",
         _ratio(calls("weights.check.span_queries"), calls(check)), "ratio"),
        ("complexes.typicality.calls", calls("complexes.typicality"), "count"),
        ("complexes.typicality.busy_s", busy("complexes.typicality"), "s"),
        ("complexes.typicality.families_checked",
         c["complexes.typicality.families_checked"], "count"),
    ]
    rows += [(f"self_share.{layer}", shares.get(layer, 0.0), "ratio")
             for layer in LAYERS + ("other",)]
    rows += [
        ("trace.overhead_ops_per_s", untraced_ops_per_s - traced_ops_per_s, "ops/s"),
        ("trace.overhead_frac", 1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s), "ratio"),
    ]
    return rows, shares
