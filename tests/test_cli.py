"""Command-line interface: verdicts, exit codes, format equivalence."""

import json
import re
import shlex
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from decomp_lab import complexes as cx
from decomp_lab import divisibility as dv
from decomp_lab import nibble as nb
from decomp_lab.cli import _BUILTINS, main, parse_structure
from decomp_lab.core import ColouredMultigraph, Hypergraph, Partition, dumps_canonical
from decomp_lab.intlattice import matrix_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_steiner_exit_codes(capsys):
    code, out = run_cli(capsys, "check", "--kind", "steiner", "7", "3", "2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["command"] == "check"
    code, _ = run_cli(capsys, "check", "--kind", "steiner", "6", "3", "2", "1")
    assert code == 1


def test_solve_partite_triangles(capsys):
    code, out = run_cli(
        capsys, "solve", "--host", "k3n:4", "--partite", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert len(doc["certificate"]["copies"]) == 16


def test_count_latin_oracle_value(capsys):
    code, out = run_cli(capsys, "count", "--host", "k3n:3", "--partite")
    assert code == 0
    assert json.loads(out)["count"] == 12


def test_count_timeout_exits_two(monkeypatch, capsys):
    argv = ("count", "--host", "k3n:4", "--partite", "--timeout", "0")
    code, out = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "timeout" and doc["count"] is None
    # an enumeration budget overrun is still an input error
    monkeypatch.setenv("DECOMP_LAB_BUDGET", "10")
    assert main(list(argv)) == 3


@pytest.mark.parametrize("command", ["solve", "count"])
@pytest.mark.parametrize("timeout", ["nan", "-1"])
def test_nan_or_negative_timeout_exits_3(command, timeout, capsys):
    # --timeout nan ran with no time limit (exit 0), and -1 timed out (exit 2)
    argv = [command, "--host", "k_n:9", "--pattern", "triangle", "--timeout", timeout]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: timeout must be 0 or more seconds")


def test_infinite_timeout_is_no_limit(capsys):
    code, out = run_cli(capsys, "count", "--host", "k_n:7", "--pattern", "triangle",
                        "--timeout", "inf")
    assert (code, json.loads(out)["count"]) == (0, 30)


def test_timeout_covers_copy_enumeration(capsys):
    # unbounded, enumerating K_24^(3) by K_4^(3) takes seconds; the time
    # budget stops it, and both commands report a timeout
    for command in ("solve", "count"):
        t0 = time.monotonic()
        code, out = run_cli(
            capsys, command, "--host", "k_n:24:3", "--pattern", "k3_q:4", "--timeout", "0.01"
        )
        assert time.monotonic() - t0 < 1.0
        assert code == 2
        assert json.loads(out)["status"] == "timeout"


def test_solve_proven_none_exit(capsys):
    code, out = run_cli(capsys, "solve", "--host", "k_n:5", "--pattern", "triangle")
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_check_digraph(capsys):
    code, _ = run_cli(
        capsys, "check", "--kind", "digraph",
        "--host", "kdn:2:4", "--pattern", "cycle:3:2",
    )
    assert code == 0


def test_text_and_json_verdicts_agree(capsys):
    code_j, out_j = run_cli(
        capsys, "check", "--kind", "steiner", "9", "3", "2", "1"
    )
    code_t, out_t = run_cli(
        capsys, "check", "--kind", "steiner", "9", "3", "2", "1",
        "--format", "text",
    )
    assert code_j == code_t == 0
    assert json.loads(out_j)["verdict"] is True
    assert "verdict: True" in out_t


def test_input_error_exit_code(capsys):
    code = main(["solve", "--host", "nonsense:3"])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        "solve --host rainbow:4 --pattern triangle",
        "solve --host k_n:7 --pattern k3n:2",
        "count --host triangle",
        "check --kind h --host k_n:7",
        "check --kind coloured --host k_n:5 --pattern rainbow:3",
        "check --kind hp --host k_n:6 --pattern triangle",
        "typicality --host k_n:6 --mode hp --c 1",
    ],
)
def test_missing_or_wrong_kind_spec_is_an_input_error(argv, capsys):
    # a missing spec, or one naming the wrong kind of structure
    assert main(argv.split()) == 3
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize(
    "argv",
    ["solve --host kdn:0:5 --pattern cycle:3:2", "solve --host kdn:2:5 --pattern kdn:0:1"],
)
def test_digraph_of_nonpositive_uniformity_is_an_input_error(argv, capsys):
    # the host gave a proven "none", the pattern an internal error
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: uniformity must be positive")


def _check_hp(capsys, argv, host, host_partition, pattern, pattern_partition) -> dict:
    """check --kind hp on argv, its exit code, verdict and failures compared
    with hp_divisible called directly."""
    rep = dv.hp_divisible(host, host_partition, pattern, pattern_partition)
    code, out = run_cli(capsys, "check", "--kind", "hp", *argv)
    doc = json.loads(out)
    assert code == (0 if rep.verdict else 1)
    assert (doc["verdict"], doc["failures"]) == (
        rep.verdict,
        [{"level": f.level, "witness": list(f.witness), "vector": list(f.vector)}
         for f in rep.failures],
    )
    return doc


def _at_files(tmp_path, **structures) -> dict:
    """name -> "@path" of a file holding that structure's JSON document."""
    specs = {}
    for name, obj in structures.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj.to_json_dict()))
        specs[name] = f"@{path}"
    return specs


def test_check_hp_cli_on_an_instance_spec(capsys):
    inst = parse_structure("resolvable:9")
    doc = _check_hp(
        capsys, ["--host", "resolvable:9"],
        inst.host, inst.host_partition, inst.pattern, inst.pattern_partition,
    )
    assert doc["verdict"] is True


def test_check_hp_cli_with_a_pattern_spec_and_partition_files(tmp_path, capsys):
    inst = parse_structure("resolvable:9")
    at = _at_files(tmp_path, host=inst.host_partition, pattern=inst.pattern_partition)
    argv = ["--host", "resolvable:9", "--pattern", "k_q:4",
            "--host-partition", at["host"], "--pattern-partition", at["pattern"]]
    doc = _check_hp(
        capsys, argv, inst.host, inst.host_partition, Hypergraph.complete(4, 2), inst.pattern_partition
    )
    assert doc["verdict"] is True


def test_check_hp_cli_false_verdict_on_files(tmp_path, capsys):
    # 7 points and 3 class vertices, all pairs not inside the class part: a
    # class vertex meets 7 points, and a copy covers 3 at its class vertex
    host = Hypergraph.from_edges(10, 2, [e for e in combinations(range(10), 2) if e[0] < 7])
    host_partition = Partition.from_lists([range(7), range(7, 10)])
    pattern_partition = Partition.from_lists([[0, 1, 2], [3]])
    at = _at_files(tmp_path, host=host, hp=host_partition, pp=pattern_partition)
    argv = ["--host", at["host"], "--pattern", "k_q:4",
            "--host-partition", at["hp"], "--pattern-partition", at["pp"]]
    doc = _check_hp(
        capsys, argv, host, host_partition, Hypergraph.complete(4, 2), pattern_partition
    )
    assert doc["failures"] == [{"level": 1, "vector": [0, 7], "witness": [7]}]


@pytest.mark.parametrize("command", ["solve", "count", "verify"])
def test_partite_without_partitions_is_an_input_error(command, tmp_path, capsys):
    # k_n:7 carries no partitions, so --partite cannot be honoured; it used
    # to be ignored, and solve printed an ordinary Fano-plane certificate
    argv = [command, "--host", "k_n:7", "--pattern", "triangle", "--partite"]
    if command == "verify":
        argv += ["--certificate", str(tmp_path / "absent.json")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: --partite needs a host spec with partitions; "
        "'k_n:7' has none\n"
    )


def test_lattice_subcommand(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps_canonical(matrix_to_json([[3, 3]])))
    code, out = run_cli(
        capsys, "lattice", "--matrix", str(path), "--vector", "36,36"
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == [12]
    code, _ = run_cli(
        capsys, "lattice", "--matrix", str(path), "--vector", "1,0"
    )
    assert code == 1


def test_lattice_output_pinned_on_tall_rank_deficient_matrix(tmp_path, capsys):
    # 7 rows of rank 4: the transform and the witness are not unique, so
    # the pinned bytes fix the HNF's order of row operations
    path = tmp_path / "m.json"
    path.write_text(dumps_canonical(matrix_to_json([
        [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0],
        [0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0],
    ])))
    code, out = run_cli(capsys, "lattice", "--matrix", str(path))
    assert code == 0
    assert out == (
        '{"command":"lattice","hnf":{"rows":[["1","0","0","1"],["0","1","0","1"],'
        '["0","0","1","1"],["0","0","0","2"],["0","0","0","0"],["0","0","0","0"],'
        '["0","0","0","0"]],"type":"int-matrix"},"operation":"hnf",'
        '"transform":{"rows":[["1","-1","0","0","1","0","0"],'
        '["1","0","-1","0","1","0","0"],["0","0","0","0","1","0","0"],'
        '["1","-1","-1","0","2","0","0"],["-1","0","0","1","0","0","0"],'
        '["-1","1","0","0","-1","1","0"],["0","-1","0","0","0","0","1"]],'
        '"type":"int-matrix"}}\n'
    )
    code, out = run_cli(
        capsys, "lattice", "--matrix", str(path), "--vector", "4,3,3,2"
    )
    assert code == 0
    assert out == (
        '{"coefficients":[3,0,1,0,2,0,0],"command":"lattice","member":true,'
        '"operation":"membership"}\n'
    )
    code, out = run_cli(
        capsys, "lattice", "--matrix", str(path), "--vector", "1,0,0,0"
    )
    assert code == 1
    assert out == (
        '{"coefficients":null,"command":"lattice","member":false,'
        '"operation":"membership"}\n'
    )


def test_nibble_outputs_and_trajectory(tmp_path, capsys):
    out_path = tmp_path / "traj.jsonl"
    code, out = run_cli(
        capsys, "nibble", "--pattern", "triangle", "--blowup", "8",
        "--seed", "42", "--trajectory-out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["log_lower_estimate"] <= doc["log_upper"]
    assert doc["o_terms_dropped"] is True
    first = out_path.read_text()
    code2, _ = run_cli(
        capsys, "nibble", "--pattern", "triangle", "--blowup", "8",
        "--seed", "42", "--trajectory-out", str(out_path),
    )
    assert out_path.read_text() == first  # reproducible byte-for-byte


def test_nibble_builds_its_auxiliary_once(tmp_path, monkeypatch, capsys):
    builds = []
    real = nb.build_auxiliary
    monkeypatch.setattr(nb, "build_auxiliary", lambda *a, **k: builds.append(a) or real(*a, **k))
    argv = ("nibble", "--pattern", "triangle", "--blowup", "6", "--trajectory-out", str(tmp_path / "t.jsonl"))
    for extra in (("--seed", "3"), ("--seed", "3", "--stop-density", "1/2")):
        nb._blowup_auxiliary.cache_clear()
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0 and len(builds) == 1
        builds.clear()
    code, out = run_cli(capsys, *argv, "--seed", "4")
    assert code == 0 and builds == []  # the cached auxiliary serves a new seed


def test_nibble_trajectory_is_the_run_it_reports(tmp_path, monkeypatch, capsys):
    # the default stop density ends the reported run early; the file holds
    # that run, not a second one run to exhaustion
    runs = []
    real = nb.random_greedy
    monkeypatch.setattr(nb, "random_greedy", lambda *a, **k: runs.append(a) or real(*a, **k))
    out_path = tmp_path / "t.jsonl"
    for extra in ((), ("--stop-density", "1/2")):
        code, out = run_cli(
            capsys, "nibble", "--pattern", "triangle", "--blowup", "10",
            "--seed", "42", "--trajectory-out", str(out_path), *extra,
        )
        doc = json.loads(out)
        steps = [json.loads(line)["step"] for line in out_path.read_text().splitlines()]
        assert code == 0 and len(runs) == 1
        assert steps == list(range(doc["steps"]))
        runs.clear()
    assert doc["steps"] > 1  # the explicit stop runs past the default's single step


def test_encode_decode_roundtrip_via_files(tmp_path, capsys):
    grid = "0 1\n1 0\n"
    src = tmp_path / "latin.txt"
    src.write_text(grid)
    code, out = run_cli(capsys, "encode", "--kind", "latin", "--infile", str(src))
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code2, out2 = run_cli(
        capsys, "decode", "--kind", "latin", "--infile", str(cert_path),
    )
    assert code2 == 0
    assert out2.strip().splitlines() == ["0 1", "1 0"]


def test_typicality_cli(capsys):
    code, out = run_cli(
        capsys, "typicality", "--host", "k_n:10", "--c", "1/10", "--s", "1"
    )
    assert code == 0
    assert json.loads(out)["typical"] is True


def _typicality_doc(rep) -> dict:
    return {
        "command": "typicality", "mode": rep.mode, "typical": rep.typical,
        "c": str(rep.c), "s": rep.s, "checked": rep.checked,
        "worst_deviation": str(rep.worst_deviation), "exact": rep.exact,
    }


@pytest.mark.parametrize("mode", ["blowup", "hp"])
def test_typicality_cli_partite_modes_match_the_library(mode, capsys):
    inst = parse_structure("k3n:3")
    for c, s in (("0", 1), ("1/10", 2)):
        if mode == "blowup":
            rep = cx.is_typical_blowup(inst.host, inst.host_partition, inst.pattern, Fraction(c), s)
        else:
            rep = cx.is_typical_hp(
                inst.host, inst.host_partition, inst.pattern, inst.pattern_partition,
                Fraction(c), s,
            )
        assert rep.checked > 0
        code, out = run_cli(
            capsys, "typicality", "--host", "k3n:3", "--mode", mode, "--c", c, "--s", str(s)
        )
        assert json.loads(out) == _typicality_doc(rep)
        assert code == (0 if rep.typical else 1)


def test_typicality_cli_coloured_mode_matches_the_library(tmp_path, capsys):
    g = ColouredMultigraph.from_colour_classes(
        6, 2, 2,
        [[(0, 1), (2, 3), (4, 5), (0, 2), (1, 3)],
         [(0, 3), (1, 2), (0, 4), (1, 4), (2, 4)]],
    )
    path = tmp_path / "host.json"
    path.write_text(json.dumps(g.to_json_dict()))
    verdicts = set()
    for c in ("1/10", "9/10", "3"):
        rep = cx.is_typical_coloured(g, Fraction(c), 1)
        code, out = run_cli(
            capsys, "typicality", "--host", f"@{path}", "--mode", "coloured", "--c", c
        )
        assert json.loads(out) == _typicality_doc(rep)
        assert code == (0 if rep.typical else 1)
        verdicts.add(rep.typical)
    assert verdicts == {True, False}


@pytest.mark.parametrize("argv", [
    "typicality --host k_n:6 --c 1/2 --s 0",
    "typicality --mode hp --host k3n:3 --c 1/2 --s -2",
    "typicality --host k_n:6 --c=-1/2",
])
def test_typicality_cli_rejects_a_family_size_below_one_and_a_negative_band(argv, capsys):
    # s = 0 or -2 checked no family and printed "typical": true with exit 0;
    # a negative c gave a verdict from a negative band
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: typicality needs")


def test_budget_env_var_limits_enumeration(monkeypatch, capsys):
    monkeypatch.setenv("DECOMP_LAB_BUDGET", "10")
    code = main(["solve", "--host", "k_n:9", "--pattern", "triangle"])
    assert code == 3  # budget exhaustion surfaces as an input-level error
    monkeypatch.delenv("DECOMP_LAB_BUDGET")
    code2 = main(["solve", "--host", "k_n:9", "--pattern", "triangle"])
    assert code2 == 0


def test_solve_selects_more_copies_than_the_recursion_limit(capsys):
    code, out = run_cli(capsys, "solve", "--host", "k_n:1200:1", "--pattern", "k_n:1:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found" and len(doc["certificate"]["copies"]) == 1200


def test_verify_cli_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _ = run_cli(
        capsys, "solve", "--host", "k_n:7", "--pattern", "triangle",
        "--out", str(cert_path),
    )
    assert code == 0
    code2, out2 = run_cli(
        capsys, "verify", "--host", "k_n:7", "--pattern", "triangle",
        "--certificate", str(cert_path),
    )
    assert code2 == 0
    assert json.loads(out2)["valid"] is True


def test_verify_cli_rejects_bad_pattern_index(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    for p_idx, code, valid in ((0, 0, True), (1, 1, False), (-1, 1, False)):
        cert_path.write_text(json.dumps({
            "type": "decomposition-certificate",
            "copies": [{"pattern": p_idx, "images": [0, 1, 2]}],
        }))
        got, out = run_cli(
            capsys, "verify", "--host", "k_n:3:2", "--pattern", "k_n:3:2",
            "--certificate", str(cert_path),
        )
        doc = json.loads(out)
        assert (got, doc["valid"]) == (code, valid)
        assert doc["deficit"] == ([] if valid else [["'pattern'", repr(p_idx)]])


def test_typicality_cli_reports_no_witness(capsys):
    code, out = run_cli(
        capsys, "typicality", "--host", "k_n:10", "--c", "9/100", "--s", "1"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["typical"] is False and "witness" not in doc


def test_check_master_cli(tmp_path, capsys):
    from decomp_lab.core import ColouredMultidigraph, Partition

    pattern = ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1), (1, 2)], [(2, 0)]]
    )
    host = ColouredMultidigraph.from_colour_classes(
        3, 2, 2, [[(0, 1), (1, 2)], [(2, 0)]]
    )
    trivial3 = Partition.trivial(3)
    paths = {}
    for name, doc in [
        ("pattern", pattern.to_json_dict()),
        ("host", host.to_json_dict()),
        ("part", trivial3.to_json_dict()),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(dumps_canonical(doc))
        paths[name] = str(p)
    code, out = run_cli(
        capsys, "check", "--kind", "master",
        "--host", "@" + paths["host"], "--pattern", "@" + paths["pattern"],
        "--host-partition", "@" + paths["part"],
        "--pattern-partition", "@" + paths["part"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def _coloured_host(n: int):
    from itertools import combinations

    from decomp_lab.core import ColouredMultigraph

    mult = {
        e: tuple(int((e[0] * e[1] + sum(e) + i) % 4 == 0) for i in range(4))
        for e in combinations(range(n), 2)
    }
    return ColouredMultigraph.from_dict(n, 2, 4, mult)


def test_pattern_family_document_round_trips(tmp_path, capsys):
    from decomp_lab.cli import load_structure
    from decomp_lab.encodings import rainbow_family

    family = rainbow_family(4)
    doc = {"type": "pattern-family", "patterns": [p.to_json_dict() for p in family]}
    loaded = load_structure(json.loads(dumps_canonical(doc)))
    assert [p.to_json_dict() for p in loaded] == doc["patterns"]
    path = tmp_path / "family.json"
    path.write_text(dumps_canonical(doc))
    for n, verdict in ((6, 1), (7, 0)):  # K_6 fails a level, K_7 passes
        host = tmp_path / f"host{n}.json"
        host.write_text(dumps_canonical(_coloured_host(n).to_json_dict()))
        outs = []
        for pattern in ("rainbow:4", "@" + str(path)):
            argv = ("check", "--kind", "coloured", "--host", "@" + str(host), "--pattern", pattern)
            outs.append(run_cli(capsys, *argv))
        assert outs[0] == outs[1] and outs[0][0] == verdict


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "pattern-family"},
        {"type": "pattern-family", "patterns": []},
        {"type": "pattern-family", "patterns": {"type": "hypergraph"}},
        {"type": "pattern-family", "patterns": [[0, 1]]},
        {"type": "pattern-family", "patterns": [{"parts": [[0], [1]]}]},
        {"type": "pattern-family", "patterns": [{"type": "pattern-family", "patterns": []}]},
        {"type": "pattern-family", "patterns": [{"type": "coloured-multigraph", "n": 3}]},
    ],
)
def test_malformed_pattern_family_is_an_input_error(doc, tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(dumps_canonical(_coloured_host(6).to_json_dict()))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--kind", "coloured", "--host", "@" + str(host), "--pattern", "@" + str(path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


def test_verify_cli_rejects_an_unweighted_extra_copy(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "solve", "--host", "k_n:7", "--pattern", "triangle", "--out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    doc["weights"] = [1] * len(doc["copies"])
    doc["copies"].append({"pattern": 0, "images": [0, 1, 2]})
    cert_path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "verify", "--host", "k_n:7", "--pattern", "triangle",
        "--certificate", str(cert_path),
    )
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False and report["deficit"] == [["'weights'", "7"]]


def _doubled(doc, w):
    return {**doc, "copies": doc["copies"] * 2, "weights": [w] * (2 * len(doc["copies"]))}


@pytest.mark.parametrize("broken", [
    pytest.param(lambda doc: _doubled(doc, 0.5), id="half weights"),
    pytest.param(lambda doc: _doubled(doc, True), id="boolean weights"),
    pytest.param(lambda doc: {**doc, "weights": ["1"] * len(doc["copies"])}, id="string weights"),
    pytest.param(lambda doc: {**doc, "weights": 1}, id="weights not a list"),
    pytest.param(lambda doc: {"type": doc["type"]}, id="no copies"),
    pytest.param(lambda doc: {**doc, "copies": [{"pattern": 0}]}, id="copy without images"),
    pytest.param(lambda doc: {**doc, "copies": [{"images": [0, 1, 2]}]}, id="copy without pattern"),
    pytest.param(
        lambda doc: {**doc, "copies": [{"pattern": 0, "images": [[0], 1, 2]}] + doc["copies"][1:]},
        id="list among the images",
    ),
    pytest.param(lambda doc: [doc], id="document is an array"),
])
def test_verify_cli_rejects_a_malformed_certificate(tmp_path, capsys, broken):
    # a K_7 certificate listed twice with weights 1/2 sums to the host
    # exactly, yet only integer weights are allowed
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "solve", "--host", "k_n:7", "--pattern", "triangle", "--out", str(cert_path))
    cert_path.write_text(json.dumps(broken(json.loads(cert_path.read_text()))))
    argv = ["verify", "--host", "k_n:7", "--pattern", "triangle", "--certificate", str(cert_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


def test_nibble_cli_rejects_an_edgeless_pattern(tmp_path, capsys):
    path = tmp_path / "edgeless.json"
    path.write_text(dumps_canonical(Hypergraph.from_edges(3, 2, []).to_json_dict()))
    code, out = run_cli(
        capsys, "nibble", "--pattern", "@" + str(path), "--blowup", "3", "--seed", "1"
    )
    assert (code, out) == (3, "")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_h_cli_output_equals_the_reference_checker(monkeypatch, capsys, fmt):
    for host, verdict in (("k_n:7", True), ("k_n:5", False), ("k_n:6", False)):
        argv = ("check", "--kind", "h", "--host", host, "--pattern", "triangle", "--format", fmt)
        code, out = run_cli(capsys, *argv)
        assert code == (0 if verdict else 1)
        with monkeypatch.context() as m:
            m.setattr(dv, "h_divisible", oracles.ref_h_divisible)
            assert run_cli(capsys, *argv) == (code, out)


def _bad_argument_specs(name):
    """Specs naming a builtin with too few, too many or negative arguments."""
    counts = _BUILTINS[name][0]
    specs = [":".join([name] + ["3"] * (max(counts) + 1))]
    if min(counts) > 0:
        specs.append(":".join([name] + ["3"] * (min(counts) - 1)))
        specs.append(":".join([name] + ["2"] * (min(counts) - 1) + ["-1"]))
    return specs


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_builtin_spec_with_a_wrong_argument_count_or_a_negative_argument_exits_3(name, capsys):
    # a missing argument used to end in an IndexError traceback (exit 1), and
    # a negative one built a structure: k_n:-1 and resolvable:-3 exited 0
    for spec in _bad_argument_specs(name) + (["resolvable:-3"] if name == "resolvable" else []):
        assert main(["solve", "--host", spec, "--pattern", "triangle"]) == 3, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: structure spec {spec!r} "), spec


def test_readme_lists_every_builtin_spec():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Built-in structures", 1)[1].split("```")[1]
    for name in _BUILTINS:
        assert re.search(rf"(^|\s){name}(:|\s)", block), name


@pytest.mark.parametrize("command, doc", [
    pytest.param("decode", [1, 2], id="certificate is an array"),
    pytest.param("decode", {"type": "design-certificate", "blocks": []}, id="no kind"),
    pytest.param("decode", {"type": "design-certificate", "kind": "latin-triangles"},
                 id="no blocks"),
    pytest.param("decode", {"type": "design-certificate", "kind": "latin-triangles",
                            "blocks": [], "classes": 5}, id="classes not a list"),
    pytest.param("decode", {"type": "design-certificate", "kind": "latin-triangles",
                            "blocks": [0, 1, 2]}, id="blocks not lists"),
    pytest.param("lattice", [1], id="matrix is an array"),
    pytest.param("lattice", {"type": "int-matrix"}, id="no rows"),
    pytest.param("lattice", {"type": "int-matrix", "rows": [[None]]}, id="null entry"),
])
def test_malformed_document_exits_3(command, doc, tmp_path, capsys):
    # each ended in an AttributeError, KeyError or TypeError traceback (exit 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--infile" if command == "decode" else "--matrix"
    argv = [command, flag, str(path)] + (["--kind", "latin"] if command == "decode" else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


@pytest.mark.parametrize("argv", [
    ["typicality", "--host", "k_n:6", "--c", "1/0"],
    ["nibble", "--pattern", "triangle", "--blowup", "3", "--seed", "1", "--stop-density", "1/0"],
])
def test_fraction_with_a_zero_denominator_exits_3(argv, capsys):
    # Fraction("1/0") raised ZeroDivisionError: a traceback with exit 1, the
    # code of a proven "false"
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {argv[-2]} '1/0' has a zero denominator")


@pytest.mark.parametrize("entry", [1.5, 2.0, True, "1.5", " 1"])
def test_lattice_matrix_entry_that_is_not_an_integer_exits_3(entry, tmp_path, capsys):
    # int(x) read 1.5 as 1 and true as 1, and exited 0 with the wrong HNF
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"type": "int-matrix", "rows": [[entry, 2]]}))
    assert main(["lattice", "--matrix", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: int-matrix entries")


@pytest.mark.parametrize("argv", [
    "solve",
    "solve --host k_n:7 --timeout abc",
    "check --kind nope",
])
def test_usage_error_exits_3(argv, capsys):
    # argparse exits 2 on a usage error, the code of a timeout
    assert main(argv.split()) == 3
    assert "usage: decomp-lab" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["decode", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: decomp-lab")


@pytest.mark.parametrize("kind, text", [
    pytest.param("sudoku", "0 1 2 3\n2 3 0 1\n1 0 3 2\n3 2 1 0\n", id="box order 2"),
    pytest.param("mols", "0 1 2\n1 2 0\n2 0 1\n\n0 1 2\n2 0 1\n1 2 0\n", id="orthogonal pair"),
])
def test_encode_decode_read_the_order_from_the_input(kind, text, tmp_path, capsys):
    # --box-order defaulted to 3 and decode's --order to 0, so both needed options
    src = tmp_path / "design.txt"
    src.write_text(text)
    code, out = run_cli(capsys, "encode", "--kind", kind, "--infile", str(src))
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    assert run_cli(capsys, "decode", "--kind", kind, "--infile", str(cert_path)) == (0, text)


@pytest.mark.parametrize("kind, name, count, power", [
    ("latin", "latin-triangles", 3, 2),
    ("mols", "mols-cliques", 0, 2),
    ("sudoku", "sudoku-copies", 4, 4),
])
def test_decode_of_a_block_count_that_fits_no_order_exits_3(
    kind, name, count, power, tmp_path, capsys
):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"type": "design-certificate", "kind": name,
                                "blocks": [[0, 2, 4]] * count}))
    assert main(["decode", "--kind", kind, "--infile", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: {count} certificate blocks are not n**{power} for a positive n\n"
    )


def test_encode_of_mols_without_a_blank_line_exits_3(tmp_path, capsys):
    # the missing second square used to surface as a failed tuple unpacking
    src = tmp_path / "square.txt"
    src.write_text("0 1\n1 0\n")
    assert main(["encode", "--kind", "mols", "--infile", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: mols input needs a blank line and then the second square\n"
    )


def test_encode_of_a_sudoku_grid_whose_rows_fit_no_box_order_exits_3(tmp_path, capsys):
    src = tmp_path / "grid.txt"
    src.write_text("0 1 2\n1 2 0\n2 0 1\n")
    assert main(["encode", "--kind", "sudoku", "--infile", str(src)]) == 3
    assert capsys.readouterr().err.startswith("input error: 3 grid rows are not n**2")


def _readme_examples() -> list[list[str]]:
    """The words of each command in the README's Examples block; a quoted
    argument may run on over lines."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExamples:\n", 1)[1].split("```")[1]
    commands, pending = [], ""
    for line in block.splitlines()[1:]:  # after the language tag
        pending += line
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:  # no closing quotation yet
            pending += "\n"
            continue
        if words:
            commands.append(words)
        pending = ""
    return commands


def test_readme_examples_exit_0(tmp_path, monkeypatch, capsys):
    """Every example exits 0.  Text echoed into a command goes in through
    --infile, and a command's output is written where > sends it."""
    monkeypatch.chdir(tmp_path)
    ran = []
    for words in _readme_examples():
        out_path = None
        if ">" in words:
            words, out_path = words[: words.index(">")], words[-1]
        if words[0] == "echo":
            Path("stdin.txt").write_text(words[1] + "\n")
            words = words[words.index("|") + 1:] + ["--infile", "stdin.txt"]
        assert words[0] == "decomp-lab", words
        code, out = run_cli(capsys, *words[1:])
        assert code == 0, words
        if out_path:
            Path(out_path).write_text(out)
        ran.append(words[1])
    assert {"check", "solve", "count", "encode", "decode"} <= set(ran)
