"""The benchmark harness in bench/ against this library: its self-test
passes, and every function its tracer wraps exists."""

import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_self_test_passes():
    # every op kind's oracle accepts the library's answer and rejects a
    # wrong one, and a raising op counts as one failure
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith("self-test passed")


def test_bench_tracing_targets_resolve():
    # a traced bench run patches each (owner, attribute) of TARGETS, so a
    # library name it lists, such as an alias, cannot go without breaking it
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    assert [(o.__name__, a) for o, a in targets if not callable(getattr(o, a, None))] == []
    names = {(owner.__name__, attr) for owner, attr in targets}
    assert ("decomp_lab.divisibility", "host_degree_vector") in names
    assert ("decomp_lab.weights", "coloured_edge_vector") in names
