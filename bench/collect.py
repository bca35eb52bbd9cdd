"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --out baseline.json

runs bench/run.py once per (workload, seed) for every workload, one process
at a time, for BENCHMARK.json's run_seconds, with --trace 0, and once more
with --trace 1 for seeds 1 and 2.  It writes for every workload and metric
the median, the quartiles and the spread (interquartile distance over the
median), the same for the unscaled wall-time figures of the run records,
plus each traced run's per-layer metrics and layer self-time shares.  Two
such summaries taken on the same machine are what a change quotes as
before and after.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
WORKLOADS = ("search", "nibble", "checkers")
TRACE_SEEDS = (1, 2)
# unscaled figures from each run's meta line, next to the speed-scaled metrics
WALL = {"wall_setup_s": "s", "wall_ops_per_s": "ops/s", "wall_op_p50_ms": "ms",
        "wall_op_p90_ms": "ms", "probe_median_ms": "ms"}


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("meta "))
    return {"meta": meta, **json.loads(lines[-1])}


def summarise(results: list[dict]) -> list[dict]:
    rows = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows.append({"name": name, "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        untraced = [run(workload, s, seconds, 0) for s in seeds(args.seeds)]
        traced = [run(workload, s, seconds, 1) for s in TRACE_SEEDS]
        doc["machine"] = {k: untraced[0]["meta"][k]
                          for k in ("nproc", "cpu_model", "python", "git_commit")}
        doc["workloads"][workload] = {
            "seeds": seeds(args.seeds),
            "correct": all(r["correct"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "end_to_end": summarise(untraced),
            "wall": summarise([{"metrics": {k: {"value": r["meta"][k], "unit": unit}
                                            for k, unit in WALL.items()}} for r in untraced]),
            "per_layer": summarise(traced),
            "self_share": {r["meta"]["seed"]: r["meta"]["self_share"] for r in traced},
            "ops_per_kind": untraced[0]["meta"]["ops_per_kind"],
        }
        for row in doc["workloads"][workload]["end_to_end"]:
            print(f"{workload:9s} {row['name']:12s} median {row['median']:12.6g} "
                  f"{row['unit']:6s} spread {row['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
