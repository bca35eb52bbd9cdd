"""decomp-lab benchmark: seeded closed-loop workloads with answer checks.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

runs one workload in this process: one client sends each op after the
previous one returned, every op is timed, and every answer is checked
against an oracle in bench/oracles.py.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  Op and set-up times are scaled to the machine's speed around
them (bench/speed.py).  Without --workload, each workload runs in its own
fresh process.  --self-test feeds every oracle a wrong answer.  See
bench/README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("search", "nibble", "checkers")
SETUP_REPS = 5  # setup_s reports the median of these set-ups
MIN_OPS = 100  # so that at least 10 latencies lie beyond op_p90_ms
CHILD_TIMEOUT_S = 900


def import_library():
    """Import the workloads against this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    import decomp_lab

    if Path(decomp_lab.__file__).resolve().parent != src / "decomp_lab":
        sys.exit(f"decomp_lab imported from {decomp_lab.__file__}, not from {src}")
    import workloads

    return workloads


class Stats:
    """Latency and failures per op; a failed op is counted and the run goes on.
    A speed probe runs between ops, so that each op's time can be scaled to
    the machine's speed around it (bench/speed.py)."""

    def __init__(self) -> None:
        self.clock = speed.SpeedClock()
        self.spans: list[tuple[float, float]] = []
        self.latency: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.failed: Counter = Counter()
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def run(self, ops, tracer=None) -> None:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            self.clock.maybe_sample()
            t0 = perf_counter()
            try:
                answer = op.call()
            except Exception as exc:  # BudgetExceeded or any bug: a failed op
                self.record(op.kind, t0, perf_counter(), f"{type(exc).__name__}: {exc}")
                continue
            self.judge(op, t0, perf_counter(), answer)
        self.clock.sample()  # so that the last op has a probe after it

    def judge(self, op, start: float, end: float, answer) -> None:
        try:
            error = op.check(answer)
        except Exception as exc:  # a malformed answer fails its op
            error = f"check raised {type(exc).__name__}: {exc}"
        self.record(op.kind, start, end, error)

    def record(self, kind: str, start: float, end: float, error) -> None:
        seconds = end - start
        self.spans.append((start, end))
        self.latency.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)
        if error is not None:
            self.failed[kind] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {error}")

    def scaled(self) -> list[float]:
        """Each op's wall time at the probe's nominal speed."""
        return [(end - start) * self.clock.factor(start, end) for start, end in self.spans]

    def per_kind(self) -> dict:
        return {kind: {"ops": len(lat), "failed": self.failed[kind],
                       "p50_ms": 1e3 * statistics.median(lat)}
                for kind, lat in sorted(self.by_kind.items())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when the checkout itself is a git work tree."""
    if not (ROOT / ".git").exists():  # never pick up an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, **extra) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": git_commit(),
        "setup_repetitions": SETUP_REPS,
        **extra,
    }


def set_up(workload, seed: int, import_end: float):
    """SETUP_REPS fresh set-ups with bursts of speed probes around each.
    Returns the last state, every set-up's wall time, and setup_s: the
    import plus the median set-up, scaled by the median of those probes.
    A set-up is too long for the probes next to it to track the speed
    inside it, so the whole set-up phase shares one factor."""
    clock, times, state = speed.SpeedClock(), [], None
    clock.sample(speed.BURST)
    for _ in range(SETUP_REPS):
        state = None  # let the previous state go before building the next
        t0 = perf_counter()
        state = workload.setup(seed)
        times.append(perf_counter() - t0)
        clock.sample(speed.BURST)
    wall = import_end - T_START + statistics.median(times)
    return state, times, wall * speed.PROBE_NOMINAL_S / clock.median_probe_s()


def timings(lat) -> tuple[float, float, float]:
    """Ops per second of op time, median and 90th-percentile latency in ms."""
    p90 = statistics.quantiles(lat, n=10)[8]
    return len(lat) / sum(lat), 1e3 * statistics.median(lat), 1e3 * p90


def rows_to_metrics(rows) -> dict:
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def measure(workload, args, import_end: float):
    state, setup_times, setup_s = set_up(workload, args.seed, import_end)
    stats = Stats()
    rounds = 0
    t_loop = perf_counter()
    while True:  # whole rounds, up to the round boundary nearest to --seconds
        t_round = perf_counter()
        stats.run(workload.round(state, args.seed, rounds))
        rounds += 1
        now = perf_counter()
        if now - t_loop + (now - t_round) / 2 >= args.seconds and stats.attempted >= MIN_OPS:
            break
    ops_per_s, p50_ms, p90_ms = timings(stats.scaled())
    wall = timings(stats.latency)
    rows = [
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s, "ops/s"),
        ("op_p50_ms", p50_ms, "ms"),
        ("op_p90_ms", p90_ms, "ms"),
        ("ok_frac", 1.0 - stats.failures / stats.attempted, "ratio"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    ]
    extra = {"import_s": import_end - T_START, "setup_times_s": setup_times, "rounds": rounds,
             "loop_wall_s": now - t_loop,
             "wall_setup_s": import_end - T_START + statistics.median(setup_times),
             "wall_ops_per_s": wall[0], "wall_op_p50_ms": wall[1], "wall_op_p90_ms": wall[2],
             "probe_median_ms": 1e3 * stats.clock.median_probe_s()}
    return [stats], rows, extra


def measure_traced(workload, args, import_end: float):
    """Replay a fixed op list untraced, then set up again and replay it
    traced; the difference in ops_per_s is the tracing overhead."""
    import tracing

    state, setup_times, _ = set_up(workload, args.seed, import_end)
    rounds = max(1, round(args.seconds / 2 / workload.round_s))
    ops = [op for k in range(rounds) for op in workload.round(state, args.seed, k)]
    untraced = Stats()
    untraced.run(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = workload.setup(args.seed)
        ops = [op for k in range(rounds) for op in workload.round(state, args.seed, k)]
        traced = Stats()
        traced.run(ops, tracer)
    finally:
        tracer.uninstall()
    rows, shares = tracing.layer_metrics(tracer, sum(traced.latency),
                                         timings(untraced.scaled())[0], timings(traced.scaled())[0])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans)
    extra = {"import_s": import_end - T_START, "setup_times_s": setup_times, "rounds": rounds,
             "spans": len(tracer.names), "spans_file": str(spans.relative_to(ROOT)),
             "self_share": shares}
    return [traced, untraced], rows, extra


def run_workload(args) -> int:
    workloads = import_library()
    import_end = perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    passes, rows, extra = measure_fn(workload, args, import_end)
    attempted = sum(s.attempted for s in passes)
    failed = sum(s.failures for s in passes)
    meta = metadata(args, ops_per_kind=passes[0].per_kind(),
                    errors=[e for s in passes for e in s.errors], **extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": rows_to_metrics(rows),
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    report(args.workload, rows, meta)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def report(name: str, rows, meta: dict) -> None:
    """Human-readable summary on stderr; stdout stays machine-readable."""
    err = sys.stderr
    print(f"== {name} (seed {meta['seed']}, {meta['rounds']} rounds)", file=err)
    for metric, value, unit in rows:
        if value or "." not in metric:  # per-layer rows of unused layers read 0
            print(f"  {metric:48s} {value:14.6g} {unit}", file=err)
    for line in meta["errors"]:
        print(f"  FAILED {line}", file=err)


def run_all(args) -> int:
    """Each workload in its own fresh process; prints their results and a
    combined line with workload-prefixed metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name} " + json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def self_test(args) -> int:
    """Every op kind's check must accept the real answer and reject a wrong
    one (count off by one, flipped verdict, copy dropped from a matching or
    a certificate); a raising op must count as failed without stopping."""
    workloads = import_library()
    from decomp_lab import solver as sv

    problems = []
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        state = workload.setup(args.seed)
        ops = {op.kind: op for op in workload.round(state, args.seed, 0)}
        stats = Stats()
        for kind, op in sorted(ops.items()):
            answer = op.call()
            before = stats.failures
            stats.judge(op, 0.0, 0.0, answer)
            if stats.failures != before:
                problems.append(f"{kind}: right answer rejected: {stats.errors[-1]}")
                continue
            stats.judge(op, 0.0, 0.0, op.corrupt(answer))
            caught = stats.failures == before + 1
            print(f"  {name:9s} {kind:28s} wrong answer {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{kind}: wrong answer accepted")
        if name == "search":
            latin = state["counts"]["latin4"][1][0]
            found = workloads.find(latin)
            cert = workloads.drop_copy_or_flip(found).certificate
            dropped = latin.cover_error(cert.embeddings)
            print(f"  {name:9s} {'certificate, copy dropped':28s} "
                  f"{'caught' if dropped else 'MISSED'}: {dropped}")
            if found.status != "found" or latin.cover_error(found.certificate.embeddings):
                problems.append("latin4 certificate not found or rejected")
            if not dropped:
                problems.append("certificate with a dropped copy accepted")
            res9 = state["counts"]["res9"][1][0]
            timed_out = workloads.Op(
                "count.res9.no_time", lambda: sv.count_decompositions(
                    res9.host, res9.pattern, res9.partition, timeout=0.0, table=res9.table),
                ops["count.latin4"].check, lambda c: c)
            stats = Stats()
            stats.run([timed_out, ops["count.latin4"]])
            print(f"  {name:9s} {'BudgetExceeded op':28s} failed={stats.failures} "
                  f"attempted={stats.attempted}: {stats.errors}")
            if (stats.failures, stats.attempted) != (1, 2):
                problems.append("a raising op did not count as one failure")
    for p in problems:
        print("SELF-TEST FAILED " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
