"""Closed-loop measurement shared by the three workloads.

One process drives one workload serially: it imports the kernel, sets the
workload up several times (reporting the median), then runs whole rounds of
operations: as many as end nearest to ``--seconds``, and at least two
rounds and ``MIN_OPS`` operations, so the 90th percentile has ten samples
beyond it.  Each
operation is timed alone; its output is checked after the clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import spans

MIN_OPS = 100
MIN_ROUNDS = 2
SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``check`` returns None when the output is right, else a reason.
    ``known_fault`` names a program fault that makes this operation fail
    today; such a failure is counted but leaves the run correct.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_fault: str | None = None


@dataclass
class Context:
    root: Path          # checkout root (holds src/ and bench/)
    work: Path          # scratch directory for this run, inside bench/out
    seed: int
    tracer: spans.Tracer | None
    child_traces: list[Path]

    def python_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


def measure_import_s(ctx: Context, reps: int = 5) -> float:
    """Median fresh ``import layerprop.cli`` minus median bare start."""
    def median_run(code: str) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=ctx.python_env(),
                           check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    return median_run("import layerprop.cli") - median_run("pass")


def run(name: str, ctx: Context, seconds: float) -> dict:
    """Set up, measure, check; returns the result object to print."""
    t0 = time.perf_counter()
    workload = importlib.import_module(f"wl_{name}")
    import_s = time.perf_counter() - t0
    builds = []
    state = None
    for _ in range(SETUP_REPS):
        t1 = time.perf_counter()
        state = workload.setup(ctx)
        builds.append(time.perf_counter() - t1)
    setup_s = import_s + statistics.median(builds)

    tracer = ctx.tracer
    if tracer is not None:
        missing = spans.install(tracer)
        for name in missing:
            print(f"trace: {name} not found, its metrics read 0",
                  file=sys.stderr)

    # collections before each operation need not walk the set-up's objects
    gc.collect()
    gc.freeze()
    times: list[float] = []
    verdicts = hashlib.sha256()  # labels and verdicts of the first round
    failures: dict[str, int] = {}
    unexpected = 0
    attempted = 0
    rnd = 0
    start = time.perf_counter()
    # whole rounds; stop at the round count whose end lies nearest to
    # ``seconds`` once MIN_ROUNDS rounds and MIN_OPS operations ran
    while rnd < MIN_ROUNDS or attempted < MIN_OPS or (
            time.perf_counter() - start) * (1 + 0.5 / rnd) < seconds:
        for op in workload.round_ops(state, rnd):
            error = None
            # every operation starts with no garbage left by the previous
            # ones, so a collection it triggers is paid for its own work
            gc.collect()
            t1 = time.perf_counter()
            try:
                if tracer is not None:
                    out = tracer.run_op(attempted, op.call)
                else:
                    out = op.call()
            except Exception as exc:  # a crash is a failed operation
                out = None
                error = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t1)
            attempted += 1
            if error is None:
                error = op.check(out)
            if rnd == 0:
                verdicts.update(f"{op.label}\t{error}\n".encode())
            if error is not None:
                key = f"{op.label}: {error}"
                failures[key] = failures.get(key, 0) + 1
                if op.known_fault is None:
                    unexpected += 1
        rnd += 1
    wall = time.perf_counter() - start
    failed = sum(failures.values())
    for key, n in sorted(failures.items()):
        print(f"failed x{n} {key}", file=sys.stderr)

    if workload.CHILD_PROCESSES:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    print(f"{workload.NAME}: {attempted} ops in {rnd} rounds, {wall:.1f} s "
          f"wall, {failed} failed ({unexpected} unexpected)",
          file=sys.stderr)

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
        record = metrics
    else:
        units = spans.metric_units()
        layer = tracer.metrics(measure_import_s(ctx))
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in layer.items()}
        record = dict(metrics)
        record.update({f"traced.{k}": {"value": v,
                                       "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items()})
        trace_path = ctx.work.parent / (
            f"trace-{workload.NAME}-seed{ctx.seed}.tsv.gz")
        tracer.write(trace_path)
        with open(trace_path, "ab") as out:
            for child in ctx.child_traces:
                out.write(child.read_bytes())
        print(f"trace: {len(tracer.s_start)} in-process spans, "
              f"{len(ctx.child_traces)} child traces -> {trace_path}",
              file=sys.stderr)

    result = {"correct": unexpected == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    digests = {
        "inputs": hashlib.sha256(workload.describe(state).encode()
                                 ).hexdigest(),
        "first_round_verdicts": verdicts.hexdigest()}
    print(f"digests: {digests}", file=sys.stderr)
    mode = "trace" if tracer is not None else "plain"
    (ctx.work.parent / f"result-{workload.NAME}-seed{ctx.seed}-{mode}.json"
     ).write_text(json.dumps(dict(result, metrics=record, rounds=rnd,
                                  digests=digests), indent=1),
                  encoding="utf-8")
    return result
