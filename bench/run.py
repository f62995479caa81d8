"""Benchmark of the layerprop kernel.

Run from the root of a checkout:

    python3 bench/run.py --workload semantics --seed 1 --seconds 30 --trace 0

``--workload`` is ``semantics``, ``search``, ``cli`` or ``all``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``all`` runs each workload in a
process of its own and prints every metric with its unit.  Result and trace
files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("semantics", "search", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args, root: Path) -> int:
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "run.py"), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, mv in result["metrics"].items():
            print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "layerprop" / "__init__.py").is_file():
        print("error: run from the root of a layerprop checkout "
              "(src/layerprop is missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    import harness
    import spans
    out = root / "bench" / "out"
    work = out / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = harness.Context(root, work, args.seed,
                          spans.Tracer() if args.trace else None, [])
    try:
        result = harness.run(args.workload, ctx, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
