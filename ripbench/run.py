"""Run one benchmark workload at one seed and print its metrics.

Usage (from the root of a checkout)::

    python3 ripbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
runs the workload twice (untraced, then traced over the same inputs) and
prints the per-layer metrics, with a layer table on standard error.  The
last line of standard output is the JSON result; the line before it records
the environment.  Exits 1 when an output check fails and 2 when the
program under test is missing.  Timing metrics are scaled to the
reference speed of ``ripbench/calibrate.py``; the environment line also
holds them unscaled (``raw``).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ripbench import ROOT, SRC, STRIPPED_ENV, WORK  # noqa: E402


def layer_table(workload: str, layers) -> str:
    from ripbench.metrics import PER_LAYER

    rows = [f"layer table: {workload}"]
    for name, unit in PER_LAYER.items():
        rows.append(f"  {name:<36} {layers[name]:>14.6g} {unit}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ripbench: no program under test at {SRC}/repro", file=sys.stderr)
        return 2
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    # Byte-compile once up front so no interpreter's set-up time includes
    # compiling the program (a no-op when the bytecode is current).
    compileall.compile_dir(str(SRC), quiet=1)

    import numpy

    from ripbench.metrics import result_line
    from ripbench.workloads import WORKLOADS, BenchRun

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        outcome = WORKLOADS[args.workload](
            BenchRun(work, args.seed, args.seconds), bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        print(layer_table(args.workload, outcome.layers), file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                # Timing metrics before scaling to the reference speed.
                "raw": outcome.raw,
                "environment": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "root": ROOT.name,
                },
            }
        )
    )
    correct = outcome.failed == 0
    print(
        result_line(
            outcome.layers if args.trace else outcome.metrics,
            trace=bool(args.trace),
            attempted=outcome.attempted,
            failed=outcome.failed,
            correct=correct,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
