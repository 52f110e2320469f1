"""One sweep of the program in a fresh interpreter — the benchmark's unit.

Usage::

    python3 ripbench/program.py JOB.json

``JOB.json`` names a design-state directory, the population (net specs of
:mod:`ripbench.inputs` plus an H-tree count), the methods (as
``rip sweep --methods`` takes them), the worker count and whether to trace.
The process imports the program, builds its
:class:`~repro.engine.cache.ProtocolStore` and
:class:`~repro.engine.design.DesignEngine` on that directory exactly as
``rip sweep --cache-dir DIR`` would, prints ``ready`` once it can start
work (the parent times spawn-to-ready as set-up), runs one
``design_population`` call, journaling as every disk-backed sweep does,
between two timings of the reference workload of :mod:`ripbench.calibrate`,
and writes records, counters, peak RSS, the reference timings and (when
traced) spans to the job's output file.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ripbench import SRC, peak_rss_kb  # noqa: E402
from ripbench.calibrate import reference_seconds  # noqa: E402
from ripbench.tracing import SpanRecorder, install  # noqa: E402

sys.path.insert(0, str(SRC))


def net_summary(net) -> dict:
    return {
        "name": net.net_name,
        "class": net.population_class,
        "failure_kind": net.failure_kind,
        "records": len(net.records),
        "method_runtimes": net.method_runtimes,
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    recorder = SpanRecorder() if job["trace"] else None
    with recorder.span("import") if recorder else contextlib.nullcontext():
        from repro.cli.main import _parse_methods
        from repro.engine import design
        from repro.engine.cache import ProtocolStore
        from repro.tech.nodes import NODE_180NM
    uninstall = install(recorder) if recorder else None

    from ripbench import inputs

    store = ProtocolStore(cache_dir=job["cache_dir"])
    cases = inputs.build_cases(store, inputs.specs_from_json(job["nets"]))
    twopin = list(cases)
    if job["htrees"]:
        cases += design.build_htree_cases(NODE_180NM, count=job["htrees"])
    methods = _parse_methods(",".join(job["methods"]))
    engine = design.DesignEngine(NODE_180NM, workers=job["workers"], store=store)
    print("ready", flush=True)

    # The reference workload of ripbench/calibrate.py, timed right before
    # and after the sweep; the parent scales the sweep's timings by it.
    reference_s = [reference_seconds()]
    started = time.perf_counter()
    result = engine.design_population(cases, methods, checkpoint=True)
    design_s = time.perf_counter() - started
    reference_s.append(reference_seconds())
    engine.close()
    if uninstall is not None:
        uninstall()
    # Peak RSS of the sweep and its reaped pool workers (started by this
    # process, so theirs never counts the benchmark's memory), read before
    # this process builds its own output.
    rss_kb = max(peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    output = {
        "design_s": design_s,
        "reference_s": reference_s,
        "num_designs": result.statistics.num_designs,
        "records": [asdict(record) for record in result.records()],
        "nets": [net_summary(net) for net in result.nets],
        "window_cache": (
            asdict(result.statistics.window_cache)
            if result.statistics.window_cache is not None
            else None
        ),
        "store": asdict(engine.store_statistics),
        "recovery": engine.recovery.snapshot(),
        "journal_bytes": sum(
            path.stat().st_size for path in (store.cache_dir / "journal").glob("*.journal")
        ),
        "workers": job["workers"],
        "spans": recorder.spans if recorder else None,
        "rss_kb": rss_kb,
    }
    if job.get("reference"):
        # Quality baseline outside the timed call: a memory-only engine, so
        # nothing lands in the design-state directory.
        reference = design.DesignEngine(
            NODE_180NM, workers=job["workers"], store=ProtocolStore()
        )
        output["reference_records"] = [
            asdict(record)
            for record in reference.design_population(
                twopin, _parse_methods(",".join(job["reference"]))
            ).records()
        ]
        reference.close()
    Path(job["out"]).write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
