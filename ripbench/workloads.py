"""The three workloads: a cold sweep, restarted sweeps and a ``rip serve`` load.

Every workload returns a :class:`Outcome`: the end-to-end metric values of
an untraced pass, the count of attempted and failed operations, and — for
``--trace 1`` — the per-layer metric values of a second, traced pass over
the same inputs.  Output checks run outside the timed regions; a failed
check counts as a failed operation.

Every timing metric is scaled to the reference speed of
:mod:`ripbench.calibrate`: each timed interval (one sweep in a fresh
interpreter, one daemon spawn, one round of service load) is bracketed by
reference timings, and its seconds are divided by its slowness.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ripbench import ROOT, SRC, STRIPPED_ENV, inputs, peak_rss_kb, stats
from ripbench import calibrate
from ripbench.tracing import EMPTY_TOTALS, LayerTotals, reduce_spans

PROGRAM = Path(__file__).resolve().parent / "program.py"
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"

#: Cold sweeps: nets per segment count, one per routable-length quantile.
#: With one slot a repeat's RIP latency percentiles fell on one of its 7
#: nets and spread twice as much over seeds.
COLD_SLOTS = 2
COLD_HTREES = 2
COLD_METHODS = ("rip", "dp-g10", "tree-g20")
#: Every workload repeats its unit at least this often, so set-up time is a
#: median over several fresh interpreters.
MIN_REPEATS = 3

RESTART_SLOTS = 4
RESTART_WORKERS = 2
#: Restarts are short (about 0.3 s of design work), so a median needs more.
RESTART_MIN_REPEATS = 5

#: Service load: closed-loop clients, envelope shape and the per-net
#: latency limit of the goodput metric.  The hot set is one median-length
#: net per segment count, the same for every seed (a team's recurring
#: nets): its 28 frontiers fit the daemon's default per-tenant window-cache
#: partition (64 entries), so hot requests hit their frontiers whatever
#: the interleaving of the clients.
SERVE_CLIENTS = 2
SERVE_HOT_SEED = 2005
SERVE_HOT_PER_ENVELOPE = 2
SERVE_NEW_PER_ENVELOPE = 2
SERVE_TARGET_INDEXES = (2, 9, 16)
SERVE_LATENCY_LIMIT_S = 5.0
#: First-contact nets cycle through the segment counts and this many
#: routable-length slots.  Before each round the pool is topped up to hold
#: this many unsent nets per second of the round, 4x what the serial daemon
#: designs today (about 16 per second), so a faster daemon still runs for
#: the whole round.  A pool that runs dry anyway is a failed check, never a
#: silently shorter run.
SERVE_NEW_SLOTS = 3
SERVE_NEW_PER_SECOND = 64
#: Daemon spawns per run for the set-up median: half before the load, half
#: after it, and the one that serves.
SERVE_SETUP_SAMPLES = 9
#: The load runs in rounds of about this many seconds; the reference
#: workload is timed between rounds, while the daemon is idle.
SERVE_ROUND_S = 2.5
READY_PREFIX = "rip serve: listening on http://"

CHILD_TIMEOUT_S = 60.0

#: The end-to-end metrics that are timings (scaled to the reference speed).
TIMING_METRICS = ("setup_s", "designs_per_s", "latency_p50_ms", "latency_p90_ms")


@dataclass
class Outcome:
    """What a workload measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    #: The timing metrics before scaling, and the run's median slowness.
    raw: Dict[str, float] = field(default_factory=dict)


def child_env() -> Dict[str, str]:
    """The program's environment: no cache/fault/sanitizer switches."""
    env = {key: value for key, value in os.environ.items() if key not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def stripped(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Records without their runtime field (timings are not identity)."""
    return [{k: v for k, v in record.items() if k != "runtime_seconds"} for record in records]


def digest(records: Sequence[Dict[str, Any]]) -> str:
    payload = json.dumps(stripped(records), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class BenchRun:
    """One benchmark run: scratch directory, inputs, child processes."""

    def __init__(self, work: Path, seed: int, seconds: float) -> None:
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self._jobs = 0

    def fresh_dir(self, label: str) -> Path:
        self._jobs += 1
        path = self.work / f"{label}-{self._jobs}"
        path.mkdir(parents=True)
        return path

    def run_program(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run ``program.py`` on ``job``; its output, with spawn-to-ready ``setup_s``."""
        self._jobs += 1
        job_path = self.work / f"job-{self._jobs}.json"
        out_path = self.work / f"out-{self._jobs}.json"
        job = {**job, "out": str(out_path)}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(PROGRAM), str(job_path)],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        killer.start()
        try:
            line = process.stdout.readline()
            ready = time.perf_counter() - started
            process.stdout.read()
            code = process.wait()
        finally:
            killer.cancel()
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"program exited {code} (first line {line.strip()!r})")
        return {**json.loads(out_path.read_text(encoding="utf-8")), "setup_s": ready}


# --------------------------------------------------------------------------- #
# sweep metrics
# --------------------------------------------------------------------------- #
def quality(records, reference=None) -> Tuple[float, float]:
    """(RIP / dp-g10 total width over jointly feasible pairs, RIP met share)."""
    rip = [record for record in records if record["method"] == "rip"]
    baseline = {
        (record["net_name"], record["target"]): record
        for record in (reference if reference is not None else records)
        if record["method"] == "dp-g10"
    }
    rip_width = dp_width = 0.0
    for record in rip:
        other = baseline.get((record["net_name"], record["target"]))
        if record["feasible"] and other is not None and other["feasible"]:
            rip_width += record["total_width"]
            dp_width += other["total_width"]
    met = sum(1 for record in rip if record["feasible"]) / len(rip)
    return rip_width / dp_width, met


def rip_design_latencies(output) -> List[float]:
    """One sweep's RIP per-design runtimes (the paper's runtime axis)."""
    return [r["runtime_seconds"] for r in output["records"] if r["method"] == "rip"]


def sweep_slowness(output) -> float:
    return calibrate.slowness(output["reference_s"])


def sweep_rate(outputs, scaled: bool = True) -> float:
    """All designs of the repeats over all their (scaled) design seconds."""
    return sum(o["num_designs"] for o in outputs) / sum(
        o["design_s"] / (sweep_slowness(o) if scaled else 1.0) for o in outputs
    )


def sweep_metrics(outputs, reference=None, scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics of a sweep workload.

    Each repeat (one interpreter and one ``design_population`` call) is
    scaled by its own slowness, unless ``scaled`` is false.  Throughput is
    all designs over all design seconds; the latency percentiles are taken
    per repeat and averaged over the repeats (pooling restarted designs
    instead let the p90 follow whichever nets a busy machine happened to
    deschedule); set-up is the median over the repeats' interpreters.
    """
    records = [record for output in outputs for record in output["records"]]
    nets = [net for output in outputs for net in output["nets"]]
    ratio, met = quality(records, reference)

    def slowness(output) -> float:
        return sweep_slowness(output) if scaled else 1.0

    def latency_ms(fraction: float) -> float:
        return 1e3 * statistics.mean(
            stats.percentile(rip_design_latencies(o), fraction) / slowness(o) for o in outputs
        )

    return {
        "setup_s": statistics.median(o["setup_s"] / slowness(o) for o in outputs),
        "designs_per_s": sweep_rate(outputs, scaled),
        "latency_p50_ms": latency_ms(0.5),
        "latency_p90_ms": latency_ms(0.9),
        "goodput_frac": sum(1 for net in nets if net["failure_kind"] is None) / len(nets),
        "peak_rss_mb": max(o["rss_kb"] for o in outputs) / 1024.0,
        "rip_width_ratio": ratio,
        "rip_met_frac": met,
    }


def raw_timings(metrics: Dict[str, float], slownesses: Sequence[float]) -> Dict[str, float]:
    """The unscaled timing metrics and the median slowness, for the record."""
    raw = {name: metrics[name] for name in TIMING_METRICS}
    raw["slowness"] = statistics.median(slownesses)
    return raw


def failed_nets(outputs) -> int:
    return sum(1 for o in outputs for net in o["nets"] if net["failure_kind"] is not None)


def task_seconds(output) -> float:
    """Estimated method runtime of a sweep's tasks.

    Every RIP record's runtime includes its net's shared coarse pass, so a
    net's RIP time is its records' sum minus all but one copy of the
    smallest record (an upper bound on the coarse pass).
    """
    total = 0.0
    for net in output["nets"]:
        rip = [
            r["runtime_seconds"]
            for r in output["records"]
            if r["method"] == "rip" and r["net_name"] == net["name"]
        ]
        if rip:
            total += sum(rip) - (len(rip) - 1) * min(rip)
        total += sum(s for method, s in net["method_runtimes"].items() if method != "rip")
    return total


def layer_values(
    totals: LayerTotals,
    *,
    store: Dict[str, int],
    journal_bytes: int = 0,
    recovery: Optional[Dict[str, int]] = None,
    pool_task_s: float = 0.0,
    service: Optional[Dict[str, float]] = None,
    unattributed_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Per-layer metric values from span totals and the program's counters."""
    own = totals.self_s
    calls = totals.calls
    cache = totals.wincache
    dp_busy = sum(totals.dp_s.values())
    lookups = cache.get("frontier_hits", 0) + cache.get("frontier_misses", 0)
    recovery = recovery or {}
    service = service or {}
    pool_s = own.get("engine.supervisor.pool", 0.0)
    return {
        "import.busy_s": own.get("import", 0.0),
        "engine.cache.build_s": own.get("engine.cache.cases", 0.0),
        "engine.cache.builds": store.get("builds", 0),
        "engine.cache.disk_hits": store.get("disk_hits", 0),
        "dp.vanginneken.tau_min_s": own.get("dp.vanginneken.tau_min", 0.0),
        "dp.vanginneken.tau_min_calls": calls.get("dp.vanginneken.tau_min", 0),
        "engine.design.htree_cases_s": own.get("engine.design.htree_cases", 0.0),
        "dp.powerdp.coarse_s": totals.dp_s.get("coarse", 0.0),
        "dp.powerdp.final_s": totals.dp_s.get("final", 0.0),
        "dp.powerdp.baseline_s": totals.dp_s.get("baseline", 0.0),
        "dp.powerdp.calls": calls.get("dp.powerdp.run", 0),
        "dp.powerdp.states": totals.dp_states,
        "dp.powerdp.states_per_s": totals.dp_states / dp_busy if dp_busy else 0.0,
        "core.rip.busy_s": own.get("core.rip.prepare", 0.0) + own.get("core.rip.final", 0.0),
        "core.refine.busy_s": own.get("core.refine.run", 0.0),
        "core.refine.calls": calls.get("core.refine.run", 0),
        "core.refine.iterations": totals.refine_iterations,
        "analytical.width_solver.solves": calls.get("analytical.width_solver.solve", 0),
        "analytical.width_solver.busy_s": own.get("analytical.width_solver.solve", 0.0),
        "tree.buffering.busy_s": own.get("tree.buffering.run", 0.0),
        "tree.buffering.states": totals.tree_states,
        "core.evaluate.busy_s": own.get("core.evaluate", 0.0),
        "core.evaluate.calls": calls.get("core.evaluate", 0),
        "engine.wincache.frontier_hits": cache.get("frontier_hits", 0),
        "engine.wincache.frontier_misses": cache.get("frontier_misses", 0),
        "engine.wincache.disk_hits": cache.get("disk_hits", 0),
        "engine.wincache.disk_misses": cache.get("disk_misses", 0),
        "engine.wincache.hit_ratio": cache.get("frontier_hits", 0) / lookups if lookups else 0.0,
        "engine.wincache.lookup_s": own.get("engine.wincache.lookup", 0.0),
        "core.refine.store_load_s": own.get("core.refine.store_load", 0.0),
        "core.refine.store_save_s": own.get("core.refine.store_save", 0.0),
        "engine.supervisor.journal_s": own.get("engine.supervisor.journal", 0.0)
        + own.get("engine.supervisor.journal_record", 0.0),
        "engine.supervisor.journal_entries": calls.get("engine.supervisor.journal_record", 0),
        "engine.supervisor.journal_bytes": journal_bytes,
        "engine.shm.publish_s": own.get("engine.shm.publish", 0.0),
        "engine.shm.bytes": totals.shm_bytes,
        "engine.supervisor.pool_s": pool_s,
        "engine.supervisor.pool_overhead_s": pool_s - pool_task_s if pool_s else 0.0,
        "engine.supervisor.rebuilds": recovery.get("rebuilds", 0),
        "engine.supervisor.retries": recovery.get("retries", 0),
        "service.schema.parse_s": own.get("service.schema.parse", 0.0),
        "service.schema.calls": calls.get("service.schema.parse", 0),
        "service.batcher.batches": service.get("batches", 0),
        "service.batcher.batch_size_mean": service.get("batch_size_mean", 0.0),
        "service.batcher.dedup": service.get("dedup", 0),
        "service.batcher.engine_s": service.get("engine_s", 0.0),
        "service.batcher.queue_wait_ms": (
            1e3 * stats.percentile(totals.queue_waits, 0.5)
            if len(totals.queue_waits) >= 2 * stats.MIN_TAIL_SAMPLES
            else 0.0
        ),
        "engine.design.failed_nets": totals.failed_nets,
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_s": unattributed_s,
    }


def sweep_layers(outputs, untraced_rate: float) -> Dict[str, float]:
    """Per-layer values of a traced sweep pass (spans summed over children)."""
    totals = EMPTY_TOTALS
    store: Dict[str, int] = {}
    recovery: Dict[str, int] = {}
    pool_task_s = 0.0
    for output in outputs:
        totals = totals.merged(reduce_spans(output["spans"]))
        for key, value in output["store"].items():
            store[key] = store.get(key, 0) + value
        for key in ("rebuilds", "retries"):
            recovery[key] = recovery.get(key, 0) + output["recovery"][key]
        if output["workers"] > 1:
            pool_task_s += task_seconds(output) / output["workers"]
    traced_rate = sweep_rate(outputs)
    return layer_values(
        totals,
        store=store,
        journal_bytes=sum(o["journal_bytes"] for o in outputs),
        recovery=recovery,
        pool_task_s=pool_task_s,
        unattributed_s=totals.root_self_s,
        overhead_frac=1.0 - traced_rate / untraced_rate,
    )


# --------------------------------------------------------------------------- #
# sweep_cold
# --------------------------------------------------------------------------- #
def cold_job(bench: BenchRun, specs, trace: bool) -> Dict[str, Any]:
    return {
        "cache_dir": str(bench.fresh_dir("cold")),
        "nets": inputs.specs_to_json(specs),
        "htrees": COLD_HTREES,
        "methods": list(COLD_METHODS),
        "workers": 0,
        "trace": trace,
    }


def sweep_cold(bench: BenchRun, trace: bool) -> Outcome:
    """Cold ``rip sweep --cache-dir <new dir>`` runs until the time is up.

    Each repeat is a fresh interpreter on a fresh design-state directory
    with its own stratified population; the last repeat re-runs the first
    population as the output check.
    """
    populations = []
    outputs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(outputs) < MIN_REPEATS or time.perf_counter() - started < bench.seconds:
        specs = inputs.stratified_specs(bench.seed, f"cold{len(outputs)}", COLD_SLOTS)
        populations.append(specs)
        outputs.append(bench.run_program(cold_job(bench, specs, trace=False)))

    # The output check is one more measured repeat: population 0 again, on
    # a fresh directory in a fresh interpreter, must give the same records.
    repeat = bench.run_program(cold_job(bench, populations[0], trace=False))
    populations.append(populations[0])
    outputs.append(repeat)
    problems: List[str] = []
    if digest(repeat["records"]) != digest(outputs[0]["records"]):
        problems.append("sweep_cold: a repeated cold sweep produced different records")
    outcome = Outcome(
        metrics=sweep_metrics(outputs),
        attempted=sum(len(o["nets"]) for o in outputs),
        failed=failed_nets(outputs) + len(problems),
        problems=problems,
        raw=raw_timings(sweep_metrics(outputs, scaled=False), [sweep_slowness(o) for o in outputs]),
    )
    if trace:
        traced = [bench.run_program(cold_job(bench, specs, trace=True)) for specs in populations]
        outcome.layers = sweep_layers(traced, outcome.metrics["designs_per_s"])
    return outcome


# --------------------------------------------------------------------------- #
# sweep_restart
# --------------------------------------------------------------------------- #
def restart_job(specs, cache_dir: Path, workers: int, trace: bool) -> Dict[str, Any]:
    return {
        "cache_dir": str(cache_dir),
        "nets": inputs.specs_to_json(specs),
        "htrees": 0,
        "methods": ["rip"],
        "workers": workers,
        "trace": trace,
    }


def sweep_restart(bench: BenchRun, trace: bool) -> Outcome:
    """Restarted pooled sweeps over a copy of one filled design-state dir."""
    specs = inputs.stratified_specs(bench.seed, "restart", RESTART_SLOTS)
    fixture_dir = bench.fresh_dir("fixture")
    # The fixture is untimed: two workers fill it (records do not depend
    # on the worker count; the restarts check that they equal its own).
    fixture_job = restart_job(specs, fixture_dir, RESTART_WORKERS, trace=False)
    fixture = bench.run_program({**fixture_job, "reference": ["dp-g10"]})
    expected = digest(fixture["records"])

    def restarts(traced: bool, count: Optional[int] = None):
        """``count`` restarts, or (``None``) as many as the time allows."""
        outputs = []
        started = time.perf_counter()

        def more() -> bool:
            if count is not None:
                return len(outputs) < count
            elapsed = time.perf_counter() - started
            return len(outputs) < RESTART_MIN_REPEATS or elapsed < bench.seconds

        while more():
            copy = bench.work / f"restart-{len(outputs)}-{int(traced)}"
            shutil.copytree(fixture_dir, copy)
            outputs.append(bench.run_program(restart_job(specs, copy, RESTART_WORKERS, traced)))
            shutil.rmtree(copy)
        return outputs

    outputs = restarts(traced=False)
    problems = []
    for index, output in enumerate(outputs):
        if digest(output["records"]) != expected:
            problems.append(f"sweep_restart: restart {index} records differ from the fixture's")
        if not output["window_cache"] or output["window_cache"]["disk_hits"] == 0:
            problems.append(f"sweep_restart: restart {index} had no window-cache disk hits")
        if output["store"]["builds"] != 0:
            problems.append(f"sweep_restart: restart {index} rebuilt its population")
    reference = fixture["reference_records"]
    outcome = Outcome(
        metrics=sweep_metrics(outputs, reference),
        attempted=sum(len(o["nets"]) for o in outputs),
        failed=failed_nets(outputs) + len(problems),
        problems=problems,
        raw=raw_timings(
            sweep_metrics(outputs, reference, scaled=False), [sweep_slowness(o) for o in outputs]
        ),
    )
    if trace:
        traced = restarts(traced=True, count=len(outputs))
        outcome.layers = sweep_layers(traced, outcome.metrics["designs_per_s"])
    return outcome


# --------------------------------------------------------------------------- #
# serve_closed
# --------------------------------------------------------------------------- #
class Daemon:
    """A ``rip serve`` subprocess: spawn until readiness, SIGTERM, reap."""

    def __init__(self, spans_path: Optional[Path]) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(LAUNCHER), str(spans_path), "--port", "0"]
        self.rss_kb = 0
        self.returncode: Optional[int] = None
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT)
        )
        killer = threading.Timer(60.0, self.process.kill)
        killer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            killer.cancel()
        self.setup_s = time.perf_counter() - started
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"rip serve did not become ready: {line.strip()!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        # Nothing else is printed; drain anyway so the pipe can never fill.
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()

    def stop(self) -> int:
        """Read the daemon's peak RSS, then SIGTERM and reap it."""
        if self.returncode is not None:
            return self.returncode
        self.rss_kb = peak_rss_kb(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.returncode = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.returncode = self.process.wait()
        return self.returncode

    def get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def post(self, requests: List[Dict[str, Any]]) -> List[Tuple[float, Dict[str, Any]]]:
        """One NDJSON envelope; returns (seconds since send, line) per line."""
        body = json.dumps({"requests": requests}).encode("utf-8")
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            sent = time.perf_counter()
            connection.request(
                "POST", "/design", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            lines = []
            for raw in response:
                lines.append((time.perf_counter() - sent, json.loads(raw)))
            return lines
        finally:
            connection.close()


def serve_request(spec: inputs.NetSpec) -> Dict[str, Any]:
    """A ``rip`` request for ``spec``'s net at the served ladder targets."""
    from repro.engine.cache import ProtocolStore
    from repro.net.io import net_to_dict

    (case,) = inputs.build_cases(ProtocolStore(), [spec])
    return {
        "tenant": "bench",
        "methods": ["rip"],
        "net": net_to_dict(case.net),
        "targets": [case.targets[i] for i in SERVE_TARGET_INDEXES],
        "tau_min": case.tau_min,
    }


def fresh_request(seed: int, index: int) -> Dict[str, Any]:
    """First-contact request ``index``: segment counts and length slots in turn."""
    segments = inputs.SEGMENT_COUNTS[index % len(inputs.SEGMENT_COUNTS)]
    slot = (index // len(inputs.SEGMENT_COUNTS)) % SERVE_NEW_SLOTS
    reference = inputs.reference_lengths(segments, SERVE_NEW_SLOTS)[slot]
    return serve_request(inputs.pick(seed, f"new{index}", segments, slot, reference))


def hot_requests() -> List[Dict[str, Any]]:
    """The fixed hot set: one median-length net per segment count."""
    return [serve_request(spec) for spec in inputs.stratified_specs(SERVE_HOT_SEED, "hot", 1)]


def in_two_processes(function, arguments: Sequence[tuple]) -> list:
    """``[function(*a) for a in arguments]``, computed by two forked processes."""
    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        return pool.starmap(function, arguments, chunksize=max(1, len(arguments) // 8))
    finally:
        pool.close()
        pool.join()


def top_up(fresh: List[Dict[str, Any]], seed: int, count: int) -> None:
    """Extend the seeded first-contact pool ``fresh`` to ``count`` requests.

    Two processes build them: their tau_min searches are most of a run's
    untimed preparation.
    """
    if len(fresh) < count:
        fresh += in_two_processes(fresh_request, [(seed, i) for i in range(len(fresh), count)])


class ClosedLoad:
    """``SERVE_CLIENTS`` closed-loop clients on one daemon, run in rounds.

    Each client sends its next envelope when the reply to its last one has
    arrived.  A round ends when every client has had its last reply, so the
    daemon is idle between rounds, where the reference workload is timed.
    Envelopes continue across rounds: the first-contact nets are never
    sent twice.
    """

    def __init__(self, daemon: Daemon, hot, fresh) -> None:
        self.daemon = daemon
        self.hot = hot
        self.fresh = fresh
        self.envelopes = [0] * SERVE_CLIENTS
        self.sent: List[Dict[str, Any]] = []
        #: (seconds from send to line, round index, line with its request body)
        self.lines: List[Tuple[float, int, Dict[str, Any]]] = []
        self.errors: List[str] = []
        #: (start, end) of every round.
        self.rounds: List[Tuple[float, float]] = []

    def fresh_sent(self) -> int:
        """First-contact nets the furthest client has taken from the pool."""
        return SERVE_CLIENTS * max(self.envelopes) * SERVE_NEW_PER_ENVELOPE

    def run_round(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        index = len(self.rounds)

        def client(number: int) -> None:
            try:
                while time.perf_counter() < deadline:
                    envelope = SERVE_CLIENTS * self.envelopes[number] + number
                    first = envelope * SERVE_NEW_PER_ENVELOPE
                    if first + SERVE_NEW_PER_ENVELOPE > len(self.fresh):
                        self.errors.append(
                            f"client {number}: the {len(self.fresh)} first-contact nets ran "
                            f"out {deadline - time.perf_counter():.1f} s before the end of "
                            f"round {index}"
                        )
                        break
                    base = envelope * SERVE_HOT_PER_ENVELOPE
                    requests = [
                        self.hot[(base + i) % len(self.hot)]
                        for i in range(SERVE_HOT_PER_ENVELOPE)
                    ]
                    requests += self.fresh[first:first + SERVE_NEW_PER_ENVELOPE]
                    self.sent.extend(requests)
                    self.lines.extend(
                        (latency, index, {**line, "body": requests[line["index"]]})
                        for latency, line in self.daemon.post(requests)
                    )
                    self.envelopes[number] += 1
            except Exception as error:  # reported as a failed check, not a crash
                self.errors.append(f"client {number}: {type(error).__name__}: {error}")

        threads = [threading.Thread(target=client, args=(n,)) for n in range(SERVE_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.rounds.append((started, time.perf_counter()))


@dataclass
class ServeRun:
    """One measured load on one daemon."""

    #: (raw spawn-to-ready seconds, slowness) of every daemon spawned.
    setups: List[Tuple[float, float]]
    load: ClosedLoad
    #: Slowness of every round of the load.
    slowness: List[float]
    metrics_before: Dict[str, Any]
    metrics_after: Dict[str, Any]
    rss_kb: int
    spans: Optional[list]

    def busy_s(self, scaled: bool = True) -> float:
        """Seconds of load, summed over the rounds."""
        return sum(
            (end - start) / (slow if scaled else 1.0)
            for (start, end), slow in zip(self.load.rounds, self.slowness)
        )

    def designs_per_s(self, scaled: bool = True) -> float:
        records = sum(
            len(line["records"]) for _, _, line in self.load.lines if line["status"] == "ok"
        )
        return records / self.busy_s(scaled)


def setup_samples(calibration: calibrate.Calibration, count: int) -> List[Tuple[float, float]]:
    """(Spawn-to-ready seconds, slowness) of ``count`` daemons that serve nothing."""
    setups = []
    for _ in range(count):
        calibration.start()
        daemon = Daemon(None)
        setups.append((daemon.setup_s, calibration.stop()))
        daemon.stop()
    return setups


def serve_pass(bench: BenchRun, hot, fresh, spans_path: Optional[Path] = None) -> ServeRun:
    """Set-up samples, the warm-up, one measured load and (traced) the spans.

    The untraced pass spawns extra daemons, before and after the load, only
    to sample set-up time; the traced pass runs the daemon through the
    tracing launcher.  The load runs in rounds of about
    :data:`SERVE_ROUND_S`, each preceded by a top-up of the first-contact
    pool ``fresh`` and bracketed by reference timings.
    """
    calibration = calibrate.Calibration()
    extra = SERVE_SETUP_SAMPLES - 1 if spans_path is None else 0
    setups = setup_samples(calibration, extra // 2)
    calibration.start()
    daemon = Daemon(spans_path)
    setups.append((daemon.setup_s, calibration.stop()))
    load = ClosedLoad(daemon, hot, fresh)
    slowness: List[float] = []
    try:
        warm = daemon.post(hot)
        before = daemon.get("/metrics")
        rounds = max(1, round(bench.seconds / SERVE_ROUND_S))
        round_s = bench.seconds / rounds
        for _ in range(rounds):
            top_up(fresh, bench.seed, load.fresh_sent() + int(SERVE_NEW_PER_SECOND * round_s))
            calibration.forget()
            calibration.start()
            load.run_round(round_s)
            slowness.append(calibration.stop())
        after = daemon.get("/metrics")
    finally:
        code = daemon.stop()
    if code != 0:
        load.errors.append(f"rip serve exited {code} on SIGTERM")
    setups += setup_samples(calibration, extra - extra // 2)
    if len(warm) != len(hot) or any(line["status"] != "ok" for _, line in warm):
        load.errors.append("hot-set warm-up did not return every net ok")
    spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path else None
    return ServeRun(setups, load, slowness, before, after, daemon.rss_kb, spans)


def serve_oracle(requests) -> Dict[str, list]:
    """Stripped records of direct serial ``design_population`` calls, by digest.

    The distinct requests are split in two halves, each designed by one
    serial engine in its own process.
    """
    from repro.service.schema import parse_request

    unique = {}
    for body in requests:
        unique.setdefault(parse_request(body).digest, body)
    bodies = list(unique.values())
    halves = [(bodies[: len(bodies) // 2],), (bodies[len(bodies) // 2 :],)]
    oracle: Dict[str, list] = {}
    for part in in_two_processes(serial_records, [half for half in halves if half[0]]):
        oracle.update(part)
    return oracle


def serial_records(bodies) -> Dict[str, list]:
    """Stripped records of one serial ``design_population`` of ``bodies``, by digest."""
    from repro.engine.cache import ProtocolStore
    from repro.engine.design import DesignEngine
    from repro.service.schema import parse_request
    from repro.tech.nodes import NODE_180NM

    parsed = [parse_request(body) for body in bodies]
    engine = DesignEngine(NODE_180NM, workers=0, store=ProtocolStore())
    try:
        population = engine.design_population(
            [request.case for request in parsed], parsed[0].methods()
        )
    finally:
        engine.close()
    return {
        request.digest: stripped([asdict(record) for record in net.records])
        for request, net in zip(parsed, population.nets)
    }


def serve_reference(hot) -> List[Dict[str, Any]]:
    """dp-g10 records of the hot set at the served targets (quality base)."""
    from repro.engine.cache import ProtocolStore
    from repro.engine.design import DesignEngine
    from repro.service.schema import method_spec, parse_request
    from repro.tech.nodes import NODE_180NM

    engine = DesignEngine(NODE_180NM, workers=0, store=ProtocolStore())
    try:
        population = engine.design_population(
            [parse_request(body).case for body in hot], [method_spec("dp-g10")]
        )
    finally:
        engine.close()
    return [asdict(record) for record in population.records()]


def serve_metrics(run: ServeRun, hot, reference, scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics of a load; timings scaled by their slowness.

    A latency is scaled by the slowness of its round, a set-up time by that
    of its spawn; the percentiles are taken over every line of the load.
    """
    lines = run.load.lines
    slowness = run.slowness if scaled else [1.0] * len(run.slowness)
    latencies = [latency / slowness[index] for latency, index, _ in lines]
    ok = [line for _, _, line in lines if line["status"] == "ok"]
    records = [record for line in ok for record in line["records"]]
    hot_names = {body["net"]["name"] for body in hot}
    hot_records = {
        (r["net_name"], r["target"]): r for r in records if r["net_name"] in hot_names
    }
    ratio, _ = quality(list(hot_records.values()), reference)
    _, met = quality(records, reference)
    return {
        "setup_s": statistics.median(
            seconds / (slow if scaled else 1.0) for seconds, slow in run.setups
        ),
        "designs_per_s": run.designs_per_s(scaled),
        "latency_p50_ms": 1e3 * stats.percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * stats.percentile(latencies, 0.9),
        "goodput_frac": sum(
            1
            for latency, _, line in lines
            if line["status"] == "ok" and latency <= SERVE_LATENCY_LIMIT_S
        )
        / len(run.load.sent),
        "peak_rss_mb": run.rss_kb / 1024.0,
        "rip_width_ratio": ratio,
        "rip_met_frac": met,
    }


def serve_checks(run: ServeRun) -> Tuple[List[str], int]:
    """Every request answered once, ``ok``, and equal to a serial sweep.

    Returns the problems and the number of failed requests.
    """
    from repro.service.schema import parse_request

    load = run.load
    problems = [f"serve_closed: {error}" for error in load.errors]
    missing = max(0, len(load.sent) - len(load.lines))
    if len(load.lines) != len(load.sent):
        problems.append(
            f"serve_closed: {len(load.sent)} requests sent, {len(load.lines)} lines back"
        )
    oracle = serve_oracle(load.sent)
    failed = missing
    for _, _, line in load.lines:
        if line["status"] != "ok":
            problems.append(f"serve_closed: line status {line['status']}: {line.get('error')}")
        elif stripped(line["records"]) != oracle[parse_request(line["body"]).digest]:
            problems.append(f"serve_closed: records of {line['net']} differ from a serial sweep")
        else:
            continue
        failed += 1
    return problems, failed + len(load.errors)


def serve_layers(run: ServeRun, untraced_rate: float) -> Dict[str, float]:
    """Per-layer values of a traced load: the daemon's spans in the window."""
    # Import happens before the load window; every other span is counted
    # only inside it (warm-up and shutdown are not part of the load).
    imports = [span for span in run.spans if span[2] == "import"]
    window = (run.load.rounds[0][0], run.load.rounds[-1][1])
    totals = reduce_spans(imports).merged(reduce_spans(run.spans, window))
    named = sum(
        seconds
        for name, seconds in totals.self_s.items()
        if name not in ("engine.design", "import")
    )
    before, after = run.metrics_before, run.metrics_after
    batches = after["batches_drained"] - before["batches_drained"]
    served = after["requests_served"] - before["requests_served"]
    service = {
        "batches": batches,
        "batch_size_mean": served / batches if batches else 0.0,
        "dedup": after["requests_deduplicated"] - before["requests_deduplicated"],
        "engine_s": after["engine"]["wall_clock_seconds"]
        - before["engine"]["wall_clock_seconds"],
    }
    # Requests carry their own tau_min, so the daemon's protocol store
    # neither builds nor loads a population: these stay 0.
    store = {key: after["store"][key] - before["store"][key] for key in after["store"]}
    return layer_values(
        totals,
        store=store,
        recovery={
            key: after["recovery"][key] - before["recovery"][key]
            for key in ("rebuilds", "retries")
        },
        service=service,
        unattributed_s=run.busy_s(scaled=False) - named,
        overhead_frac=1.0 - run.designs_per_s() / untraced_rate,
    )


def serve_closed(bench: BenchRun, trace: bool) -> Outcome:
    """A closed-loop client load on a real ``rip serve`` daemon."""
    hot: List[Dict[str, Any]] = hot_requests()
    fresh: List[Dict[str, Any]] = []
    run = serve_pass(bench, hot, fresh)
    reference = serve_reference(hot)
    metrics = serve_metrics(run, hot, reference)
    problems, failed = serve_checks(run)
    outcome = Outcome(
        metrics=metrics,
        attempted=len(run.load.sent),
        failed=failed,
        problems=problems,
        raw=raw_timings(
            serve_metrics(run, hot, reference, scaled=False),
            run.slowness + [slow for _, slow in run.setups],
        ),
    )
    if trace:
        traced = serve_pass(bench, hot, fresh, bench.work / "serve-spans.json")
        outcome.layers = serve_layers(traced, metrics["designs_per_s"])
    return outcome


WORKLOADS = {
    "sweep_cold": sweep_cold,
    "sweep_restart": sweep_restart,
    "serve_closed": serve_closed,
}
