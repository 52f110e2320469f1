"""Span tracing of the program from the benchmark's own files.

:func:`install` patches the program's public entry points (class methods
and module-level name bindings) with wrappers that record one span per
call into a :class:`SpanRecorder`: name, start, end, parent span and a few
attributes read off the call's result.  Spans stay in memory until the run
ends.  :func:`self_times` reduces them to per-span self time (duration
minus the part covered by child spans) and :func:`layer_metrics` to the
per-layer metrics the benchmark prints with ``--trace 1``.

Only the process that installs the wrappers is traced: pooled workers
report through the program's own counters instead.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: A recorded span: id, parent id (0 = root), name, start, end, attributes.
Span = tuple


class SpanRecorder:
    """In-memory span sink; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its attribute dict."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        attrs: Dict[str, Any] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, attrs))


# --------------------------------------------------------------------------- #
# what gets wrapped
# --------------------------------------------------------------------------- #
def _states(result, _args) -> Dict[str, Any]:
    return {"states": result.statistics.states_generated}


def _iterations(result, _args) -> Dict[str, Any]:
    return {"iterations": result.iterations}


def _tree_states(result, _args) -> Dict[str, Any]:
    statistics = result[0].statistics if result else None
    return {"states": statistics.states_generated if statistics is not None else 0}


def _shm_bytes(result, _args) -> Dict[str, Any]:
    try:
        return {"bytes": os.stat(os.path.join("/dev/shm", result.name)).st_size}
    except OSError:
        return {"bytes": 0}


def _design_call(result, args) -> Dict[str, Any]:
    cases = args[1] if len(args) > 1 else None
    window_cache = result.statistics.window_cache
    return {
        "cases": [id(case) for case in cases or ()],
        "wincache": asdict(window_cache) if window_cache is not None else {},
        "failed": len(result.failures()),
    }


def _submitted(_result, args) -> Dict[str, Any]:
    request = args[1]
    return {"case": id(request.case), "digest": request.digest}


@dataclass(frozen=True)
class Wrap:
    """One patch site: ``module.attribute`` (``Class.method`` or a name)."""

    module: str
    attribute: str
    span: str
    attrs: Optional[Callable[[Any, tuple], Dict[str, Any]]] = None


WRAPS: Sequence[Wrap] = (
    Wrap("repro.engine.design", "DesignEngine.design_population", "engine.design", _design_call),
    Wrap("repro.engine.design", "build_htree_cases", "engine.design.htree_cases"),
    Wrap("repro.engine.cache", "ProtocolStore.cases", "engine.cache.cases"),
    Wrap("repro.dp.vanginneken", "DelayOptimalDp.minimum_delay", "dp.vanginneken.tau_min"),
    Wrap("repro.dp.powerdp", "PowerAwareDp.run", "dp.powerdp.run", _states),
    Wrap("repro.core.rip", "Rip.prepare", "core.rip.prepare"),
    Wrap("repro.core.rip", "Rip.run_prepared", "core.rip.final"),
    Wrap("repro.core.rip", "Rip.run_prepared_batch", "core.rip.final"),
    Wrap("repro.core.rip", "evaluate_solution", "core.evaluate"),
    Wrap("repro.core.refine", "Refine.run", "core.refine.run", _iterations),
    Wrap("repro.core.refine", "RefineRecordStore.load", "core.refine.store_load"),
    Wrap("repro.core.refine", "RefineRecordStore.save", "core.refine.store_save"),
    Wrap(
        "repro.analytical.width_solver",
        "DualBisectionWidthSolver.solve",
        "analytical.width_solver.solve",
    ),
    Wrap("repro.tree.buffering", "TreePowerDp.run_many", "tree.buffering.run", _tree_states),
    Wrap("repro.engine.wincache", "WindowCompilationCache.final_dp_result", "engine.wincache.lookup"),
    Wrap("repro.engine.wincache", "WindowCompilationCache.compiled", "engine.wincache.lookup"),
    Wrap("repro.engine.wincache", "WindowCompilationCache.tree_solutions", "engine.wincache.lookup"),
    Wrap("repro.engine.supervisor", "SweepJournal.begin", "engine.supervisor.journal"),
    Wrap("repro.engine.supervisor", "SweepJournal.record", "engine.supervisor.journal_record"),
    Wrap("repro.engine.supervisor", "SweepJournal.close", "engine.supervisor.journal"),
    Wrap("repro.engine.supervisor", "SupervisedExecutor.run", "engine.supervisor.pool"),
    Wrap("repro.engine.shm", "SharedPopulationArena.publish", "engine.shm.publish", _shm_bytes),
    Wrap("repro.service.server", "parse_request", "service.schema.parse"),
    Wrap("repro.service.batcher", "MicroBatcher.submit", "service.batcher.submit", _submitted),
)


def _wrapper(recorder: SpanRecorder, wrap: Wrap, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with recorder.span(wrap.span) as attrs:
            result = function(*args, **kwargs)
            if wrap.attrs is not None:
                attrs.update(wrap.attrs(result, args))
            return result

    return traced


def install(recorder: SpanRecorder, wraps: Iterable[Wrap] = WRAPS) -> Callable[[], None]:
    """Patch every site of ``wraps``; returns the function that undoes it.

    Only modules the process has already imported are patched, so tracing
    a sweep does not import the service modules.
    """
    undo: List[Callable[[], None]] = []
    for wrap in wraps:
        module = sys.modules.get(wrap.module)
        if module is None:
            continue
        owner: Any = module
        *path, name = wrap.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(_wrapper(recorder, wrap, raw.__func__))
        else:
            patched = _wrapper(recorder, wrap, raw)
        setattr(owner, name, patched)
        undo.append(functools.partial(setattr, owner, name, raw))
    return lambda: [restore() for restore in reversed(undo)]


# --------------------------------------------------------------------------- #
# reduction
# --------------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Child intervals are merged and clipped to the parent's interval, so
    overlapping or over-running children are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    for span_id, parent, _name, start, end, _attrs in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _parent, _name, start, end, _attrs in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            low = max(child_start, cursor)
            high = min(child_end, end)
            if high > low:
                covered += high - low
                cursor = high
        result[span_id] = (end - start) - covered
    return result


#: The enclosing RIP phase that decides what a power-aware DP run is for.
_DP_PURPOSE = {"core.rip.prepare": "coarse", "core.rip.final": "final"}


def dp_purpose(spans_by_id: Dict[int, Span], span: Span) -> str:
    """``coarse``/``final`` under a RIP phase, else ``baseline`` (a dp method)."""
    parent = span[1]
    while parent:
        ancestor = spans_by_id.get(parent)
        if ancestor is None:
            break
        purpose = _DP_PURPOSE.get(ancestor[2])
        if purpose is not None:
            return purpose
        parent = ancestor[1]
    return "baseline"


def queue_waits(spans: Sequence[Span]) -> List[float]:
    """Seconds from ``MicroBatcher.submit`` to the sweep carrying the request.

    Events are replayed in time order; a request is alive (and its case's
    ``id`` unique) from its submit until its sweep ends, so the live
    ``id -> digest`` map is unambiguous at every sweep start.
    """
    events = []
    for _span_id, _parent, name, start, end, attrs in spans:
        if name == "service.batcher.submit":
            events.append((end, 0, attrs))
        elif name == "engine.design":
            events.append((start, 1, attrs))
    events.sort(key=lambda event: (event[0], event[1]))
    digest_of: Dict[int, str] = {}
    pending: Dict[str, List[float]] = {}
    waits: List[float] = []
    for moment, kind, attrs in events:
        if kind == 0:
            digest_of[attrs["case"]] = attrs["digest"]
            pending.setdefault(attrs["digest"], []).append(moment)
            continue
        for case_id in attrs.get("cases", ()):
            digest = digest_of.pop(case_id, None)
            for submitted in pending.pop(digest, ()):
                waits.append(moment - submitted)
    return waits


@dataclass
class LayerTotals:
    """Span-derived totals of one traced process (summable across children)."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    dp_s: Dict[str, float]
    dp_states: int
    refine_iterations: int
    tree_states: int
    shm_bytes: int
    root_self_s: float
    queue_waits: List[float]
    wincache: Dict[str, int]
    failed_nets: int

    def merged(self, other: "LayerTotals") -> "LayerTotals":
        def add(left, right):
            return {key: left.get(key, 0) + right.get(key, 0) for key in {*left, *right}}

        return LayerTotals(
            self_s=add(self.self_s, other.self_s),
            calls=add(self.calls, other.calls),
            dp_s=add(self.dp_s, other.dp_s),
            dp_states=self.dp_states + other.dp_states,
            refine_iterations=self.refine_iterations + other.refine_iterations,
            tree_states=self.tree_states + other.tree_states,
            shm_bytes=self.shm_bytes + other.shm_bytes,
            root_self_s=self.root_self_s + other.root_self_s,
            queue_waits=self.queue_waits + other.queue_waits,
            wincache=add(self.wincache, other.wincache),
            failed_nets=self.failed_nets + other.failed_nets,
        )


EMPTY_TOTALS = LayerTotals({}, {}, {}, 0, 0, 0, 0, 0.0, [], {}, 0)


def reduce_spans(
    spans: Sequence[Span], window: Optional[tuple] = None
) -> LayerTotals:
    """Sum self time and call counts per span name (optionally in a window).

    ``window=(start, end)`` keeps only spans that start inside it (the
    service's load window; the daemon's spans before and after it belong
    to warm-up and shutdown).
    """
    spans = [tuple(span) for span in spans]
    if window is not None:
        spans = [span for span in spans if window[0] <= span[3] <= window[1]]
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    dp_s: Dict[str, float] = {}
    dp_states = iterations = tree_states = shm_bytes = failed = 0
    root_self = 0.0
    wincache: Dict[str, int] = {}
    for span in spans:
        span_id, parent, name, _start, _end, attrs = span
        self_s[name] = self_s.get(name, 0.0) + selfs[span_id]
        calls[name] = calls.get(name, 0) + 1
        if name == "dp.powerdp.run":
            purpose = dp_purpose(by_id, span)
            dp_s[purpose] = dp_s.get(purpose, 0.0) + selfs[span_id]
            dp_states += attrs.get("states", 0)
        elif name == "core.refine.run":
            iterations += attrs.get("iterations", 0)
        elif name == "tree.buffering.run":
            tree_states += attrs.get("states", 0)
        elif name == "engine.shm.publish":
            shm_bytes += attrs.get("bytes", 0)
        elif name == "engine.design" and not parent:
            root_self += selfs[span_id]
            failed += attrs.get("failed", 0)
            for key, value in attrs.get("wincache", {}).items():
                wincache[key] = wincache.get(key, 0) + value
    return LayerTotals(
        self_s=self_s,
        calls=calls,
        dp_s=dp_s,
        dp_states=dp_states,
        refine_iterations=iterations,
        tree_states=tree_states,
        shm_bytes=shm_bytes,
        root_self_s=root_self,
        queue_waits=queue_waits(spans),
        wincache=wincache,
        failed_nets=failed,
    )
