"""The benchmark's own tests: inputs, statistics, metric catalogue, tracing.

Run with ``python3 -m pytest ripbench`` from the checkout root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from collections import Counter

import pytest

from ripbench import ROOT, SRC, peak_rss_kb

sys.path.insert(0, str(SRC))

from ripbench import calibrate, inputs, metrics, stats, tracing, workloads  # noqa: E402
from repro.engine.cache import ProtocolStore  # noqa: E402
from repro.net.io import net_to_dict  # noqa: E402


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def test_inputs_are_identical_for_one_seed():
    first = inputs.stratified_specs(7, "cold0", 1)
    second = inputs.stratified_specs(7, "cold0", 1)
    assert first == second
    nets_a = [net_to_dict(c.net) for c in inputs.build_cases(ProtocolStore(), first)]
    nets_b = [net_to_dict(c.net) for c in inputs.build_cases(ProtocolStore(), second)]
    assert nets_a == nets_b


def test_strata_are_equal_across_seeds():
    per_seed = [inputs.stratified_specs(seed, "cold0", 2) for seed in (1, 2, 3)]
    counts = [Counter(spec.segments for spec in specs) for specs in per_seed]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0] == {segments: 2 for segments in inputs.SEGMENT_COUNTS}
    # The seed changes the nets, not the strata.
    assert {spec.seed for spec in per_seed[0]}.isdisjoint(spec.seed for spec in per_seed[1])


def test_store_builds_the_picked_net_with_its_stratum_and_length():
    specs = inputs.stratified_specs(5, "restart", 3)
    cases = inputs.build_cases(ProtocolStore(), specs)
    for spec, case in zip(specs, cases):
        slot = int(spec.name.rsplit("q", 1)[1])
        reference = inputs.reference_lengths(spec.segments, 3)[slot]
        assert case.net.num_segments == spec.segments
        assert case.net.name == spec.name
        assert inputs.routable_length(case.net) == pytest.approx(reference, rel=0.1)
        assert len(case.targets) == inputs.TARGETS_PER_NET


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def test_percentile_refuses_p90_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        stats.percentile(list(range(90)), 0.9)
    assert stats.percentile([float(v) for v in range(100)], 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 0.5)
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 1.0)
    assert stats.percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0


def test_calibration_scales_by_the_reference_and_reuses_it(monkeypatch):
    timings = iter([0.07, 0.035, 0.0525, 0.021, 0.035])
    monkeypatch.setattr(calibrate, "reference_seconds", lambda: next(timings))
    calibration = calibrate.Calibration()
    with pytest.raises(RuntimeError):
        calibration.stop()
    calibration.start()
    assert calibration.stop() == pytest.approx(1.5)  # (0.07 + 0.035) / 2 / 0.035
    calibration.start()  # reuses the 0.035 the last interval ended with
    assert calibration.stop() == pytest.approx(1.25)
    calibration.forget()
    calibration.start()  # times the reference anew: 0.021
    assert calibration.stop() == pytest.approx(0.8)


def test_reference_is_timed_in_forked_processes():
    assert 0.0 < calibrate.reference_seconds() < 60.0


# --------------------------------------------------------------------------- #
# metric catalogue
# --------------------------------------------------------------------------- #
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_workloads_and_bounds():
    config = _benchmark_json()
    assert {entry["name"] for entry in config["workloads"]} == set(workloads.WORKLOADS)
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _record(net, method, target, width, runtime=0.01, feasible=True):
    return {
        "net_name": net,
        "method": method,
        "target": target,
        "feasible": feasible,
        "total_width": width,
        "runtime_seconds": runtime,
    }


def test_every_metric_is_printed_with_its_unit():
    records = [_record(f"n{i}", "rip", 1.0, 9.0, runtime=0.001 * i) for i in range(120)]
    records += [_record(f"n{i}", "dp-g10", 1.0, 10.0) for i in range(120)]
    output = {
        "records": records,
        "nets": [{"failure_kind": None, "method_runtimes": {}}],
        "num_designs": 240,
        "design_s": 2.0,
        "rss_kb": 2048,
        "setup_s": 0.6,
        # Reference timings of a host 1.5x slower than the reference one.
        "reference_s": [1.4 * calibrate.REFERENCE_S, 1.6 * calibrate.REFERENCE_S],
    }
    end_to_end = workloads.sweep_metrics([output])
    assert end_to_end["rip_width_ratio"] == pytest.approx(0.9)
    assert end_to_end["setup_s"] == pytest.approx(0.4)
    assert end_to_end["designs_per_s"] == pytest.approx(180.0)
    assert workloads.sweep_metrics([output], scaled=False)["designs_per_s"] == 120.0
    layers = workloads.layer_values(
        tracing.EMPTY_TOTALS, store={}, unattributed_s=0.1, overhead_frac=0.01
    )
    config = _benchmark_json()
    for values, trace, section in ((end_to_end, False, "end_to_end"), (layers, True, "per_layer")):
        line = json.loads(
            metrics.result_line(values, trace=trace, attempted=1, failed=0, correct=True)
        )
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for entry in config[section]:
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    missing = dict(end_to_end)
    missing.pop("setup_s")
    with pytest.raises(ValueError):
        metrics.result_line(missing, trace=False, attempted=1, failed=0, correct=True)


def test_peak_rss_counts_only_the_process_itself():
    # A child's ru_maxrss includes its parent's memory (subprocess spawns
    # with vfork); the benchmark's peak RSS must not.
    ballast = bytearray(b"\x01") * (64 << 20)
    child = subprocess.run(
        [sys.executable, "-c", "from ripbench import peak_rss_kb; print(peak_rss_kb())"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        check=True,
    )
    assert 0 < int(child.stdout) < 64 << 10
    assert peak_rss_kb() >= len(ballast) >> 10


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def _span(span_id, parent, name, start, end, **attrs):
    return (span_id, parent, name, start, end, attrs)


def test_self_time_reducer_on_a_synthetic_span_tree():
    spans = [
        _span(1, 0, "engine.design", 0.0, 10.0),
        _span(2, 1, "core.rip.prepare", 1.0, 4.0),
        _span(3, 2, "dp.powerdp.run", 2.0, 3.0, states=5),
        _span(4, 1, "dp.powerdp.run", 3.5, 6.0, states=7),  # overlaps span 2
        _span(5, 1, "core.rip.final", 7.0, 9.0),
        _span(6, 5, "engine.wincache.lookup", 7.5, 8.5),
        _span(7, 6, "dp.powerdp.run", 8.0, 8.25, states=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.5, 5: 1.0, 6: 0.75, 7: 0.25})
    totals = tracing.reduce_spans(spans)
    assert totals.dp_s == pytest.approx({"coarse": 1.0, "baseline": 2.5, "final": 0.25})
    assert totals.dp_states == 13
    assert totals.root_self_s == pytest.approx(3.0)
    assert totals.calls["dp.powerdp.run"] == 3
    windowed = tracing.reduce_spans(spans, window=(6.5, 10.0))
    assert set(windowed.calls) == {"core.rip.final", "engine.wincache.lookup", "dp.powerdp.run"}


def test_queue_waits_follow_each_request_to_its_sweep():
    spans = [
        _span(1, 0, "service.batcher.submit", 0.0, 1.0, case=11, digest="a"),
        _span(2, 0, "service.batcher.submit", 1.5, 2.0, case=12, digest="a"),  # deduplicated
        _span(3, 0, "service.batcher.submit", 2.0, 2.5, case=13, digest="b"),
        _span(4, 0, "engine.design", 3.0, 4.0, cases=[11, 13]),
        _span(5, 0, "service.batcher.submit", 5.0, 5.5, case=11, digest="c"),  # id reused
        _span(6, 0, "engine.design", 6.0, 7.0, cases=[11]),
    ]
    assert sorted(tracing.queue_waits(spans)) == pytest.approx([0.5, 0.5, 1.0, 2.0])


def test_install_wraps_methods_classmethods_and_names_and_undoes_it(monkeypatch):
    module = types.ModuleType("ripbench_fake_layer")

    class Layer:
        def run(self, value):
            return value + 1

        @classmethod
        def make(cls):
            return cls()

    def helper(value):
        return value * 2

    module.Layer, module.helper = Layer, helper
    original_run, original_make = Layer.__dict__["run"], Layer.__dict__["make"]
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = tracing.SpanRecorder()
    undo = tracing.install(
        recorder,
        [
            tracing.Wrap(module.__name__, "Layer.run", "fake.run"),
            tracing.Wrap(module.__name__, "Layer.make", "fake.make"),
            tracing.Wrap(module.__name__, "helper", "fake.helper"),
            tracing.Wrap("ripbench_no_such_module", "thing", "fake.missing"),
        ],
    )
    assert module.Layer.make().run(module.helper(2)) == 5
    assert [span[2] for span in recorder.spans] == ["fake.make", "fake.helper", "fake.run"]
    undo()
    assert module.helper is helper
    assert Layer.__dict__["run"] is original_run
    assert Layer.__dict__["make"] is original_make
    module.Layer().run(1)
    assert len(recorder.spans) == 3
