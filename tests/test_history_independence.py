"""History independence: a RIP record is a pure function of its inputs.

A design record must not depend on what the engine designed before it.
For every net of a small seeded population, the records of the full
target ladder must be bit-identical whether the targets run

* as one ``run_prepared_batch`` call,
* one by one in reverse order on the same ``Rip``, or
* one per fresh ``Rip``;

and a ``rip sweep`` must write the same records (``runtime_seconds``
aside) on a cache directory that a sweep over other targets filled first
as on a fresh one.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.core.rip import Rip
from repro.engine.cache import ProtocolConfig, ProtocolStore

POPULATION = ProtocolConfig(num_nets=6, targets_per_net=9)


@pytest.fixture(scope="module")
def population():
    return ProtocolStore().cases(POPULATION)


def _record(result):
    """Everything a RIP result reports except its wall-clock runtime."""
    return (
        result.solution.positions,
        result.solution.widths,
        result.metrics.delay,
        result.metrics.total_width,
        result.feasible,
        result.fallback_used,
        result.states_generated,
        tuple(result.final_library.widths),
        result.final_candidates,
        result.refined,
    )


@pytest.mark.parametrize("index", range(POPULATION.num_nets))
def test_rip_records_do_not_depend_on_target_order_or_engine_reuse(
    tech, population, index
):
    case = population[index]
    targets = list(case.targets)

    rip = Rip(tech, window_cache=False)
    batch = [_record(r) for r in rip.run_prepared_batch(rip.prepare(case.net), targets)]

    rip = Rip(tech, window_cache=False)
    prepared = rip.prepare(case.net)
    reverse = [_record(rip.run_prepared(prepared, t)) for t in reversed(targets)]
    reverse.reverse()

    fresh = []
    for target in targets:
        rip = Rip(tech, window_cache=False)
        fresh.append(_record(rip.run_prepared(rip.prepare(case.net), target)))

    assert reverse == batch
    assert fresh == batch


def _sweep_records(cache_dir, targets, json_path):
    code = main(
        [
            "sweep", "--nets", "6", "--targets", str(targets), "--methods", "rip",
            "--cache-dir", str(cache_dir), "--json", str(json_path),
        ]
    )
    assert code == 0
    return [
        {key: value for key, value in row.items() if key != "runtime_seconds"}
        for row in json.loads(json_path.read_text())["records"]
    ]


def test_sweep_records_do_not_depend_on_what_the_cache_dir_holds(tmp_path, capsys):
    filled = tmp_path / "filled"
    _sweep_records(filled, 5, tmp_path / "first.json")
    after_other_sweep = _sweep_records(filled, 9, tmp_path / "filled.json")
    on_fresh_dir = _sweep_records(tmp_path / "fresh", 9, tmp_path / "fresh.json")
    capsys.readouterr()
    assert len(on_fresh_dir) == 6 * 9
    assert after_other_sweep == on_fresh_dir
