"""The benchmark's metric catalogue and its result line.

The catalogue is ``BENCHMARK.json`` at the checkout root: its
``end_to_end`` metrics are printed by untraced runs, its ``per_layer``
metrics (``*_s`` is self time summed over a layer's spans) by traced runs.
"""

from __future__ import annotations

import json
from typing import Dict

from ripbench import ROOT


def _catalogue(section: str) -> Dict[str, str]:
    """name -> unit of one ``BENCHMARK.json`` section, in file order."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in config[section]}


END_TO_END = _catalogue("end_to_end")
PER_LAYER = _catalogue("per_layer")


def result_line(
    values: Dict[str, float], *, trace: bool, attempted: int, failed: int, correct: bool
) -> str:
    """The JSON result line; refuses a metric set that is not the catalogue."""
    catalogue = PER_LAYER if trace else END_TO_END
    missing = sorted(set(catalogue) - set(values))
    extra = sorted(set(values) - set(catalogue))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": catalogue[name]}
                for name in catalogue
            },
        }
    )
