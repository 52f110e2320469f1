"""Seeded workload inputs: two-pin net populations stratified by work.

The paper's recipe draws 4..10 segments per net; per-net design cost grows
steeply with the segment count and, within a count, with the routable
length.  A plain random population therefore changes the *amount* of work
with the seed.  Here every population holds the same number of nets per
segment count, and within each count one net per fixed quantile of the
recipe's routable length (total length minus the forbidden zone): for each
slot the net whose routable length is nearest the slot's reference quantile
is picked from a small seeded pool of recipe nets.  The seed changes the
nets (layers, segment lengths, zone placement) but not the work mix.

Each chosen net is the only net of a one-net :class:`ProtocolConfig`, so
the program builds it, and its ``tau_min``, through its own
:class:`~repro.engine.cache.ProtocolStore`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.engine.cache import NetCase, ProtocolConfig, ProtocolStore
from repro.net.generator import NetGenerationConfig, RandomNetGenerator
from repro.tech.nodes import NODE_180NM

#: One stratum per segment count of the paper's recipe.
SEGMENT_COUNTS: Tuple[int, ...] = tuple(range(4, 11))
#: Recipe nets drawn per slot; the one nearest the slot's length is kept.
POOL = 12
#: Timing targets per net: the paper's 1.05..2.05 tau_min ladder.
TARGETS_PER_NET = 20


@dataclass(frozen=True)
class NetSpec:
    """One population entry: the protocol seed that generates it, renamed."""

    name: str
    segments: int
    seed: int


def derive_seed(*parts: object) -> int:
    """A stable 48-bit seed from the benchmark seed and a label path."""
    text = "/".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def net_config(segments: int) -> NetGenerationConfig:
    """The paper's recipe with the segment count pinned to one stratum."""
    return NetGenerationConfig(min_segments=segments, max_segments=segments)


def protocol(spec: NetSpec) -> ProtocolConfig:
    """The one-net protocol whose population is exactly ``spec``'s net."""
    return ProtocolConfig(
        technology=NODE_180NM,
        num_nets=1,
        seed=spec.seed,
        targets_per_net=TARGETS_PER_NET,
        net_config=net_config(spec.segments),
    )


def routable_length(net) -> float:
    """Net length outside its forbidden zones, meters."""
    return net.total_length - sum(zone.end - zone.start for zone in net.forbidden_zones)


@lru_cache(maxsize=None)
def reference_lengths(segments: int, slots: int) -> Tuple[float, ...]:
    """Slot quantiles of the recipe's routable length (fixed, seed-free).

    Monte Carlo over the recipe's distributions with a constant generator:
    segment lengths uniform in 1000..2500 um, one zone of 20..40% of the
    total length.
    """
    config = net_config(segments)
    rng = np.random.default_rng(20050307)
    count = 20000
    total = rng.uniform(
        config.min_segment_length, config.max_segment_length, size=(count, segments)
    ).sum(axis=1)
    zone = rng.uniform(config.min_zone_fraction, config.max_zone_fraction, size=count)
    routable = total * (1.0 - zone)
    fractions = [(slot + 0.5) / slots for slot in range(slots)]
    return tuple(float(value) for value in np.quantile(routable, fractions))


def stratified_specs(seed: int, tag: str, slots: int) -> List[NetSpec]:
    """``slots`` nets per segment count, one per routable-length quantile."""
    specs: List[NetSpec] = []
    for segments in SEGMENT_COUNTS:
        for slot, reference in enumerate(reference_lengths(segments, slots)):
            specs.append(pick(seed, tag, segments, slot, reference))
    return specs


def pick(seed: int, tag: str, segments: int, slot: int, reference: float) -> NetSpec:
    """The pool net of one slot whose routable length is nearest ``reference``."""
    best = None
    for draw in range(POOL):
        candidate = derive_seed(seed, tag, segments, slot, draw)
        net = RandomNetGenerator(
            NODE_180NM, config=net_config(segments), seed=candidate
        ).generate()
        distance = abs(routable_length(net) - reference)
        if best is None or distance < best[0]:
            best = (distance, candidate)
    return NetSpec(name=f"{tag}-k{segments}-q{slot}", segments=segments, seed=best[1])


def build_cases(store: ProtocolStore, specs: Sequence[NetSpec]) -> List[NetCase]:
    """The population of ``specs`` through ``store`` (tau_min, targets)."""
    cases: List[NetCase] = []
    for spec in specs:
        (case,) = store.cases(protocol(spec))
        cases.append(replace(case, net=replace(case.net, name=spec.name)))
    return cases


def specs_to_json(specs: Sequence[NetSpec]) -> List[list]:
    return [[spec.name, spec.segments, spec.seed] for spec in specs]


def specs_from_json(rows: Sequence[Sequence]) -> List[NetSpec]:
    return [NetSpec(name=row[0], segments=int(row[1]), seed=int(row[2])) for row in rows]
