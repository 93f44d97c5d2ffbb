"""Golden fixture for shedding, the controller, observability and the rest.

``configurations.json`` holds, for every configuration below, what the
engine did on three seeded disordered traces: the match keys in
emission order, the emission records, every ``EngineStats`` counter
(``peak_state_size`` included), the retained state and clock after the
last element and after ``close()``, and per configuration its side
streams (revocations, the speculative stream, the tracer's record
sequence by digest, the metrics registry).  It was recorded while these
configurations still ran a separate per-event path (batches included),
so it pins that path's behaviour; each configuration is re-run here
both fed one element at a time and in batches of 7, and both must
reproduce it exactly.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/golden/test_configurations.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import (
    AggressiveEngine,
    Attr,
    Eq,
    Event,
    InOrderEngine,
    LatePolicy,
    OutOfOrderEngine,
    Punctuation,
    ShedPolicy,
    ValidationPolicy,
    seq,
)
from repro.faultinject import forge_event
from repro.obs import MetricsRegistry, Tracer
from repro.streams.controller import AdaptiveKController

FIXTURE = Path(__file__).parent / "configurations.json"

SEEDS = (11, 12, 13)
EVENTS = 90
MAX_DELAY = 12
K = 6
BATCH = 7

PATTERNS = {
    "negation": seq(
        "A a", "!N n", "C c", within=14, name="negation",
        where=[Eq(Attr("a", "x"), Attr("c", "x"))],
    ),
    "kleene": seq("A a", "K+ ks", "C c", "!N n", "D d", within=18, name="kleene"),
}


def _trace(seed: int, malformed: bool = False) -> list:
    """Disordered arrival with periodic punctuations (and, on request,
    malformed elements for the quarantine configuration)."""
    rng = random.Random(seed)
    events = [
        Event(rng.choice("AAKNCCDX"), ts, {"x": rng.randrange(3)}, eid=ts)
        for ts in range(EVENTS)
    ]
    keyed = sorted(
        ((e.ts + rng.randint(0, MAX_DELAY), e.eid, e) for e in events),
        key=lambda item: item[:2],
    )
    arrival = []
    seen = -1
    for index, (_, _, event) in enumerate(keyed):
        arrival.append(event)
        seen = max(seen, event.ts)
        if index % 15 == 14:
            arrival.append(Punctuation(max(0, seen - MAX_DELAY - 1)))
        if malformed and index % 23 == 5:
            arrival.append(forge_event("A", -1 - index, eid=10_000 + index))
    return arrival


def _controller() -> AdaptiveKController:
    return AdaptiveKController(window=64, min_epoch_events=8, max_k=MAX_DELAY + 4)


def _observed(engine):
    engine.enable_observability(tracer=Tracer(capacity=100_000), metrics=MetricsRegistry())
    return engine


#: name -> engine factory taking a pattern.
CONFIGURATIONS = {
    "shed_drop_oldest": lambda p: OutOfOrderEngine(
        p, k=K, shed=ShedPolicy.drop_oldest(max_state=9)
    ),
    "shed_drop_by_type": lambda p: OutOfOrderEngine(
        p, k=K, shed=ShedPolicy.drop_by_type(9, victims=("A", "K"))
    ),
    "controller": lambda p: OutOfOrderEngine(p, controller=_controller()),
    "controller_speculative": lambda p: OutOfOrderEngine(
        p, controller=_controller(), speculative=True
    ),
    "aggressive": lambda p: AggressiveEngine(p, k=K),
    "late_process": lambda p: OutOfOrderEngine(p, k=K, late_policy=LatePolicy.PROCESS),
    "quarantine": lambda p: OutOfOrderEngine(p, k=K),
    "obs": lambda p: _observed(OutOfOrderEngine(p, k=K)),
    "obs_shed_controller": lambda p: _observed(
        OutOfOrderEngine(
            p,
            shed=ShedPolicy.drop_oldest(max_state=9),
            controller=_controller(),
            speculative=True,
        )
    ),
    "obs_aggressive": lambda p: _observed(AggressiveEngine(p, k=K)),
    "inorder": lambda p: InOrderEngine(p),
    "inorder_obs": lambda p: _observed(InOrderEngine(p)),
}


def _arrival_for(config: str, seed: int) -> list:
    arrival = _trace(seed, malformed=config == "quarantine")
    if config.startswith("inorder"):
        # The SASE baseline is only meant for ordered arrival.
        arrival = sorted(arrival, key=lambda e: (e.ts, isinstance(e, Event)))
    return arrival


def _build(config: str, pattern):
    engine = CONFIGURATIONS[config](pattern)
    if config == "quarantine":
        engine.validation = ValidationPolicy.QUARANTINE
    return engine


def _jsonable(value):
    return json.loads(json.dumps(value))


def _observe(engine) -> dict:
    """Counters, retained state and clock of *engine* right now."""
    clock = engine.clock
    return {
        "results": len(engine.results),
        "stats": engine.stats.as_dict(),
        "state": engine.state_size(),
        "clock": [clock.now, clock.horizon(), clock.k, clock.observations],
    }


def _side_streams(engine) -> dict:
    side = {}
    if isinstance(engine, AggressiveEngine):
        side["revocations"] = [
            [list(r.match.key()), r.caused_by.eid] for r in engine.revocations
        ]
    speculation = getattr(engine, "speculation", None)
    if speculation is not None:
        side["speculative"] = [
            [r.seq, r.epoch, list(r.match.key()), r.emitted_arrival, r.emitted_clock]
            for r in speculation.emissions
        ]
        side["retractions"] = [
            [r.seq, r.ref_seq, r.epoch, r.cause, r.retracted_arrival, r.retracted_clock]
            for r in speculation.retractions
        ]
    controller = getattr(engine, "_controller", None)
    if controller is not None:
        side["decisions"] = [list(d) for d in controller.history]
    obs = engine.observability
    if obs is not None:
        spans = [
            [s.span_id, s.stage, s.eid, s.ts, s.etype, s.detail]
            for s in obs.tracer.spans()
        ]
        # The record sequence is pinned by digest (it runs to tens of
        # kilobytes per case); the stage counts localise a mismatch.
        side["spans"] = {
            "count": len(spans),
            "stages": obs.tracer.stage_counts(),
            "sha256": hashlib.sha256(
                json.dumps(spans, separators=(",", ":")).encode()
            ).hexdigest(),
        }
        side["metrics"] = {
            kind: {
                name: metric.get("value", metric.get("counts"))
                for name, metric in metrics.items()
            }
            for kind, metrics in obs.registry.snapshot_state().items()
        }
    return side


def run_configuration(config: str, pattern_name: str, seed: int, batch: int) -> dict:
    """Run one configuration; *batch* 0 feeds one element at a time."""
    engine = _build(config, PATTERNS[pattern_name])
    arrival = _arrival_for(config, seed)
    if batch:
        for lo in range(0, len(arrival), batch):
            engine.feed_batch(arrival[lo : lo + batch])
    else:
        for element in arrival:
            engine.feed(element)
    fed = _observe(engine)
    engine.close()
    record = {
        "keys": [list(m.key()) for m in engine.results],
        "emissions": [[r.emitted_seq, r.emitted_clock] for r in engine.emissions],
        "fed": fed,
        "closed": _observe(engine),
    }
    record.update(_side_streams(engine))
    return _jsonable(record)


def _cases():
    return [
        (config, pattern_name, seed)
        for config in CONFIGURATIONS
        for pattern_name in PATTERNS
        for seed in SEEDS
    ]


def _case_id(config: str, pattern_name: str, seed: int) -> str:
    return f"{config}-{pattern_name}-{seed}"


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize("batch", [0, BATCH], ids=["per-element", f"batch{BATCH}"])
@pytest.mark.parametrize(
    "config,pattern_name,seed", _cases(), ids=[_case_id(*c) for c in _cases()]
)
def test_configuration_reproduces_fixture(expected, config, pattern_name, seed, batch):
    got = run_configuration(config, pattern_name, seed, batch)
    want = expected[_case_id(config, pattern_name, seed)]
    for field in want:
        assert got[field] == want[field], field
    assert sorted(got) == sorted(want)


def _write() -> None:
    fixture = {}
    for case in _cases():
        record = run_configuration(*case, batch=0)
        if run_configuration(*case, batch=BATCH) != record:
            raise SystemExit(f"{_case_id(*case)}: batched run differs from per-element")
        fixture[_case_id(*case)] = record
    FIXTURE.write_text(json.dumps(fixture, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(fixture)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
