"""Seeded inputs for the three workloads.

Everything here is a pure function of ``(workload, seed, size)``: the
same arguments give the same events and frames in any process, which is
what lets the oracle digest be cached across runs.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

# Engine workloads: chain-3 over the synthetic generator, disorder 0.3
# with delays up to 40, and a disorder bound K that covers it.
K_ENGINE = 40
WITHIN = 40
DISORDER_RATE = 0.3
MAX_DELAY = 40

# Events per engine trace.  A run replays it about a hundred times on
# ooo-replay (~4.5 us/event on the batch path) and about a dozen times on
# keyed-stream (~55 us/event on the per-element path).
TRACE_EVENTS = 20_000

# gateway-ingest: the E21 stream and query.
GATEWAY_QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
GATEWAY_STREAM = "soak"
# No disorder bound: the engine is sealed by the gateway's merged
# watermark.  With K=64 the run late-drops events once a backlog forms:
# the server reads up to 64 KiB per connection per turn, so one source's
# event time runs hundreds of ticks ahead of the other's.
K_GATEWAY = None
SOURCES = 2
X_VALUES = 3  # join-key cardinality per source, as in E21
REDELIVER_FRAC = 0.02
REDELIVER_BACK = 4  # a redelivery repeats one of the source's last 4 frames


# workload -> (key values, index of the negated step or None)
ENGINE_SHAPES = {"ooo-replay": (8, 2), "keyed-stream": (64, None)}


def engine_pattern(workload: str):
    from repro.workloads.synthetic import chain_query

    return chain_query(3, WITHIN, negated_step=ENGINE_SHAPES[workload][1])


def synthetic(workload: str, seed: int, events: int):
    """``(pattern, arrival-order trace)`` for an engine workload."""
    from repro.streams.disorder import RandomDelayModel
    from repro.workloads.synthetic import SyntheticWorkload

    partitions, negated = ENGINE_SHAPES[workload]
    generator = SyntheticWorkload(
        query_length=3,
        event_count=events,
        within=WITHIN,
        partitions=partitions,
        negated_step=negated,
        disorder=RandomDelayModel(DISORDER_RATE, MAX_DELAY, seed=seed),
        seed=seed,
    )
    _, arrival = generator.generate()
    return generator.query, arrival


def gateway_schema():
    from repro.ingest import EventSchema, FieldSpec, StreamSchema

    fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
    return StreamSchema(
        GATEWAY_STREAM,
        t_event="ts",
        source_slack=2,
        ordering_scope="global",
        events=[EventSchema("A", list(fields)), EventSchema("B", list(fields))],
    )


class Frame(NamedTuple):
    due: float  # seconds after the schedule starts
    source: int  # connection index
    etype: str
    attrs: Dict[str, int]
    redelivery: bool  # expected ack: "duplicate" instead of "admitted"


def gateway_schedule(seed: int, rate: int, seconds: float) -> List[Frame]:
    """Open-loop schedule: ``rate`` frames/s round-robin over the sources.

    Each source sends in-order occurrence times with a seeded A/B mix and
    its own join-key space (so every payload is distinct).  A seeded 2%
    of slots re-send one of the source's recent frames unchanged; the
    gateway must ack those ``duplicate``.
    """
    rng = random.Random(f"gateway:{seed}:{rate}")
    total = int(rate * seconds)
    sent: List[List[Tuple[str, Dict[str, int]]]] = [[] for _ in range(SOURCES)]
    frames: List[Frame] = []
    for slot in range(total):
        source = slot % SOURCES
        history = sent[source]
        due = slot / rate
        if len(history) >= REDELIVER_BACK and rng.random() < REDELIVER_FRAC:
            etype, attrs = history[-1 - rng.randrange(REDELIVER_BACK)]
            frames.append(Frame(due, source, etype, dict(attrs), True))
            continue
        etype = "A" if rng.random() < 0.5 else "B"
        attrs = {"ts": len(history), "x": source * 1000 + rng.randrange(X_VALUES)}
        history.append((etype, attrs))
        frames.append(Frame(due, source, etype, dict(attrs), False))
    return frames


def gateway_events(frames: List[Frame]):
    """The distinct engine events a schedule should admit, for the oracle."""
    schema = gateway_schema()
    return [
        schema.build_event(frame.etype, frame.attrs)
        for frame in frames
        if not frame.redelivery
    ]
