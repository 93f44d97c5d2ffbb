"""Property-based tests: batched and parallel paths are observably serial.

``feed_batch`` is a pure performance lever — the contract (pinned here
across random traces, disorder permutations, purge policies, batch
sizes, and punctuations) is that an engine fed in batches is
*indistinguishable* from the same engine fed one element at a time:
same matches in the same emission order, same counters, same residual
state, same clock.  Load shedding and the adaptive-K controller ride
along as drawn configuration: a re-freeze at a punctuation changes K
mid-batch, and shedding moves the retained-state count.  Likewise
``ParallelPartitionedEngine`` must produce the serial
``PartitionedEngine``'s results for every worker count, and be
byte-identical at ``workers=1``.
"""

from hypothesis import example, given, settings, strategies as st

from repro import (
    AggressiveEngine,
    Attr,
    Eq,
    Event,
    InOrderEngine,
    OutOfOrderEngine,
    ParallelPartitionedEngine,
    PartitionedEngine,
    Punctuation,
    PurgePolicy,
    ReorderingEngine,
    ShedPolicy,
    seq,
)
from repro.streams.controller import AdaptiveKController
from helpers import bounded_shuffle

PATTERNS = [
    seq("A a", "B b", within=10, name="p2"),
    seq("A a", "B b", "C c", within=20, name="p3"),
    seq("A a", "!B b", "C c", within=15, name="pneg"),
    seq("A first", "A second", within=12, name="prep"),
]

# All steps joined on one attribute -> partitionable (for the parallel
# property; the flat engines run it too, it is just another pattern).
PART_PATTERN = seq(
    "A a",
    "B b",
    "C c",
    within=20,
    where=[Eq(Attr("a", "x"), Attr("b", "x")), Eq(Attr("b", "x"), Attr("c", "x"))],
    name="pkey",
)

BATCH_SIZES = [1, 2, 3, 7, 16, 64]


def trace_strategy(types="ABCX", max_ts=60, max_len=50, attr_range=3):
    event = st.tuples(
        st.sampled_from(types),
        st.integers(min_value=0, max_value=max_ts),
        st.integers(min_value=0, max_value=attr_range - 1),
    )
    return st.lists(event, min_size=0, max_size=max_len).map(
        lambda items: [Event(t, ts, {"x": x}) for t, ts, x in items]
    )


def _with_punctuations(arrival):
    """Insert a safe punctuation mid-stream and at the end."""
    if len(arrival) < 2:
        return list(arrival)
    mid = len(arrival) // 2
    head = list(arrival[:mid])
    mid_ts = max(e.ts for e in head)
    tail = list(arrival[mid:])
    end_ts = max(mid_ts, max(e.ts for e in tail))
    return head + [Punctuation(mid_ts)] + tail + [Punctuation(end_ts)]


def _purge(kind, interval):
    if kind == "eager":
        return PurgePolicy.eager()
    if kind == "lazy":
        return PurgePolicy.lazy(interval)
    return PurgePolicy.none()


def _snapshot(engine):
    """Everything externally observable about an engine after feeding."""
    return {
        "keys": [m.key() for m in engine.results],
        "emissions": [(r.emitted_seq, r.emitted_clock) for r in engine.emissions],
        "stats": engine.stats.as_dict(),
        "state": engine.state_size(),
        "clock": (
            engine.clock.now,
            engine.clock.horizon(),
            engine.clock.k,
            engine.clock.observations,
        ),
    }


def _feed_serial(engine, elements):
    for element in elements:
        engine.feed(element)


def _feed_batched(engine, elements, batch_size):
    for lo in range(0, len(elements), batch_size):
        engine.feed_batch(elements[lo : lo + batch_size])


def _assert_batch_equals_serial(make_engine, elements, batch_size):
    serial = make_engine()
    _feed_serial(serial, elements)
    batched = make_engine()
    _feed_batched(batched, elements, batch_size)
    assert _snapshot(batched) == _snapshot(serial)
    # ... and closing both yields the same final result set.
    serial.close()
    batched.close()
    assert _snapshot(batched) == _snapshot(serial)


SHED_POLICIES = st.one_of(
    st.none(),
    st.builds(ShedPolicy.drop_oldest, st.integers(min_value=1, max_value=12)),
    st.builds(
        ShedPolicy.drop_by_type,
        st.integers(min_value=1, max_value=12),
        st.sampled_from([("A",), ("B", "X"), ("C",)]),
    ),
)

CONTROLLERS = st.one_of(
    st.none(),
    st.builds(
        AdaptiveKController,
        window=st.integers(min_value=4, max_value=64),
        initial_k=st.integers(min_value=0, max_value=10),
        max_k=st.sampled_from([None, 5, 25]),
        min_epoch_events=st.integers(min_value=1, max_value=4),
    ),
)


@given(
    trace=trace_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS)),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from(BATCH_SIZES),
    purge_kind=st.sampled_from(["eager", "lazy", "none"]),
    interval=st.integers(min_value=1, max_value=32),
    punctuate=st.booleans(),
    shed=SHED_POLICIES,
    controller=CONTROLLERS,
)
@settings(max_examples=100, deadline=None)
# A re-freeze at the mid-stream punctuation raises K from 2 to 11 inside
# one batch; the events after it must be judged against the new bound.
@example(
    trace=[Event("A", 0, {"x": 0}, eid=1), Event("A", 12, {"x": 0}, eid=2)],
    pattern_index=0,
    k=2,
    seed=0,
    batch_size=3,
    purge_kind="eager",
    interval=1,
    punctuate=True,
    shed=None,
    controller=AdaptiveKController(window=4, initial_k=0, min_epoch_events=1),
)
def test_ooo_feed_batch_is_observably_serial(
    trace, pattern_index, k, seed, batch_size, purge_kind, interval, punctuate,
    shed, controller,
):
    pattern = (PATTERNS + [PART_PATTERN])[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    if punctuate:
        arrival = _with_punctuations(arrival)
    _assert_batch_equals_serial(
        lambda: OutOfOrderEngine(
            pattern,
            k=k,
            purge=_purge(purge_kind, interval),
            shed=shed,
            controller=controller,
        ),
        arrival,
        batch_size,
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from(BATCH_SIZES),
    purge_kind=st.sampled_from(["eager", "lazy", "none"]),
    interval=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=60, deadline=None)
def test_aggressive_feed_batch_is_observably_serial(
    trace, pattern_index, k, seed, batch_size, purge_kind, interval
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    _assert_batch_equals_serial(
        lambda: AggressiveEngine(pattern, k=k, purge=_purge(purge_kind, interval)),
        arrival,
        batch_size,
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    batch_size=st.sampled_from(BATCH_SIZES),
    purge_kind=st.sampled_from(["eager", "lazy", "none"]),
    interval=st.integers(min_value=1, max_value=32),
    punctuate=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_inorder_feed_batch_is_observably_serial(
    trace, pattern_index, batch_size, purge_kind, interval, punctuate
):
    # The SASE baseline promises correctness only on ordered arrival.
    pattern = PATTERNS[pattern_index]
    arrival = sorted(trace, key=lambda e: e.ts)
    if punctuate:
        arrival = _with_punctuations(arrival)
    _assert_batch_equals_serial(
        lambda: InOrderEngine(pattern, purge=_purge(purge_kind, interval)),
        arrival,
        batch_size,
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from(BATCH_SIZES),
    punctuate=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_reorder_feed_batch_is_observably_serial(
    trace, pattern_index, k, seed, batch_size, punctuate
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    if punctuate:
        arrival = _with_punctuations(arrival)

    def snapshot_with_inner(engine):
        snap = _snapshot(engine)
        snap["inner_stats"] = engine.inner.stats.as_dict()
        snap["buffer_peak"] = engine.buffer_peak
        return snap

    serial = ReorderingEngine(pattern, k=k)
    _feed_serial(serial, arrival)
    batched = ReorderingEngine(pattern, k=k)
    _feed_batched(batched, arrival, batch_size)
    assert snapshot_with_inner(batched) == snapshot_with_inner(serial)
    serial.close()
    batched.close()
    assert snapshot_with_inner(batched) == snapshot_with_inner(serial)


@given(
    trace=trace_strategy(max_len=60, max_ts=80),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_parallel_workers_match_serial_fallback(trace, k, seed, workers):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    reference = ParallelPartitionedEngine(PART_PATTERN, k=k, workers=1)
    reference.run(list(arrival))
    candidate = ParallelPartitionedEngine(PART_PATTERN, k=k, workers=workers)
    candidate.run(list(arrival))
    assert candidate.result_set() == reference.result_set()
    assert candidate.stats.late_dropped == reference.stats.late_dropped
    if workers == 1:
        assert [m.key() for m in candidate.results] == [
            m.key() for m in reference.results
        ]


@given(
    trace=trace_strategy(max_len=60, max_ts=80),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_parallel_serial_fallback_equals_partitioned_engine(trace, k, seed):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    serial = PartitionedEngine(PART_PATTERN, k=k)
    serial.run(list(arrival))
    fallback = ParallelPartitionedEngine(PART_PATTERN, k=k, workers=1)
    fallback.run(list(arrival))
    assert _snapshot(fallback) == _snapshot(serial)
