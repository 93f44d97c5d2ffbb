"""Property tests for the partitioned engines' running state count.

``PartitionedEngine.state_size()`` is a running total moved by each
sub-engine feed's size change, and the deferred
``ParallelPartitionedEngine`` counts its buffered events as it routes
them.  Both must equal a brute-force re-count after every element:
the sum of the sub-engines' own ``state_size()`` (or of the routed
bucket lengths when deferred).  ``stats.peak_state_size`` must be the
running maximum of that re-count.  The re-count lives here, not in the
engine, so a drifting total cannot hide behind the code it checks.
"""

from hypothesis import example, given, settings, strategies as st

from repro import (
    Event,
    LatePolicy,
    ParallelPartitionedEngine,
    PartitionedEngine,
    Punctuation,
    parse,
)
from repro.streams import AdaptiveKController

PATTERNS = [
    "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND b.x == c.x WITHIN 12",
    "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 15",
    "PATTERN SEQ(A a, B+ bs, C c) WHERE a.x == c.x AND bs.x == a.x WITHIN 15",
]

#: Engine class plus constructor keywords.  The deferred variant
#: (workers=2) cannot speculate or adapt, so those modes ride on the
#: serial engines only.
VARIANTS = [
    dict(cls=PartitionedEngine),
    dict(cls=ParallelPartitionedEngine, workers=1),
    dict(cls=ParallelPartitionedEngine, workers=2),
]


def element_strategy():
    """Events with random timestamps, interleaved with punctuations that
    trail the running maximum timestamp by a random lag (a small lag
    breaks the K promise, which the late policy then handles)."""
    item = st.tuples(
        st.sampled_from("ABCXP"),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2),
    )

    def build_elements(items):
        elements, max_ts = [], 0
        for kind, ts, x in items:
            if kind == "P":
                elements.append(Punctuation(max(0, max_ts - 2 * ts)))
            else:
                max_ts = max(max_ts, ts)
                elements.append(Event(kind, ts, {"x": x}))
        return elements

    return st.lists(item, min_size=4, max_size=80).map(build_elements)


def recount(engine) -> int:
    if isinstance(engine, ParallelPartitionedEngine) and engine.workers > 1:
        return sum(len(bucket) for bucket in engine._routed.values())
    return sum(sub.state_size() for sub in engine._partitions.values())


def build(variant, pattern, k, late_policy, every, speculative, adaptive):
    options = dict(VARIANTS[variant])
    cls = options.pop("cls")
    deferred = options.get("workers", 1) > 1
    return cls(
        pattern,
        k=k,
        late_policy=late_policy,
        punctuate_every=every,
        speculative=speculative and not deferred,
        controller=(
            AdaptiveKController(window=16, initial_k=k, min_epoch_events=4)
            if adaptive and not deferred
            else None
        ),
        **options,
    )


def feed_checked(engine, elements, peak):
    for element in elements:
        engine.feed(element)
        size = recount(engine)
        assert engine.state_size() == size
        peak = max(peak, size)
        assert engine.stats.peak_state_size == peak
    return peak


@given(
    elements=element_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    variant=st.integers(min_value=0, max_value=len(VARIANTS) - 1),
    k=st.integers(min_value=0, max_value=25),
    late_policy=st.sampled_from([LatePolicy.DROP, LatePolicy.PROCESS]),
    every=st.integers(min_value=1, max_value=8),
    speculative=st.booleans(),
    adaptive=st.booleans(),
    cut=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
)
# A negation match still parked when the stream closes: close() drains
# it outside feed(), so the total must be re-counted there.
@example(
    elements=[Event("A", 1, {"x": 1}), Event("C", 3, {"x": 1})],
    pattern_index=1, variant=0, k=10, late_policy=LatePolicy.DROP,
    every=8, speculative=False, adaptive=False, cut=None,
)
@settings(max_examples=120, deadline=None)
def test_running_count_equals_recount(
    elements, pattern_index, variant, k, late_policy, every, speculative,
    adaptive, cut,
):
    pattern = parse(PATTERNS[pattern_index])

    def fresh():
        return build(variant, pattern, k, late_policy, every, speculative, adaptive)

    engine = fresh()
    if cut is None:
        peak = feed_checked(engine, elements, 0)
    else:
        cut = min(cut, len(elements))
        peak = feed_checked(engine, elements[:cut], 0)
        resumed = fresh()
        resumed.restore(engine.snapshot())
        assert resumed.state_size() == recount(resumed) == engine.state_size()
        assert resumed.stats.peak_state_size == peak
        engine = resumed
        peak = feed_checked(engine, elements[cut:], peak)
    engine.close()
    assert engine.state_size() == recount(engine)
    assert engine.stats.peak_state_size == peak
