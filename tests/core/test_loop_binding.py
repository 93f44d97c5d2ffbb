"""The event loops bind their construction-time invariants once per engine.

``OutOfOrderEngine._loop`` and ``InOrderEngine._loop`` read their
stores, key lists, pending heap and callables from a binding built on
first use (``_bind``), and start their running state count from the
``_fed_size`` the previous feed left.  Restoring a snapshot replaces
the stacks' key lists (``StackSet.restore_state``), the in-order stacks
and the pending heap (``PendingMatches.restore_state``), so a binding
kept across a restore would go stale.  These tests pin that a restored
engine continues exactly like the engine it was restored from, and
count the calls the per-event path makes (no wall-clock bounds).
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import (
    AggressiveEngine,
    Attr,
    Eq,
    Event,
    InOrderEngine,
    OutOfOrderEngine,
    PartitionedEngine,
    Punctuation,
    parse,
    seq,
)

EVENTS = 160
MAX_DELAY = 10
K = 6
BATCH = 7

#: A negated and a Kleene step, so every store and the pending heap fill.
BRACKETS = seq("A a", "K+ ks", "C c", "!N n", "D d", within=18, name="brackets")
NEGATION = seq(
    "A a", "!N n", "C c", within=14, name="negation",
    where=[Eq(Attr("a", "x"), Attr("c", "x"))],
)
KEYED = parse(
    "PATTERN SEQ(A a, K+ ks, !N n, C c) "
    "WHERE a.x == c.x AND ks.x == a.x AND n.x == a.x WITHIN 18"
)

#: name -> (engine factory, pattern)
ENGINES = {
    "ooo": (lambda p: OutOfOrderEngine(p, k=K), BRACKETS),
    "aggressive": (lambda p: AggressiveEngine(p, k=K), NEGATION),
    "inorder": (lambda p: InOrderEngine(p), BRACKETS),
    "partitioned": (lambda p: PartitionedEngine(p, k=K, punctuate_every=8), KEYED),
}


def _trace(seed: int) -> list:
    """Disordered arrival with a punctuation every 15 events."""
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
    return arrival


def _chunks(elements: list, batched: bool) -> list:
    if not batched:
        return [[element] for element in elements]
    return [elements[i : i + BATCH] for i in range(0, len(elements), BATCH)]


def _feed(engine, chunk: list) -> list:
    if len(chunk) == 1:
        return engine.feed(chunk[0])
    return engine.feed_batch(chunk)


def _observe(engine) -> tuple:
    return (
        [m.key() for m in engine.results],
        [(r.match.key(), r.emitted_seq, r.emitted_clock) for r in engine.emissions],
        engine.stats.as_dict(),
        engine.state_size(),
    )


@pytest.mark.parametrize("batched", [False, True], ids=["per-element", "batch7"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_restore_over_a_used_engine_continues_identically(name, batched):
    factory, pattern = ENGINES[name]
    trace = _trace(seed=5)
    split = len(trace) // 2
    original = factory(pattern)
    for chunk in _chunks(trace[:split], batched):
        _feed(original, chunk)
    # The restore target has run its loop (so holds a binding) over a
    # different prefix, with its own stores and pending heap.
    restored = factory(pattern)
    for chunk in _chunks(_trace(seed=9)[:split], batched):
        _feed(restored, chunk)
    restored.restore(original.snapshot())
    assert _observe(restored) == _observe(original)
    for chunk in _chunks(trace[split:], batched):
        assert [m.key() for m in _feed(restored, chunk)] == [
            m.key() for m in _feed(original, chunk)
        ]
        assert _observe(restored) == _observe(original)
    assert [m.key() for m in restored.close()] == [m.key() for m in original.close()]
    assert _observe(restored) == _observe(original)
    assert original.results, "the trace must produce matches to compare"


def _counting(monkeypatch, owner, name: str) -> list:
    calls = [0]
    original = getattr(owner, name)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_per_event_feed_recounts_nothing_and_binds_once(monkeypatch):
    rng = random.Random(3)
    events = [
        Event(rng.choice("AKNCD"), ts + rng.randint(0, K), {"x": rng.randrange(3)})
        for ts in range(1000)
    ]
    state_size = _counting(monkeypatch, OutOfOrderEngine, "state_size")
    bind = _counting(monkeypatch, OutOfOrderEngine, "_bind")
    engine = OutOfOrderEngine(BRACKETS, k=K)
    for event in events:
        engine.feed(event)
    assert engine.stats.events_in == 1000
    assert state_size[0] == 0
    assert bind[0] == 1


def test_punctuation_skips_release_with_nothing_pending(monkeypatch):
    release = _counting(monkeypatch, OutOfOrderEngine, "_release_ripe")
    # No negated or Kleene step: every match is decided at construction.
    engine = OutOfOrderEngine(seq("A a", "C c", within=10), k=K)
    for ts in range(1, 40):
        engine.feed(Event("AC"[ts % 2], ts))
        if ts % 5 == 0:
            engine.feed(Punctuation(ts - 1))
    assert engine.results
    assert engine.stats.punctuations_in == 7
    assert release[0] == 0


def test_punctuation_releases_a_pending_match(monkeypatch):
    release = _counting(monkeypatch, OutOfOrderEngine, "_release_ripe")
    engine = OutOfOrderEngine(NEGATION, k=None)
    engine.feed(Event("A", 1, {"x": 0}))
    engine.feed(Event("C", 3, {"x": 0}))
    assert len(engine.pending) == 1
    calls = release[0]
    emitted = engine.feed(Punctuation(10))
    assert release[0] == calls + 1
    assert [m.end_ts for m in emitted] == [3]
    assert engine.stats.matches_pending == 0


def test_punctuation_honours_the_aggressive_ripe_probe(monkeypatch):
    # An aggressive engine's exposed matches live outside the pending
    # heap; its _ripe_possible override must still trigger the release
    # that seals them.
    release = _counting(monkeypatch, AggressiveEngine, "_release_ripe")
    engine = AggressiveEngine(NEGATION, k=None)
    engine.feed(Event("A", 1, {"x": 0}))
    engine.feed(Event("C", 3, {"x": 0}))
    assert len(engine.pending) == 0 and engine._exposed
    calls = release[0]
    engine.feed(Punctuation(10))
    assert release[0] == calls + 1
    assert not engine._exposed
    assert engine.stats.matches_pending == 0


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_binding_leaves_the_engine_free_of_reference_cycles(name):
    # A fed engine is freed by reference counting alone: binding its own
    # methods would tie it into a cycle only the cyclic collector frees.
    factory, pattern = ENGINES[name]
    engine = factory(pattern)
    engine.feed_batch(_trace(seed=5)[:40])
    engine.feed(Event("A", 200, {"x": 0}))
    alive = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
