"""Deterministic fault injection for crash-recovery testing.

Recovery code that is only exercised by real crashes is recovery code
that does not work.  This module injects the failure modes the
robustness layer must survive, all of them **deterministic** — a seed
and a schedule fully determine where every fault lands, so a failing
run reproduces exactly:

* **crash points** — :class:`CrashError` raised at chosen input indices
  (after the element is durably WAL-logged, before the engine processes
  it — the moment state and log disagree the most), or in the middle of
  a purge run (:meth:`FaultInjector.arm`), where engine state is
  mid-mutation;
* **corrupted events** — malformed elements (NaN / float / negative
  timestamps, missing type) forged past :class:`~repro.core.event.Event`
  constructor validation, the way a buggy upstream serialiser would
  produce them;
* **stuck clocks** — from a chosen index onward, a source's timestamps
  stop advancing, the pathological case for progress that K-slack and
  punctuation-based clocks must tolerate.

The injector plugs into :class:`repro.core.recovery.ResilientRunner`
(crash points) and wraps raw element streams (:meth:`wrap`, corruption
and clock faults).  :meth:`from_outages` converts a netsim failure
schedule into crash points so simulated node outages kill and restart
the engine at the matching stream positions.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, List, Optional, Sequence

from repro.core.errors import ReproError
from repro.core.event import Event, StreamElement


class CrashError(ReproError):
    """An injected crash: the process is presumed dead at this point.

    Tests catch this where a supervisor would observe a process exit;
    everything the dead incarnation held in memory must be presumed
    lost, and recovery must proceed from the on-disk logs alone.
    """


#: Malformed-event shapes :func:`forge_event` can produce.
CORRUPT_SHAPES = ("negative_ts", "float_ts", "nan_ts", "missing_type")


def forge_event(
    etype: Any, ts: Any, eid: Optional[int] = None, attrs: Optional[dict] = None
) -> Event:
    """Build an :class:`Event` bypassing constructor validation.

    The Event constructor (rightly) refuses malformed timestamps and
    types, but fault injection needs to produce exactly those objects —
    the way a buggy deserialiser or a corrupted wire message would.
    """
    event = object.__new__(Event)
    object.__setattr__(event, "etype", etype)
    object.__setattr__(event, "ts", ts)
    object.__setattr__(event, "eid", eid if eid is not None else -1)
    object.__setattr__(event, "_attrs", dict(attrs) if attrs else {})
    object.__setattr__(event, "_hash", object.__hash__(event))
    return event


def corrupt_event(event: Event, shape: str) -> Event:
    """A malformed copy of *event* in the given :data:`CORRUPT_SHAPES` shape."""
    if shape == "negative_ts":
        return forge_event(event.etype, -event.ts - 1, event.eid, event.attrs)
    if shape == "float_ts":
        return forge_event(event.etype, float(event.ts) + 0.5, event.eid, event.attrs)
    if shape == "nan_ts":
        return forge_event(event.etype, math.nan, event.eid, event.attrs)
    if shape == "missing_type":
        return forge_event("", event.ts, event.eid, event.attrs)
    raise ReproError(f"unknown corruption shape {shape!r}; known: {CORRUPT_SHAPES}")


class _CrashingPurger:
    """Proxy around :class:`repro.core.purge.Purger` that fires crash points.

    ``Purger`` uses ``__slots__`` so its ``run`` cannot be monkeypatched
    on the instance; a delegating proxy injects the crash check instead.
    """

    def __init__(self, inner: Any, injector: "FaultInjector"):
        self._inner = inner
        self._injector = injector

    def run(self, *args: Any, **kwargs: Any) -> Any:
        self._injector.on_purge()
        return self._inner.run(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FaultInjector:
    """A deterministic schedule of crashes, corruption and clock faults.

    Parameters
    ----------
    crash_at:
        0-based input-element indices at which :meth:`on_logged` raises
        :class:`CrashError`.  Each index fires **once** — an injector
        shared across runner incarnations scripts a multi-crash
        schedule without crashing forever at the same element.
    crash_on_purge:
        When set to *n*, the *n*-th purge run of an armed engine
        (:meth:`arm`) raises :class:`CrashError` mid-mutation.  Fires
        once.  Purge crash points require the per-event feed path; the
        fused batch loops inline purging and bypass the hook.
    corrupt_at:
        0-based event indices :meth:`wrap` replaces with a malformed
        forgery of the event at that position.
    corrupt_shape:
        Which :data:`CORRUPT_SHAPES` member :meth:`wrap` forges.
    stuck_clock_at:
        0-based event index after which :meth:`wrap` stops source time:
        later events keep their identity but their timestamps are
        clamped to the maximum seen before the fault.
    duplicate_at:
        0-based event indices :meth:`wrap` *redelivers*: the event is
        yielded again immediately after itself, identity and all — the
        shape an at-least-once transport produces when an ack is lost.
        Downstream layers with idempotent admission must count exactly
        one of each pair; engines fed directly will double-process,
        which is precisely what the gateway tests assert cannot leak
        through admission.
    """

    def __init__(
        self,
        crash_at: Sequence[int] = (),
        crash_on_purge: Optional[int] = None,
        corrupt_at: Sequence[int] = (),
        corrupt_shape: str = "nan_ts",
        stuck_clock_at: Optional[int] = None,
        duplicate_at: Sequence[int] = (),
    ):
        if corrupt_shape not in CORRUPT_SHAPES:
            raise ReproError(
                f"unknown corruption shape {corrupt_shape!r}; known: {CORRUPT_SHAPES}"
            )
        if crash_on_purge is not None and crash_on_purge < 1:
            raise ReproError(f"crash_on_purge must be >= 1, got {crash_on_purge}")
        self._crash_at = set(crash_at)
        self._purge_remaining = crash_on_purge
        self.corrupt_at = set(corrupt_at)
        self.corrupt_shape = corrupt_shape
        self.stuck_clock_at = stuck_clock_at
        self.duplicate_at = set(duplicate_at)
        self.crashes_fired: List[int] = []

    @classmethod
    def from_outages(
        cls,
        crash_indices: Optional[Sequence[int]] = None,
        schedule: Optional[Any] = None,
        result: Optional[Any] = None,
        node: Optional[str] = None,
        **kwargs: Any,
    ) -> "FaultInjector":
        """Crash schedule from netsim outage positions.

        Two forms:

        * ``from_outages(indices)`` — precomputed positions, paired
          with :meth:`repro.netsim.simulator.SimulationResult.
          crash_indices`;
        * ``from_outages(schedule=failures, result=sim, node="s1")`` —
          target a *single* source/node id: only that node's outages
          become crash points, computed against the simulated arrival
          stream.  Before this form existed, outage-derived crash
          schedules were necessarily global — every scripted outage hit
          the same engine — which made per-source fault drills (one
          flaky source among healthy ones, the E21 soak scenario)
          impossible to express.
        """
        if crash_indices is None:
            if schedule is None or result is None or node is None:
                raise ReproError(
                    "from_outages needs either crash_indices or all of "
                    "schedule=, result=, node="
                )
            crash_indices = result.crash_indices(schedule, node)
        elif schedule is not None or result is not None or node is not None:
            raise ReproError(
                "from_outages takes crash_indices or schedule/result/node, not both"
            )
        return cls(crash_at=crash_indices, **kwargs)

    # -- crash points ---------------------------------------------------------------

    def on_logged(self, index: int) -> None:
        """Crash check at input element *index* (fired by the runner)."""
        if index in self._crash_at:
            self._crash_at.discard(index)
            self.crashes_fired.append(index)
            raise CrashError(f"injected crash at input element {index}")

    def on_purge(self) -> None:
        """Crash check at the start of a purge run (fired by armed engines)."""
        if self._purge_remaining is None:
            return
        self._purge_remaining -= 1
        if self._purge_remaining == 0:
            self._purge_remaining = None
            self.crashes_fired.append(-1)
            raise CrashError("injected crash during state purge")

    def arm(self, engine: Any) -> Any:
        """Install the purge crash point into *engine* (recursively).

        Wraps the purger of out-of-order engines, the ``_purge`` method
        of in-order engines, the inner engine of a reordering engine,
        and every (current and future) sub-engine of a partitioned
        engine.  Returns *engine* for chaining.
        """
        from repro.core.engine import OutOfOrderEngine
        from repro.core.inorder import InOrderEngine
        from repro.core.partition import PartitionedEngine
        from repro.core.reorder import ReorderingEngine

        if isinstance(engine, ReorderingEngine):
            self.arm(engine.inner)
        elif isinstance(engine, PartitionedEngine):
            blank = engine._blank_sub_engine
            engine._blank_sub_engine = lambda: self.arm(blank())
            for sub in engine._partitions.values():
                self.arm(sub)
        elif isinstance(engine, OutOfOrderEngine):
            engine.purger = _CrashingPurger(engine.purger, self)
            engine._bound = None  # the event loop bound the old purger
        elif isinstance(engine, InOrderEngine):
            purge = engine._purge

            def crashing_purge() -> int:
                self.on_purge()
                return purge()

            engine._purge = crashing_purge
        else:
            raise ReproError(
                f"cannot arm purge crash point on {type(engine).__name__}"
            )
        return engine

    # -- stream transforms ------------------------------------------------------------

    def wrap(self, elements: Iterable[StreamElement]) -> Iterator[StreamElement]:
        """Apply corruption and clock faults to an element stream.

        Indices count *all* stream elements (events and punctuations);
        only events are corrupted, duplicated or clock-clamped —
        punctuations pass through untouched.  A duplicated event is
        redelivered *after* any clock clamping, so both copies are
        byte-identical (the redelivery an at-least-once transport
        produces is a copy of what was sent, not a fresh read).
        """
        max_ts = 0
        for index, element in enumerate(elements):
            if not isinstance(element, Event):
                yield element
                continue
            if index in self.corrupt_at:
                yield corrupt_event(element, self.corrupt_shape)
                continue
            if type(element.ts) is int and element.ts > max_ts:
                if self.stuck_clock_at is None or index <= self.stuck_clock_at:
                    max_ts = element.ts
            if (
                self.stuck_clock_at is not None
                and index > self.stuck_clock_at
                and element.ts > max_ts
            ):
                delivered = Event(element.etype, max_ts, element.attrs, eid=element.eid)
            else:
                delivered = element
            yield delivered
            if index in self.duplicate_at:
                yield delivered
