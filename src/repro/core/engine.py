"""The out-of-order engine: the paper's contribution, assembled.

:class:`OutOfOrderEngine` evaluates one ``SEQ`` pattern over a stream
whose arrival order may diverge from occurrence order, bounded by a
disorder promise K.  Per arriving element it performs:

1. **clock & lateness** — advance the stream clock; elements older than
   the safe horizon violate the K promise and are handled per
   :class:`LatePolicy`;
2. **sequence scan** — admission to the ts-sorted stacks (positive
   steps) and/or the negative store (negated types), plus feasibility
   probes (``repro.core.scan``);
3. **sequence construction** — exactly-once match enumeration triggered
   by the insertion (``repro.core.construction``);
4. **negation routing** — matches with unsealed negation brackets are
   parked in the pending buffer; sealed ones are checked against the
   negative store and emitted or cancelled (``repro.core.negation``);
5. **seal release** — the advanced horizon may ripen previously parked
   matches;
6. **purge** — state provably useless at the new horizon is dropped,
   per the configured :class:`PurgePolicy` (``repro.core.purge``).

The engine is single-threaded and deterministic: identical input
sequences produce identical outputs, counters and state trajectories,
which the record/replay substrate and the benchmarks rely on.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.core import snapshot as snapshots
from repro.core.clock import StreamClock
from repro.core.errors import (
    ConfigurationError,
    DisorderBoundViolation,
    EngineStateError,
    SnapshotError,
)
from repro.core.event import (
    Event,
    Punctuation,
    StreamElement,
    admission_error,
    malformed_reason,
)
from repro.core.negation import collect_kleene, PendingMatches, seal_point, violated
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgeMode, PurgePolicy, Purger
from repro.core.scan import SequenceScanner
from repro.core.construction import SequenceConstructor
from repro.core.shedding import ShedMode, ShedPolicy
from repro.core.speculate import (
    RETRACT_EMPTY_KLEENE,
    RETRACT_NEGATION,
    SpeculationLog,
)
from repro.core.stacks import Instance, NegativeStore, StackSet
from repro.core.stats import EngineStats


class LatePolicy(enum.Enum):
    """What to do with an event that violates the disorder bound K."""

    RAISE = "raise"  #: raise DisorderBoundViolation (strict deployments)
    DROP = "drop"  #: count it (stats.late_dropped) and ignore it
    PROCESS = "process"  #: best effort — process anyway; results involving
    #: already-purged state are silently incomplete


class ValidationPolicy(enum.Enum):
    """What to do with a malformed stream element at admission.

    Events built through :class:`~repro.core.event.Event` are validated
    at construction, but elements deserialised from the network or a
    damaged trace can carry negative/NaN/non-int timestamps or a missing
    type — shapes that would silently corrupt timestamp-ordered state
    (heap order in reorder buffers, bisect positions in sorted stacks).
    Every engine therefore screens admissions
    (:func:`~repro.core.event.malformed_reason`); this policy decides
    the response.  Set ``engine.validation`` before feeding.
    """

    RAISE = "raise"  #: raise StreamError (default: fail fast)
    QUARANTINE = "quarantine"  #: count in stats.events_quarantined and skip


class EmissionRecord(NamedTuple):
    """Bookkeeping for one emitted match (drives the latency metrics)."""

    match: Match
    emitted_seq: int  #: engine arrival index at emission time
    emitted_clock: int  #: stream clock (max occurrence ts) at emission time


class Engine:
    """Common engine surface shared by every strategy in this library.

    Each engine processes events in one place, :meth:`_loop`: ``feed``
    runs an event through it as a batch of one, and engines with a
    fused loop (:class:`OutOfOrderEngine`, ``InOrderEngine``) run whole
    batches through it from ``feed_batch``.  Engines without one
    implement :meth:`_process_event`, which the base loop calls per
    event.  Punctuations go through :meth:`_punctuate`, which calls
    :meth:`_on_punctuation`.  Subclasses may extend
    :meth:`_on_punctuation` / :meth:`_flush`.  The shared surface keeps
    the bench harness strategy-agnostic.
    """

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.stats = EngineStats()
        self.results: List[Match] = []
        self.emissions: List[EmissionRecord] = []
        self.validation = ValidationPolicy.RAISE
        self._arrival = 0
        self._closed = False
        # Retained state after the last element fed (left by the event
        # loop, by _punctuate(), and by restore()).  The fused loops
        # start their running count from it, and a wrapper summing
        # sub-engines reads one feed's size change without re-counting
        # (PartitionedEngine's running total).
        self._fed_size = 0  # repro: ignore[R001] -- derived count, rebuilt on restore
        # Observability bundle (repro.obs.hooks.Observability), attached
        # via enable_observability().  None by default: the disabled hot
        # path pays exactly one attribute check per element.
        self._obs = None

    # -- public API ------------------------------------------------------------

    def feed(self, element: StreamElement) -> List[Match]:
        """Process one stream element; returns matches emitted *now*.

        An event runs through the engine's event loop as a batch of
        one, which screens it; anything else goes to :meth:`_punctuate`.
        """
        if self._closed:
            raise EngineStateError(f"{type(self).__name__} is closed")
        if self._obs is not None:
            return self._obs.feed(self, element)
        if isinstance(element, Event):
            return self._loop((element,))
        return self._punctuate(element)

    def feed_batch(self, elements: Iterable[StreamElement]) -> List[Match]:
        """Process a batch of elements; returns matches emitted during it.

        Semantically identical to ``for x in elements: feed(x)`` —
        emissions, counters and state trajectories match element for
        element.  Engines with a fused loop run the whole batch through
        it (the same loop ``feed`` runs each event through); the rest
        feed element by element.
        """
        emitted: List[Match] = []
        for element in elements:
            emitted.extend(self.feed(element))
        return emitted

    def feed_many(self, elements: Iterable[StreamElement]) -> List[Match]:
        """Feed every element; returns all matches emitted during the run."""
        return self.feed_batch(elements)

    def close(self) -> List[Match]:
        """End of stream: release everything still pending, then seal the engine."""
        if self._closed:
            return []
        emitted = self._flush()
        self._closed = True
        if self._obs is not None:
            self._obs.after_close(self, emitted)
        return emitted

    def run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """feed_many + close in one call; returns the complete result list."""
        emitted = self.feed_many(elements)
        emitted.extend(self.close())
        return emitted

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def arrival_index(self) -> int:
        """Number of events fed so far (the engine's logical arrival clock)."""
        return self._arrival

    def result_set(self) -> Set[Tuple]:
        """Identity set of emitted matches, for oracle comparison."""
        return {m.key() for m in self.results}

    def state_size(self) -> int:
        """Total retained state in instances/events (memory experiments)."""
        raise NotImplementedError

    # -- observability -----------------------------------------------------------

    def enable_observability(self, tracer=None, metrics=None):
        """Attach lifecycle tracing and/or a metrics registry.

        *tracer* is a :class:`repro.obs.Tracer` (or None for metrics
        only); *metrics* is a :class:`repro.obs.MetricsRegistry` (or
        None for tracing only).  Returns the attached bundle.  Each
        element is then fed singly and classified around the engine's
        own event loop — identical results and counters, at
        instrumented cost.
        """
        from repro.obs.hooks import Observability

        self._obs = Observability(self, tracer=tracer, registry=metrics)
        return self._obs

    @property
    def observability(self):
        """The attached bundle, or None when running uninstrumented."""
        return self._obs

    # -- checkpoint / restore ----------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the engine's full deterministic state.

        A fresh engine constructed with the *same configuration* (same
        pattern, K, policies) and then :meth:`restore`\\ d from the blob
        behaves byte-identically on every subsequent element — same
        emissions, same counters, same state trajectory.  The pattern
        itself is not serialised (predicates may be closures); only its
        fingerprint travels, verified at restore time.
        """
        return snapshots.pack(self, self._snapshot_config(), self._snapshot_state())

    def restore(self, blob: bytes) -> None:
        """Load state from :meth:`snapshot`.

        Raises :class:`~repro.core.errors.SnapshotError` when the blob
        is corrupt or was taken from a different engine class or
        configuration.
        """
        self._restore_state(snapshots.unpack(self, blob))
        self._fed_size = self.state_size()

    def _snapshot_config(self) -> dict:
        """Construction-time identity, verified (not restored) on restore."""
        return {
            "pattern": snapshots.pattern_fingerprint(self.pattern),
            "validation": self.validation.value,
        }

    def _snapshot_state(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _restore_state(self, state: dict) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _base_state(self) -> dict:
        """State every engine shares: flow counters and the emission history."""
        state = {
            "arrival": self._arrival,
            "closed": self._closed,
            "stats": self.stats.as_dict(),
            "results": [snapshots.encode_match(m) for m in self.results],
            "emissions": [(r.emitted_seq, r.emitted_clock) for r in self.emissions],
        }
        # Metrics ride along so a crash-recovered engine resumes its
        # counters and histograms, not just its match state.
        if self._obs is not None and self._obs.registry is not None:
            state["metrics"] = self._obs.registry.snapshot_state()
        return state

    def _restore_base(self, state: dict) -> None:
        self._arrival = state["arrival"]
        self._closed = state["closed"]
        self.stats.restore_from(state["stats"])
        self.results = [self._decode_match(s) for s in state["results"]]
        if len(state["emissions"]) != len(self.results):
            raise SnapshotError(
                "snapshot is internally inconsistent: "
                f"{len(state['emissions'])} emission records for "
                f"{len(self.results)} results"
            )
        self.emissions = [
            EmissionRecord(match, seq, clk)
            for match, (seq, clk) in zip(self.results, state["emissions"])
        ]
        # Restore in place: handles registered before the snapshot was
        # taken (by this engine, the runner, the shed policy) stay valid.
        if self._obs is not None and self._obs.registry is not None:
            if "metrics" in state:
                self._obs.registry.restore_state(state["metrics"])

    def _decode_match(self, encoded: dict) -> Match:
        return snapshots.decode_match(self.pattern, encoded)

    # -- subclass hooks ----------------------------------------------------------

    def _loop(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's event loop; leaves ``_fed_size`` at the state after it.

        ``feed`` passes one event, unscreened.  This base loop screens
        each event and hands it to :meth:`_process_event`; engines with
        a fused loop override it to take whole batches, punctuations
        included, and screen inline.
        """
        emitted: List[Match] = []
        stats = self.stats
        for event in elements:
            if malformed_reason(event) is not None:
                if self.validation is ValidationPolicy.QUARANTINE:
                    stats.events_quarantined += 1
                    continue
                raise admission_error(event)
            self._arrival += 1
            stats.events_in += 1
            emitted.extend(self._process_event(event))
            size = self._fed_size = self.state_size()
            stats.note_state_size(size)
        return emitted

    def _punctuate(self, punctuation: Punctuation) -> List[Match]:
        """Screen and apply one punctuation; leaves ``_fed_size`` current.

        Shared by ``feed``, the fused loops (a punctuation ends a run of
        events) and the partition router.  A malformed element that is
        not an event lands here too and is quarantined or raised on.
        """
        stats = self.stats
        if malformed_reason(punctuation) is not None:
            if self.validation is ValidationPolicy.QUARANTINE:
                stats.events_quarantined += 1
                return []
            raise admission_error(punctuation)
        stats.punctuations_in += 1
        emitted = self._on_punctuation(punctuation)
        size = self._fed_size = self.state_size()
        stats.note_state_size(size)
        return emitted

    def _process_event(self, event: Event) -> List[Match]:
        raise NotImplementedError

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        return []

    def _flush(self) -> List[Match]:
        return []

    def _emit(self, match: Match, clock_now: int) -> None:
        self.results.append(match)
        self.emissions.append(EmissionRecord(match, self._arrival, clock_now))
        self.stats.matches_emitted += 1


class OutOfOrderEngine(Engine):
    """Native out-of-order SSC engine (the paper's proposal).

    Parameters
    ----------
    pattern:
        The compiled query.
    k:
        Disorder bound: an event with occurrence time ``t`` is promised
        to arrive while ``max_seen_ts <= t + k``.  ``None`` disables the
        K promise (state is retained until punctuated or closed).
    purge:
        Purge schedule (default eager).  A fresh default is created per
        engine — policies hold schedule state and must not be shared.
    late_policy:
        Handling of K-promise violations (default DROP).
    optimize_scan / optimize_construction:
        The paper's CPU optimisations; disable for ablation (E6).
    index:
        Equality-index pushdown for construction (E19): stacks for
        steps joined by attribute equality maintain value → posting
        list indexes, and construction fetches candidates by hash
        probe instead of range scan.  Disable for ablation; results
        are identical either way.
    shed:
        Optional :class:`~repro.core.shedding.ShedPolicy`: when the
        retained store size (stacks + side stores) exceeds the policy's
        bound after an element is processed, stored elements are shed —
        lossy but bounded degradation instead of unbounded growth.  Shed
        casualties are counted in ``stats.events_shed``.
    speculative:
        Opt-in optimistic mode (``repro.core.speculate``): matches with
        unsealed brackets are additionally emitted into a speculative
        side stream the moment construction completes, and a retraction
        record is issued if the seal-time decision later disagrees.  The
        sealed output (``results`` / ``emissions``) is byte-identical
        to a non-speculative run — the speculative stream is strictly
        additive.
    controller:
        Optional quality-driven bound policy
        (:class:`~repro.streams.controller.AdaptiveKController`): fed
        every arrival, consulted at each punctuation boundary, where it
        may re-freeze K (via :meth:`StreamClock.refreeze`, horizon kept
        monotone) and toggle speculation.  Cloned at attachment, so one
        configured instance can parameterise many engines.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        late_policy: LatePolicy = LatePolicy.DROP,
        optimize_scan: bool = True,
        optimize_construction: bool = True,
        index: bool = True,
        shed: Optional[ShedPolicy] = None,
        speculative: bool = False,
        controller=None,
    ) -> None:
        super().__init__(pattern)
        if not isinstance(late_policy, LatePolicy):
            raise ConfigurationError(f"late_policy must be a LatePolicy, got {late_policy!r}")
        if shed is not None and not isinstance(shed, ShedPolicy):
            raise ConfigurationError(f"shed must be a ShedPolicy, got {shed!r}")
        if controller is not None and not (
            callable(getattr(controller, "observe", None))
            and callable(getattr(controller, "refreeze", None))
            and callable(getattr(controller, "clone", None))
        ):
            raise ConfigurationError(
                f"controller must provide observe/refreeze/clone, got {controller!r}"
            )
        self._initial_k = k
        self.speculation = SpeculationLog() if speculative else None
        # Cloned like the purge policy: controllers hold decision state.
        self._controller = controller.clone() if controller is not None else None
        if k is None and self._controller is not None:
            # A controller manages a concrete bound; start from its
            # cold-start recommendation rather than "no promise".
            k = self._controller.recommended_k()
        self.clock = StreamClock(k)
        self.late_policy = late_policy
        self.shed = shed
        # Cloned: due() mutates schedule state, so engines must not share
        # the caller's policy object (see PurgePolicy.clone).
        self.purge_policy = (purge if purge is not None else PurgePolicy.eager()).clone()
        self.scanner = SequenceScanner(pattern, optimize=optimize_scan)
        self.constructor = SequenceConstructor(
            pattern, optimize=optimize_construction, index=index
        )
        # Stacks index exactly the attributes the construction plan will
        # probe (None when the plan uses no lookups — plain stacks then).
        self.stacks = StackSet(
            pattern.length, indexed_attrs=self.constructor.indexed_attrs
        )
        self.negatives = NegativeStore(pattern.negated_types)
        # Kleene elements live in their own ts-sorted store, consulted at
        # seal time exactly like negatives (same retention proof).
        self.kleene_store = NegativeStore(pattern.kleene_types)
        # Without negated or Kleene steps both stores stay empty, and
        # state_size() (read after every feed) skips them.
        self._has_brackets = bool(pattern.negated_types or pattern.kleene_types)
        self.pending = PendingMatches()
        self.purger = Purger(pattern.within, pattern.length)
        # The event loop's construction-time invariants, bound on first
        # use by _bind() and dropped whenever a bound store is replaced.
        self._bound: Optional[tuple] = None  # repro: ignore[R001] -- derived binding, rebuilt after restore

    # -- state -------------------------------------------------------------------

    def state_size(self) -> int:
        size = self.stacks.size() + len(self.pending)
        if self._has_brackets:
            size += self.negatives.size() + self.kleene_store.size()
        return size

    # -- checkpoint / restore -----------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config.update(
            {
                # Construction-time K: with a controller attached the
                # *live* bound is state (clock carries it), not identity.
                "k": self._initial_k,
                "late_policy": self.late_policy.value,
                "purge": (self.purge_policy.mode.value, self.purge_policy.interval),
                "optimize_scan": self.scanner.optimize,
                "optimize_construction": self.constructor.optimize,
                "index": self.constructor.index,
                "shed": self.shed.fingerprint() if self.shed is not None else None,
                "speculative": self.speculation is not None,
                "controller": (
                    self._controller.fingerprint()
                    if self._controller is not None
                    else None
                ),
            }
        )
        return config

    def _snapshot_state(self) -> dict:
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "purge_policy": self.purge_policy.snapshot_state(),
                "stacks": self.stacks.snapshot_state(),
                "negatives": self.negatives.snapshot_state(),
                "kleene": self.kleene_store.snapshot_state(),
                "pending": self.pending.snapshot_state(snapshots.encode_match),
            }
        )
        if self.speculation is not None:
            state["speculation"] = self.speculation.snapshot_state(
                snapshots.encode_match
            )
        if self._controller is not None:
            state["controller"] = self._controller.snapshot_state()
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self.purge_policy.restore_state(state["purge_policy"])
        self.stacks.restore_state(state["stacks"])
        self.negatives.restore_state(state["negatives"])
        self.kleene_store.restore_state(state["kleene"])
        self.pending.restore_state(state["pending"], self._decode_match)
        # Config equality (verified by unpack) guarantees these keys
        # exist exactly when the components do.
        if self.speculation is not None:
            self.speculation.restore_state(state["speculation"], self._decode_match)
        if self._controller is not None:
            self._controller.restore_state(state["controller"])
        # The stacks' key lists and the pending heap were rebuilt.
        self._bound = None
        self._fed_size = self.state_size()

    # -- load shedding ------------------------------------------------------------

    def _shed_overflow(self) -> int:
        """Drop stored elements until the configured state bound holds.

        Runs after each processed element when a :class:`ShedPolicy` is
        configured, and returns how many stored elements it dropped (the
        event loop keeps its running state count with it).  Purely a
        function of retained state and the policy, so shed engines stay
        deterministic (and snapshot-restorable).
        Pending matches are results-in-waiting, not reconstructible
        store state, so they are never shed and do not count against the
        bound.
        """
        policy = self.shed
        stored = self.stacks.size() + self.negatives.size() + self.kleene_store.size()
        excess = stored - policy.max_state
        if excess <= 0:
            return 0
        shed = 0
        # Victim preview is tracing-only: the uninstrumented path never
        # materialises these lists.
        collect = self._obs is not None and self._obs.tracing
        casualties: List[Event] = []
        if policy.mode is ShedMode.DROP_BY_TYPE:
            for victim in policy.victims:
                if excess <= 0:
                    break
                for index, step in enumerate(self.pattern.positive_steps):
                    if excess > 0 and step.etype == victim:
                        if collect:
                            casualties.extend(self.stacks[index].oldest_events(excess))
                        dropped = self.stacks[index].drop_oldest(excess)
                        shed += dropped
                        excess -= dropped
                if excess > 0:
                    if collect:
                        casualties.extend(self.negatives.oldest_events(victim, excess))
                    dropped = self.negatives.drop_oldest(victim, excess)
                    shed += dropped
                    excess -= dropped
                if excess > 0:
                    if collect:
                        casualties.extend(
                            self.kleene_store.oldest_events(victim, excess)
                        )
                    dropped = self.kleene_store.drop_oldest(victim, excess)
                    shed += dropped
                    excess -= dropped
        # DROP_OLDEST, and the fallback when the victim types alone
        # cannot meet the bound: repeatedly drop the globally oldest
        # stored element (closest to its purge threshold, so the least
        # expected future-match loss).
        while excess > 0:
            best_key = None
            victim_stack = None
            victim_store = None
            victim_type = None
            for stack in self.stacks:
                if len(stack) and (best_key is None or stack._keys[0] < best_key):
                    best_key = stack._keys[0]
                    victim_stack, victim_store = stack, None
            for store in (self.negatives, self.kleene_store):
                entry = store.oldest_type()
                if entry is not None and (best_key is None or entry[0] < best_key):
                    best_key, victim_stack = entry[0], None
                    victim_store, victim_type = store, entry[1]
            if best_key is None:
                break
            if victim_stack is not None:
                if collect:
                    casualties.extend(victim_stack.oldest_events(1))
                shed += victim_stack.drop_oldest(1)
            else:
                if collect:
                    casualties.extend(victim_store.oldest_events(victim_type, 1))
                shed += victim_store.drop_oldest(victim_type, 1)
            excess -= 1
        self.stats.events_shed += shed
        if collect and casualties:
            self._obs.note_shed(self, casualties)
        return shed

    # -- processing ----------------------------------------------------------------

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted: List[Match] = []
        if self._ripe_possible():
            self._release_ripe(emitted)
        if self.purge_policy.due():
            if self._obs is not None:
                self._obs.note_purge(self)
            self.purger.run(
                self.clock.horizon(), self.stacks, self.negatives,
                self.stats, kleene=self.kleene_store,
            )
        if self.shed is not None:
            self._shed_overflow()
        if self._controller is not None:
            self._refreeze(punctuation, emitted)
        if self.speculation is not None:
            # The punctuation closes a re-freeze epoch; later records
            # carry the new epoch id.
            self.speculation.epoch += 1
        return emitted

    def _refreeze(self, punctuation: Punctuation, emitted: List[Match]) -> None:
        """Apply the controller's end-of-epoch decision."""
        decision = self._controller.refreeze(
            punctuation.ts, self.clock.k, self.stats
        )
        if decision is None:
            return
        if decision.k != self.clock.k:
            before = self.clock.horizon()
            self.clock.refreeze(decision.k)
            if self.clock.horizon() > before:
                # A shrunk bound seals immediately, not at the next
                # arrival — that advance is the latency the controller
                # is buying.
                self._release_ripe(emitted)
        if self.speculation is not None:
            self.speculation.enabled = decision.speculate
        if self._obs is not None:
            self._obs.note_refreeze(self, decision)

    def _post_event(self, event: Event) -> None:
        """Per-event subclass hook, called by :meth:`_loop` after each event.

        Runs for late-dropped events too; the aggressive engine's
        revocation scan overrides it.  The loop pays the call only when
        a subclass overrides it.
        """

    def _ripe_possible(self) -> bool:
        """True when :meth:`_release_ripe` could do any work right now.

        Skipping the release call while nothing is pending is safe:
        ``stats.matches_pending`` is maintained at every transition, so
        an empty buffer implies the counter already reads zero.
        """
        return bool(self.pending._heap)

    def feed_batch(self, elements: Iterable[StreamElement]) -> List[Match]:
        """Run the whole batch through :meth:`_loop`, the loop ``feed`` uses.

        With observability attached each element is fed singly, so the
        bundle can classify it; its events still run through the loop.
        """
        if self._closed:
            raise EngineStateError(f"{type(self).__name__} is closed")
        if self._obs is not None:
            return Engine.feed_batch(self, elements)
        return self._loop(elements)

    def _bind(self) -> tuple:
        """Bind :meth:`_loop`'s construction-time invariants, once per engine.

        These are the stores and their key lists, the pending heap, the
        dispatch table, the purge/scan/construct callables, the
        pattern's type sets and window, and which per-event hooks a
        subclass overrides.  Restoring a snapshot rebuilds the key lists
        and the heap, so :meth:`_restore_state` drops the binding (so
        does arming a fault injector, which swaps the purger).
        """
        pattern = self.pattern
        stacks = self.stacks
        negatives = self.negatives
        kleene = self.kleene_store
        purge_policy = self.purge_policy
        purge_mode = purge_policy.mode
        # The engine's own methods are bound as class functions the loop
        # calls with ``self``: bound methods here would make the engine
        # a reference cycle, freed only by the cyclic collector.
        cls = type(self)
        bound = self._bound = (
            self.stats,
            self.clock,
            stacks,
            stacks.stacks,
            [stack._keys for stack in stacks.stacks],
            self.pending._heap,
            purge_policy,
            self.purger.run,
            self.scanner.optimize,
            self.constructor.construct,
            cls._route,
            cls._release_ripe,
            self.scanner._dispatch,
            pattern.relevant_types,
            pattern.negated_types,
            pattern.kleene_types,
            # Stores a pattern never fills are not handed to the purger.
            negatives if pattern.negated_types else None,
            kleene if pattern.kleene_types else None,
            negatives.insert,
            kleene.insert,
            pattern.within,
            pattern.length - 1,
            range(pattern.length),
            purge_mode is PurgeMode.EAGER,
            purge_mode is PurgeMode.LAZY,
            purge_policy.interval,
            # Subclass hooks: the loop pays the per-event call only when
            # they are overridden.
            cls._post_event
            if cls._post_event is not OutOfOrderEngine._post_event
            else None,
            cls._ripe_possible
            if cls._ripe_possible is not OutOfOrderEngine._ripe_possible
            else None,
        )
        return bound

    def _loop(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's one event loop: the module docstring's six steps.

        ``feed`` runs each event through it as a batch of one and
        ``feed_batch`` runs whole batches, so emissions, every counter,
        the state trajectory and even exceptions are identical however
        a stream is split (the batch property suite pins this).  The
        amortisations are purely mechanical:

        * construction-time invariants are bound once per engine
          (:meth:`_bind`); per call the loop reads only what a caller
          may change (late policy, validation, shedding, controller,
          observability), and clock arithmetic and purge scheduling are
          hoisted out of the per-element path;
        * admission uses the scanner's pre-resolved per-type dispatch
          table instead of re-deriving step lists per arrival;
        * purge scans that provably cannot drop anything (horizon
          unmoved, no insert at or below a purge threshold) are elided,
          keeping only their schedule bookkeeping;
        * retained state is a running count, started from the
          ``_fed_size`` every feed, punctuation and restore leaves
          current, instead of re-summing every store per element.

        A punctuation ends a run of events: the hoisted counters are
        flushed, :meth:`_punctuate` applies it (a controller may
        re-freeze K there), and the next run re-reads the clock.  The
        stream clock is advanced exactly as per element, so lateness
        decisions and seal timing never depend on how the stream was
        batched.
        """
        (
            stats, clock, stacks, stack_list, stack_keys, pending_heap,
            purge_policy, purge, probe, construct, route, release_ripe,
            dispatch, relevant_types, negated_types, kleene_types,
            side_negatives, side_kleene, neg_insert, kleene_insert,
            window, final_step, step_range, purge_eager, purge_lazy,
            purge_interval, post_event, ripe_possible,
        ) = self._bound or self._bind()
        late_policy = self.late_policy
        drop_late = late_policy is LatePolicy.DROP
        raise_late = late_policy is LatePolicy.RAISE
        quarantine = self.validation is ValidationPolicy.QUARANTINE
        obs = self._obs
        shed = self.shed
        # The controller sees every arrival before lateness triage, so
        # its estimator learns the delays the current bound drops.
        controller = self._controller
        observe = controller.observe if controller is not None else None
        emitted: List[Match] = []
        iterator = iter(elements)
        while True:
            # Clock state, mirrored locally; writes go through so
            # emission bookkeeping (clock.now at _decide time) stays
            # exact.  K is re-read per run: a re-freeze may change it.
            k = clock._k
            max_ts = clock._max_ts
            horizon = clock.horizon()
            since_last = purge_policy._since_last
            store_size = self._fed_size - len(pending_heap)
            peak = stats.peak_state_size
            # Flow counters, accumulated locally and flushed per run.
            observations = quarantined = 0
            events_in = events_admitted = events_ignored = 0
            late_dropped = out_of_order = 0
            elided_purges = skipped_by_probe = 0
            # Purge elision: a due purge is skipped (bookkeeping only)
            # when the horizon has not advanced past the last scanned
            # one and no insert landed at or below a purge threshold.
            purged_at = -2
            dirty = True
            punctuation: Optional[Punctuation] = None
            try:
                for element in iterator:
                    if not isinstance(element, Event):
                        punctuation = element
                        break
                    ts = element.ts
                    etype = element.etype
                    # Inlined admission screen (mirrors malformed_reason).
                    if (
                        type(ts) is not int
                        or ts < 0
                        or not isinstance(etype, str)
                        or not etype
                    ):
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    self._arrival += 1
                    events_in += 1
                    if observe is not None:
                        observe(element)
                    was_late = ts <= horizon
                    if was_late:
                        if raise_late:
                            raise DisorderBoundViolation(element, max_ts, k or 0)
                        late_dropped += 1
                        if drop_late:
                            if post_event is not None:
                                post_event(self, element)
                            continue
                        # LatePolicy.PROCESS: best effort, falls through.
                    observations += 1
                    if ts > max_ts:
                        max_ts = ts
                        clock._max_ts = ts
                        if k is not None:
                            advanced = ts - k - 1
                            if advanced > horizon:
                                horizon = advanced
                    elif ts < max_ts:
                        out_of_order += 1

                    if etype not in relevant_types:
                        events_ignored += 1
                    else:
                        side_stored = False
                        if etype in negated_types:
                            neg_insert(element)
                            side_stored = True
                            store_size += 1
                        if etype in kleene_types:
                            kleene_insert(element)
                            side_stored = True
                            store_size += 1
                        admitted = False
                        entries = dispatch.get(etype)
                        if entries:
                            instance = None
                            for step_index, var, predicates in entries:
                                if predicates:
                                    bindings = {var: element}
                                    ok = True
                                    for predicate in predicates:
                                        if not predicate.evaluate(bindings):
                                            ok = False
                                            break
                                    if not ok:
                                        continue
                                if instance is None:
                                    instance = Instance(element, self._arrival)
                                admitted = True
                                stack_list[step_index].insert(instance)
                                store_size += 1
                                if was_late or (
                                    step_index == final_step and ts <= horizon + 1
                                ):
                                    dirty = True
                                # Inlined feasibility probe (mirrors
                                # SequenceScanner.construction_feasible).
                                ok = True
                                if probe:
                                    for j in step_range:
                                        if j == step_index:
                                            continue
                                        if j < step_index:
                                            lo = ts - window
                                            hi = ts - 1
                                        else:
                                            lo = ts + 1
                                            hi = ts + window
                                        keys = stack_keys[j]
                                        index = bisect_left(keys, (lo, -1))
                                        if index >= len(keys) or keys[index][0] > hi:
                                            ok = False
                                            skipped_by_probe += 1
                                            break
                                if ok:
                                    for match in construct(
                                        stacks, step_index, instance, stats
                                    ):
                                        route(self, match, emitted)
                        if was_late and side_stored:
                            dirty = True
                        if admitted or side_stored:
                            events_admitted += 1
                        else:
                            events_ignored += 1

                    if pending_heap or (
                        ripe_possible is not None and ripe_possible(self)
                    ):
                        release_ripe(self, emitted)
                    if purge_eager:
                        due = True
                    elif purge_lazy:
                        since_last += 1
                        if since_last >= purge_interval:
                            since_last = 0
                            due = True
                        else:
                            due = False
                    else:
                        due = False
                    if due and horizon >= 0:
                        if obs is not None:
                            obs.note_purge(self)
                        if dirty or horizon > purged_at:
                            store_size -= purge(
                                horizon, stacks, side_negatives, stats, side_kleene
                            )
                            purged_at = horizon
                            dirty = False
                        else:
                            elided_purges += 1
                    if shed is not None:
                        store_size -= self._shed_overflow()
                    size_now = store_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
                    if post_event is not None:
                        post_event(self, element)
            finally:
                clock._observations += observations
                purge_policy._since_last = since_last
                self._fed_size = store_size + len(pending_heap)
                stats.peak_state_size = peak
                # A batch of one leaves most counters at zero; skip those.
                if events_in:
                    stats.events_in += events_in
                    stats.events_admitted += events_admitted
                    stats.events_ignored += events_ignored
                    stats.purge_runs += elided_purges
                    if late_dropped:
                        stats.late_dropped += late_dropped
                    if out_of_order:
                        stats.out_of_order_events += out_of_order
                    if skipped_by_probe:
                        stats.construction_skipped_by_probe += skipped_by_probe
                if quarantined:
                    stats.events_quarantined += quarantined
            if punctuation is None:
                return emitted
            emitted.extend(self._punctuate(punctuation))

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        for match in self.pending.drain():
            self._decide(match, emitted)
        self.stats.matches_pending = 0
        return emitted

    # -- negation routing ----------------------------------------------------------

    def _route(self, match: Match, emitted: List[Match]) -> None:
        point = seal_point(self.pattern, match)
        if point <= self.clock.horizon():
            self._decide(match, emitted)
        else:
            self.pending.add(match, point)
            self.stats.matches_pending = len(self.pending)
            if self._obs is not None:
                self._obs.note_pending(self, match, point)
            if self.speculation is not None and self.speculation.enabled:
                self._speculate(match)

    def _speculate(self, match: Match) -> None:
        """Optimistically emit a just-parked match into the speculative stream.

        Speculation the stores already refute is suppressed — emitting a
        match whose bracket is known-violated would be a guaranteed
        retraction.  The store probes pass ``stats=None`` deliberately:
        speculative work must not perturb the pessimistic counters, so a
        speculative run stays comparable to a plain one.
        """
        if self.pattern.has_negation and violated(
            self.pattern, match, self.negatives, None
        ):
            return
        payload = match
        if self.pattern.has_kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, None
            )
            if collections is None:
                return
            payload = match.with_collections(collections)
        record = self.speculation.speculate(payload, self._arrival, self.clock.now)
        self.stats.speculative_emitted += 1
        if self._obs is not None:
            self._obs.note_speculated(self, record)

    def _retract(self, match: Match, cause: str) -> None:
        retraction = self.speculation.retract(
            match, cause, self._arrival, self.clock.now
        )
        if retraction is not None:
            self.stats.retractions_issued += 1
            if self._obs is not None:
                self._obs.note_retracted(self, retraction)

    def _seal_speculation(self, match: Match) -> None:
        outcome = self.speculation.seal(match, self._arrival, self.clock.now)
        if outcome.retraction is not None:
            self.stats.retractions_issued += 1
            if self._obs is not None:
                self._obs.note_retracted(self, outcome.retraction)
        if outcome.fresh:
            self.stats.speculative_emitted += 1
            if self._obs is not None:
                self._obs.note_speculated(self, outcome.record)

    def _decide(self, match: Match, emitted: List[Match]) -> None:
        if self.pattern.has_negation and violated(
            self.pattern, match, self.negatives, self.stats
        ):
            self.stats.matches_cancelled += 1
            if self.speculation is not None:
                self._retract(match, RETRACT_NEGATION)
            if self._obs is not None:
                self._obs.note_cancelled(self, match, "negation violated at seal")
            return
        if self.pattern.has_kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, self.stats
            )
            if collections is None:
                self.stats.matches_cancelled += 1
                if self.speculation is not None:
                    self._retract(match, RETRACT_EMPTY_KLEENE)
                if self._obs is not None:
                    self._obs.note_cancelled(self, match, "empty kleene collection")
                return
            match = match.with_collections(collections)
        if self.speculation is not None:
            self._seal_speculation(match)
        self._emit(match, self.clock.now)
        emitted.append(match)

    def _release_ripe(self, emitted: List[Match]) -> None:
        horizon = self.clock.horizon()
        for match in self.pending.release(horizon):
            self._decide(match, emitted)
        self.stats.matches_pending = len(self.pending)

    def __repr__(self) -> str:
        k = "∞" if self.clock.k is None else self.clock.k
        return (
            f"{type(self).__name__}({self.pattern.name!r}, k={k}, "
            f"clock={self.clock.now}, state={self.state_size()}, "
            f"matches={len(self.results)})"
        )
