"""In-order baseline: SASE-style SSC assuming ordered arrival.

This is the "state of the art" (circa 2006) the paper measures against:
a sequence-scan / sequence-construction engine whose correctness rests
on the assumption that **arrival order equals occurrence order**.

Architecture (faithful to the AIS design):

* per-step stacks are **append-only** in arrival order; each instance
  records a *rightmost instance pointer* (RIP) — the size of the
  previous step's stack at insertion time.  Construction follows RIP
  pointers, i.e. only considers combinations whose members arrived in
  step order;
* construction triggers **only on final-step arrivals**;
* purging and negation sealing are driven by the **raw clock** (max
  timestamp seen), the correct horizon when arrival is ordered.

The engine is given every benefit of the doubt: it checks strict
timestamp increase along a candidate combination (so it never emits a
temporally invalid sequence even when its ordering assumption is
broken) and evaluates the window and all ``WHERE`` predicates exactly.

What still breaks under out-of-order arrival — quantified in
experiment E1:

* **missed matches**: a late event is appended at the top of its stack,
  so RIP pointers of earlier-arrived later-step instances never reach
  it; matches whose latest-arriving member is not at the final step are
  never constructed; purge keyed on the raw clock may have already
  dropped the partners a late event needed;
* **false positives**: negation seals on the raw clock, so a match is
  released before a late negative event that invalidates it arrives.

On genuinely ordered input the engine is exactly correct (the test
suite pins it to the oracle), making it a fair throughput baseline at
zero disorder.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import snapshot as snapshots
from repro.core.clock import StreamClock
from repro.core.engine import Engine, ValidationPolicy
from repro.core.errors import EngineStateError
from repro.core.event import (
    Event,
    Punctuation,
    StreamElement,
    admission_error,
)
from repro.core.negation import collect_kleene, PendingMatches, seal_point, violated
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgeMode, PurgePolicy, Purger
from repro.core.stacks import NegativeStore


class _RipInstance:
    """Stack entry: the event plus the RIP into the previous stack."""

    __slots__ = ("event", "arrival", "rip")

    def __init__(self, event: Event, arrival: int, rip: int):
        self.event = event
        self.arrival = arrival
        self.rip = rip

    @property
    def ts(self) -> int:
        return self.event.ts


class InOrderEngine(Engine):
    """SASE-style engine: exactly correct on ordered streams, breaks on disorder."""

    def __init__(
        self,
        pattern: Pattern,
        purge: Optional[PurgePolicy] = None,
    ):
        super().__init__(pattern)
        # k=0: "arrival order equals occurrence order" as a clock promise.
        self.clock = StreamClock(k=0)
        # Cloned: due() mutates schedule state, so engines must not share
        # the caller's policy object (see PurgePolicy.clone).
        self.purge_policy = (purge if purge is not None else PurgePolicy.eager()).clone()
        self.stacks: List[List[_RipInstance]] = [[] for _ in range(pattern.length)]
        self.negatives = NegativeStore(pattern.negated_types)
        self.kleene_store = NegativeStore(pattern.kleene_types)
        self.pending = PendingMatches()
        self.purger = Purger(pattern.within, pattern.length)
        # Predicate pushdown for the RIP descent (SASE evaluates
        # predicates during construction, not on complete combos): a
        # predicate becomes checkable at the *earliest* positive step it
        # mentions, because descent binds steps from the last backwards.
        self._vars = [s.var for s in pattern.positive_steps]
        position = {var: i for i, var in enumerate(self._vars)}
        self._desc_staged: List[List] = [[] for _ in range(pattern.length)]
        for predicate in pattern.positive_predicates:
            earliest = min(position[v] for v in predicate.variables())
            self._desc_staged[earliest].append(predicate)
        # Event type → ((step_index, var, local predicates), …), so
        # admission is a single dict probe.  Local predicates are the
        # single-variable ones, resolved once here.
        local: List[Tuple] = []
        for step in pattern.positive_steps:
            staged = pattern.staged.get(step.var, [])
            local.append(tuple(p for p in staged if p.variables() == {step.var}))
        self._admission: Dict[str, Tuple] = {}
        for etype, steps in pattern.steps_of_type.items():
            self._admission[etype] = tuple(
                (index, self._vars[index], local[index]) for index in steps
            )
        # The event loop's construction-time invariants, bound on first
        # use by _bind() and dropped whenever a bound store is replaced.
        self._bound: Optional[tuple] = None  # repro: ignore[R001] -- derived binding, rebuilt after restore

    # -- state ---------------------------------------------------------------

    def state_size(self) -> int:
        stacked = 0
        for stack in self.stacks:
            stacked += len(stack)
        return (
            stacked
            + self.negatives.size()
            + self.kleene_store.size()
            + len(self.pending)
        )

    # -- checkpoint / restore -----------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config["purge"] = (self.purge_policy.mode.value, self.purge_policy.interval)
        return config

    def _snapshot_state(self) -> dict:
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "purge_policy": self.purge_policy.snapshot_state(),
                "stacks": [
                    [(i.event, i.arrival, i.rip) for i in stack]
                    for stack in self.stacks
                ],
                "negatives": self.negatives.snapshot_state(),
                "kleene": self.kleene_store.snapshot_state(),
                "pending": self.pending.snapshot_state(snapshots.encode_match),
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self.purge_policy.restore_state(state["purge_policy"])
        self.stacks = [
            [_RipInstance(event, arrival, rip) for event, arrival, rip in stack]
            for stack in state["stacks"]
        ]
        self.negatives.restore_state(state["negatives"])
        self.kleene_store.restore_state(state["kleene"])
        self.pending.restore_state(state["pending"], self._decode_match)
        # The stacks and the pending heap were rebuilt.
        self._bound = None
        self._fed_size = self.state_size()

    # -- processing -------------------------------------------------------------

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted: List[Match] = []
        self._release_ripe(emitted)
        if self.purge_policy.due():
            self._purge()
        return emitted

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        for match in self.pending.drain():
            self._decide(match, emitted)
        return emitted

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

        Restoring a snapshot rebuilds the stacks and the pending heap, so
        :meth:`_restore_state` drops the binding.
        """
        pattern = self.pattern
        purge_policy = self.purge_policy
        purge_mode = purge_policy.mode
        # Class functions the loop calls with ``self``: bound methods
        # here would make the engine a reference cycle.
        cls = type(self)
        bound = self._bound = (
            self.stats,
            self.clock,
            self.stacks,
            self.pending._heap,
            purge_policy,
            pattern.relevant_types,
            self._admission,
            pattern.negated_types,
            pattern.kleene_types,
            self.negatives.insert,
            self.kleene_store.insert,
            cls._construct,
            cls._route,
            pattern.within,
            pattern.length - 1,
            purge_mode is PurgeMode.EAGER,
            purge_mode is PurgeMode.LAZY,
            purge_policy.interval,
        )
        return bound

    def _loop(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's one event loop (``feed`` passes a batch of one).

        Same playbook as :meth:`OutOfOrderEngine._loop`: bind the
        construction-time invariants once per engine (:meth:`_bind`),
        hoist clock/purge arithmetic into locals, admit via the
        pre-resolved per-type table, keep retained state as a running
        count, accumulate flow counters locally (flushed per run of
        events), and elide purge scans that are provably no-ops
        (horizon unmoved and no insert landed at or below a purge
        threshold since the last scan — elided runs still count in
        ``stats.purge_runs``).  A punctuation ends a run of events and
        goes to :meth:`_punctuate`.
        """
        (
            stats, clock, stacks, pending_heap, purge_policy, relevant_types,
            admission, negated_types, kleene_types, neg_insert, kleene_insert,
            construct, route, window, final, purge_eager, purge_lazy,
            purge_interval,
        ) = self._bound or self._bind()
        quarantine = self.validation is ValidationPolicy.QUARANTINE
        emitted: List[Match] = []
        iterator = iter(elements)
        while True:
            max_ts = clock._max_ts
            horizon = clock.horizon()
            since_last = purge_policy._since_last
            store_size = self._fed_size - len(pending_heap)
            peak = stats.peak_state_size
            observations = quarantined = 0
            events_in = events_admitted = events_ignored = 0
            out_of_order = predicate_evals = 0
            # Purge-elision trackers: the horizon the last real scan ran
            # at, and whether any insert since could sit at/below a
            # threshold.
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
                    observations += 1
                    if ts > max_ts:
                        max_ts = ts
                        clock._max_ts = ts
                        advanced = ts - 1  # k = 0: horizon = max_ts - 1
                        if advanced > horizon:
                            horizon = advanced
                    elif ts < max_ts:
                        out_of_order += 1
                    if etype not in relevant_types:
                        events_ignored += 1
                    else:
                        admitted = False
                        if etype in negated_types:
                            neg_insert(element)
                            admitted = True
                            store_size += 1
                            if ts <= horizon - window:
                                dirty = True
                        if etype in kleene_types:
                            kleene_insert(element)
                            admitted = True
                            store_size += 1
                            if ts <= horizon - window:
                                dirty = True
                        entries = admission.get(etype)
                        if entries:
                            arrival = self._arrival
                            for step_index, var, predicates in entries:
                                if predicates:
                                    bindings = {var: element}
                                    ok = True
                                    for predicate in predicates:
                                        predicate_evals += 1
                                        if not predicate.evaluate(bindings):
                                            ok = False
                                            break
                                    if not ok:
                                        continue
                                admitted = True
                                rip = len(stacks[step_index - 1]) if step_index > 0 else 0
                                instance = _RipInstance(element, arrival, rip)
                                stacks[step_index].append(instance)
                                store_size += 1
                                if step_index == final:
                                    if ts <= horizon + 1:
                                        dirty = True
                                    for match in construct(self, instance):
                                        route(self, match, emitted)
                                elif ts <= horizon - window:
                                    dirty = True
                        if admitted:
                            events_admitted += 1
                        else:
                            events_ignored += 1
                    if pending_heap:
                        self._release_ripe(emitted)
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
                        if dirty or horizon > purged_at:
                            store_size -= self._purge()
                            purged_at = horizon
                            dirty = False
                        else:
                            stats.purge_runs += 1
                    size_now = store_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
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
                    if out_of_order:
                        stats.out_of_order_events += out_of_order
                    if predicate_evals:
                        stats.predicate_evaluations += predicate_evals
                if quarantined:
                    stats.events_quarantined += quarantined
            if punctuation is None:
                return emitted
            emitted.extend(self._punctuate(punctuation))

    # -- construction (RIP descent) --------------------------------------------------

    def _construct(self, trigger: _RipInstance) -> List[Match]:
        self.stats.construction_triggers += 1
        pattern = self.pattern
        matches: List[Match] = []
        bindings = {self._vars[-1]: trigger.event}
        if pattern.length == 1:
            if self._staged_ok(0, bindings):
                matches.append(
                    Match(pattern, [trigger.event], detected_at=trigger.arrival)
                )
            return matches
        if not self._staged_ok(pattern.length - 1, bindings):
            return matches
        suffix: List[_RipInstance] = [trigger]
        self._descend(pattern.length - 2, trigger, suffix, bindings, matches)
        return matches

    def _descend(
        self,
        step: int,
        trigger: _RipInstance,
        suffix: List[_RipInstance],
        bindings: dict,
        matches: List[Match],
    ) -> None:
        pattern = self.pattern
        newest = suffix[-1]
        # RIP: only instances that had arrived when `newest` was inserted.
        candidates = self.stacks[step][: newest.rip]
        floor = trigger.ts - pattern.within
        var = self._vars[step]
        for candidate in candidates:
            self.stats.partial_combinations += 1
            # Benefit of the doubt: strict timestamp increase is checked,
            # so broken ordering never yields an invalid sequence.
            if candidate.ts >= newest.ts or candidate.ts < floor:
                continue
            bindings[var] = candidate.event
            if not self._staged_ok(step, bindings):
                del bindings[var]
                continue
            suffix.append(candidate)
            if step == 0:
                events = [inst.event for inst in reversed(suffix)]
                matches.append(Match(pattern, events, detected_at=trigger.arrival))
            else:
                self._descend(step - 1, trigger, suffix, bindings, matches)
            suffix.pop()
            del bindings[var]

    def _staged_ok(self, step: int, bindings: dict) -> bool:
        """Predicates whose earliest mentioned step is *step* (pushdown)."""
        for predicate in self._desc_staged[step]:
            self.stats.predicate_evaluations += 1
            if not predicate.evaluate(bindings):
                return False
        return True

    # -- negation / purge ---------------------------------------------------------------

    def _route(self, match: Match, emitted: List[Match]) -> None:
        point = seal_point(self.pattern, match)
        if point <= self.clock.horizon():
            self._decide(match, emitted)
        else:
            self.pending.add(match, point)
            self.stats.matches_pending = len(self.pending)
            if self._obs is not None:
                self._obs.note_pending(self, match, point)

    def _decide(self, match: Match, emitted: List[Match]) -> None:
        if self.pattern.has_negation and violated(
            self.pattern, match, self.negatives, self.stats
        ):
            self.stats.matches_cancelled += 1
            if self._obs is not None:
                self._obs.note_cancelled(self, match, "negation violated at seal")
            return
        if self.pattern.has_kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, self.stats
            )
            if collections is None:
                self.stats.matches_cancelled += 1
                if self._obs is not None:
                    self._obs.note_cancelled(self, match, "empty kleene collection")
                return
            match = match.with_collections(collections)
        self._emit(match, self.clock.now)
        emitted.append(match)

    def _release_ripe(self, emitted: List[Match]) -> None:
        for match in self.pending.release(self.clock.horizon()):
            self._decide(match, emitted)
        self.stats.matches_pending = len(self.pending)

    def _purge(self) -> int:
        """Purge at the current horizon; returns how many stored elements went."""
        horizon = self.clock.horizon()
        if horizon < 0:
            return 0
        final = self.pattern.length - 1
        dropped = 0
        for index, stack in enumerate(self.stacks):
            threshold = horizon + 1 if index == final else horizon - self.pattern.within
            kept = []
            removed = 0
            for instance in stack:
                if instance.ts <= threshold:
                    removed += 1
                else:
                    kept.append(instance)
            if removed:
                # RIP pointers index into the previous stack; shifting that
                # stack left by `removed` requires rescaling the next
                # stack's pointers — the in-order engine does this under
                # its ordering assumption (purged entries are a prefix).
                if index + 1 < len(self.stacks):
                    for later in self.stacks[index + 1]:
                        later.rip = max(0, later.rip - removed)
                stack[:] = kept
                dropped += removed
        self.stats.instances_purged += dropped
        side = self.negatives.purge_through(horizon - self.pattern.within)
        side += self.kleene_store.purge_through(horizon - self.pattern.within)
        self.stats.negatives_purged += side
        self.stats.purge_runs += 1
        return dropped + side
