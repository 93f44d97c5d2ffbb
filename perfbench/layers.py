"""Which functions the traced run wraps, and the per-layer metrics it reports.

Layers are named after the modules that implement them.  Span names
group the wrapped functions; every ``.s`` metric is the self time of a
layer's spans (their duration less their traced children), corrected for
the wrapper cost each traced child adds to its parent.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.common import median, percentile, quarter_medians
from perfbench.tracer import Summary, Tracer

#: Every per-layer metric, in report order, with its unit.  A layer that
#: does no work on a workload reports 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("engine.feed.s", "s"),
    ("engine.feed.calls", "count"),
    ("engine.feed_batch.s", "s"),
    ("engine.state_size.s", "s"),
    ("engine.state_size.calls", "count"),
    ("engine.state_size.share", "ratio"),
    ("scan.s", "s"),
    ("scan.calls", "count"),
    ("stacks.insert.s", "s"),
    ("stacks.insert.calls", "count"),
    ("construction.s", "s"),
    ("construction.calls", "count"),
    ("construction.matches", "count"),
    ("construction.useful_ratio", "ratio"),
    ("negation.parked", "count"),
    ("negation.release.s", "s"),
    ("negation.release.calls", "count"),
    ("emit_delay_p50_ticks", "ticks"),
    ("emit_delay_p99_ticks", "ticks"),
    ("purge.s", "s"),
    ("purge.calls", "count"),
    ("purge.dropped", "count"),
    ("purge.useful_ratio", "ratio"),
    ("partition.route.s", "s"),
    ("partition.sub_feeds_per_event", "count"),
    ("partition.punct_feeds_per_event", "count"),
    ("partition.tax_x", "x"),
    ("gateway.admit_frame.s", "s"),
    ("gateway.sync_acks.s", "s"),
    ("gateway.busy_frac", "ratio"),
    ("admission.admit.s", "s"),
    ("admission.duplicates", "count"),
    ("schema.s", "s"),
    ("schema.idempotency_id.per_frame", "count"),
    ("liveness.s", "s"),
    ("recovery.feed.per_frame", "count"),
    ("recovery.feed.s", "s"),
    ("recovery.sync.s", "s"),
    ("recovery.checkpoint.calls", "count"),
    ("recovery.checkpoint.s", "s"),
    ("recovery.checkpoint_ms.first_q", "ms"),
    ("recovery.checkpoint_ms.last_q", "ms"),
    ("recovery.checkpoint_growth_x", "x"),
    ("recovery.snapshot.s", "s"),
    ("recovery.snapshot_bytes.last", "bytes"),
    ("recovery.checkpoint_disk_ms", "ms"),
    ("wire.ms.p50", "ms"),
    ("gen.late_ms.p99", "ms"),
    ("trace.overhead_x", "x"),
    ("trace.wrapper_ns", "ns"),
]


# -- installation -----------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer (undone by ``tracer.remove()``)."""
    from repro.core import construction, negation, purge, recovery, scan, stacks
    from repro.core.engine import Engine, OutOfOrderEngine
    from repro.core.event import is_event
    from repro.core.partition import PartitionedEngine
    from repro.ingest import admission, liveness, schema, server
    from repro.ingest.admission import AdmissionOutcome
    from repro.streams import punctuation

    counts = tracer.counts

    def feed_name(engine, element) -> str:
        return "partition.route" if isinstance(engine, PartitionedEngine) else "engine.feed"

    def on_feed(_t, args, _result, _ns) -> None:
        engine, element = args[0], args[1]
        kind = "events" if is_event(element) else "puncts"
        if isinstance(engine, PartitionedEngine):
            counts[f"partition.{kind}"] += 1
        else:
            counts[f"engine.feed.{kind}"] += 1

    def on_construct(_t, _args, result, _ns) -> None:
        counts["construction.matches"] += len(result)
        if result:
            counts["construction.useful"] += 1

    def on_purge(_t, _args, dropped, _ns) -> None:
        counts["purge.dropped"] += dropped
        if dropped:
            counts["purge.useful"] += 1

    def on_snapshot(t, _args, blob, _ns) -> None:
        t.sample("recovery.snapshot_bytes", len(blob))

    def on_checkpoint(t, _args, _result, ns) -> None:
        t.sample("recovery.checkpoint_ms", ns / 1e6)

    def on_runner_feed(_t, _args, _result, _ns) -> None:
        counts["pending.recovery_feed"] += 1

    def on_idempotency(_t, _args, _result, _ns) -> None:
        counts["pending.idempotency_id"] += 1

    def on_admit(_t, _args, result, _ns) -> None:
        if result.outcome is AdmissionOutcome.DUPLICATE:
            counts["admission.duplicates"] += 1

    def on_admit_frame(t, _args, ack, ns) -> None:
        # Both the WAL feeds and the hashes a frame causes happen inside
        # admit_frame; attribute them to admitted frames only.
        feeds = counts.pop("pending.recovery_feed", 0)
        hashes = counts.pop("pending.idempotency_id", 0)
        if ack.get("status") == "admitted":
            counts["frames.admitted"] += 1
            counts["recovery.feed.admitted"] += feeds
            counts["schema.idempotency_id.admitted"] += hashes
        t.sample("gateway.admit_frame_ms", ns / 1e6)

    def on_sync(t, _args, _result, ns) -> None:
        t.sample("gateway.sync_acks_ms", ns / 1e6)

    patches = [
        (Engine, "feed", feed_name, on_feed),
        (OutOfOrderEngine, "feed_batch", "engine.feed_batch", None),
        (OutOfOrderEngine, "state_size", "engine.state_size", None),
        (PartitionedEngine, "state_size", "engine.state_size", None),
        (scan.SequenceScanner, "relevant", "scan", None),
        (scan.SequenceScanner, "admissible_steps", "scan", None),
        (scan.SequenceScanner, "construction_feasible", "scan", None),
        (stacks.SortedStack, "insert", "stacks.insert", None),
        (stacks.NegativeStore, "insert", "stacks.insert", None),
        (construction.SequenceConstructor, "construct", "construction", on_construct),
        (negation.PendingMatches, "add", "negation.park", None),
        (OutOfOrderEngine, "_release_ripe", "negation.release", None),
        (purge.Purger, "run", "purge", None),
        (stacks.SortedStack, "purge_through", "purge.store", on_purge),
        (stacks.NegativeStore, "purge_through", "purge.store", on_purge),
        (Engine, "snapshot", "recovery.snapshot", on_snapshot),
        (recovery.ResilientRunner, "feed", "recovery.feed", on_runner_feed),
        (recovery.ResilientRunner, "sync", "recovery.sync", None),
        (recovery.ResilientRunner, "checkpoint", "recovery.checkpoint", on_checkpoint),
        (server.IngestGateway, "admit_frame", "gateway.admit_frame", on_admit_frame),
        (server.IngestGateway, "sync_acks", "gateway.sync_acks", on_sync),
        (server.IngestGateway, "assert_watermark", "gateway.control", None),
        (server.IngestGateway, "tick", "gateway.control", None),
        (admission.AdmissionController, "admit", "admission.admit", on_admit),
        (schema.StreamSchema, "check_frame", "schema", None),
        (schema.StreamSchema, "idempotency_id", "schema", on_idempotency),
        (schema.StreamSchema, "derive_eid", "schema", None),
        (schema.StreamSchema, "build_event", "schema", None),
    ]
    for method in ("connect", "observe", "assert_watermark", "disconnect", "tick",
                   "merged_watermark"):
        patches.append((liveness.LivenessTracker, method, "liveness", None))
    for method in ("observe", "advance", "merged"):
        patches.append((punctuation.SourceWatermarks, method, "liveness", None))
    for owner, attr, name, hook in patches:
        tracer.patch(owner, attr, name, hook)


def _no_state(_engine) -> int:
    return 0


@contextlib.contextmanager
def state_size_stubbed() -> Iterator[None]:
    """Every engine's ``state_size()`` returns 0 inside the block: an
    ablation that prices the per-element re-sum.  Matches are unchanged;
    only the peak-state statistic is lost."""
    from repro.core.engine import OutOfOrderEngine
    from repro.core.partition import PartitionedEngine

    saved = [(cls, vars(cls)["state_size"]) for cls in (OutOfOrderEngine, PartitionedEngine)]
    for cls, _ in saved:
        cls.state_size = _no_state
    try:
        yield
    finally:
        for cls, original in saved:
            cls.state_size = original


# -- metrics ------------------------------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def emit_delays(engine) -> List[int]:
    """Emission clock minus the match's latest event time, per emission."""
    return [r.emitted_clock - max(e.ts for e in r.match.events) for r in engine.emissions]


def layer_metrics(
    s: Summary,
    *,
    delays: List[int],
    untraced_s: Optional[float] = None,
    traced_s: Optional[float] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced run's summary.

    *untraced_s* / *traced_s* are wall (engines) or CPU (gateway) seconds
    for the same work without and with tracing; *extra* supplies values
    measured outside the tracer (state-size ablation, partition tax, wire
    and generator times), and overrides the tracer's.
    """
    counts = s.counts
    admitted = counts.get("frames.admitted", 0)
    checkpoints = s.samples.get("recovery.checkpoint_ms", [])
    snapshots = s.samples.get("recovery.snapshot_bytes", [])
    first_q, last_q = quarter_medians(checkpoints) if checkpoints else (0.0, 0.0)
    state_size_s = s.self_seconds("engine.state_size")
    values = {
        "engine.feed.s": s.self_seconds("engine.feed"),
        "engine.feed.calls": s.calls("engine.feed"),
        "engine.feed_batch.s": s.self_seconds("engine.feed_batch"),
        "engine.state_size.s": state_size_s,
        "engine.state_size.calls": s.calls("engine.state_size"),
        "engine.state_size.share": _ratio(state_size_s, untraced_s or 0.0),
        "scan.s": s.self_seconds("scan"),
        "scan.calls": s.calls("scan"),
        "stacks.insert.s": s.self_seconds("stacks.insert"),
        "stacks.insert.calls": s.calls("stacks.insert"),
        "construction.s": s.self_seconds("construction"),
        "construction.calls": s.calls("construction"),
        "construction.matches": s.count("construction.matches"),
        "construction.useful_ratio": _ratio(
            s.count("construction.useful"), s.calls("construction")
        ),
        "negation.parked": s.calls("negation.park"),
        "negation.release.s": s.self_seconds("negation.release"),
        "negation.release.calls": s.calls("negation.release"),
        "emit_delay_p50_ticks": percentile(delays, 50) if delays else 0.0,
        "emit_delay_p99_ticks": percentile(delays, 99) if delays else 0.0,
        "purge.s": s.self_seconds("purge", "purge.store"),
        "purge.calls": s.calls("purge.store"),
        "purge.dropped": s.count("purge.dropped"),
        "purge.useful_ratio": _ratio(s.count("purge.useful"), s.calls("purge.store")),
        "partition.route.s": s.self_seconds("partition.route"),
        "partition.sub_feeds_per_event": _ratio(
            s.count("engine.feed.events"), s.count("partition.events")
        ),
        "partition.punct_feeds_per_event": _ratio(
            s.count("engine.feed.puncts"), s.count("partition.events")
        ),
        "gateway.admit_frame.s": s.self_seconds("gateway.admit_frame"),
        "gateway.sync_acks.s": s.self_seconds("gateway.sync_acks"),
        "admission.admit.s": s.self_seconds("admission.admit"),
        "admission.duplicates": s.count("admission.duplicates"),
        "schema.s": s.self_seconds("schema"),
        "schema.idempotency_id.per_frame": _ratio(
            s.count("schema.idempotency_id.admitted"), admitted
        ),
        "liveness.s": s.self_seconds("liveness"),
        "recovery.feed.per_frame": _ratio(s.count("recovery.feed.admitted"), admitted),
        "recovery.feed.s": s.self_seconds("recovery.feed"),
        "recovery.sync.s": s.self_seconds("recovery.sync"),
        "recovery.checkpoint.calls": s.calls("recovery.checkpoint"),
        "recovery.checkpoint.s": s.self_seconds("recovery.checkpoint"),
        "recovery.checkpoint_ms.first_q": first_q,
        "recovery.checkpoint_ms.last_q": last_q,
        "recovery.checkpoint_growth_x": _ratio(last_q, first_q),
        "recovery.snapshot.s": s.self_seconds("recovery.snapshot"),
        "recovery.snapshot_bytes.last": snapshots[-1] if snapshots else 0,
        "recovery.checkpoint_disk_ms": median(checkpoints) if checkpoints else 0.0,
        "trace.overhead_x": _ratio(traced_s or 0.0, untraced_s or 0.0),
        "trace.wrapper_ns": s.inner_ns + s.outer_ns,
    }
    values.update(extra or {})
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
