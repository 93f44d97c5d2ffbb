"""The benchmark's tracer: self time, trace ids, clean removal, no effect
on results."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import engines, inputs, layers, oracle
from perfbench.run import END_TO_END, REPORTED
from perfbench.tracer import Summary, Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A clock the traced functions advance by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_span_time_minus_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(cost):
        clock.now += cost

    def middle():
        clock.now += 2
        traced_leaf(3)
        clock.now += 1
        traced_leaf(4)

    def root():
        clock.now += 5
        traced_middle()
        traced_leaf(7)
        clock.now += 6

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(root, "root")()
    tracer.wrap(root, "root")()

    spans = {span[0]: span for span in tracer.spans}
    children = {}
    for span_id, _trace, parent, _name, start, end in tracer.spans:
        children.setdefault(parent, []).append(end - start)
    expected_self = {}
    for span_id, _trace, _parent, name, start, end in tracer.spans:
        own = (end - start) - sum(children.get(span_id, []))
        expected_self[name] = expected_self.get(name, 0) + own
    assert {n: s.self_ns for n, s in tracer.stats.items()} == expected_self
    assert expected_self == {"root": 2 * 11, "middle": 2 * 3, "leaf": 2 * 14}
    assert tracer.stats["root"].total_ns == 2 * 28
    # Each root call is one trace; every span it caused carries its id.
    roots = [s for s in tracer.spans if s[2] == 0]
    assert len(roots) == 2
    for span in tracer.spans:
        ancestor = span
        while ancestor[2]:
            ancestor = spans[ancestor[2]]
        assert span[1] == ancestor[0]


def test_summary_subtracts_calibrated_wrapper_cost() -> None:
    summary = Summary({"a": [2, 1000, 600, 4]}, {}, {}, inner_ns=30.0, outer_ns=50.0)
    assert summary.self_seconds("a") == pytest.approx((600 - 2 * 30 - 4 * 50) * 1e-9)


def _targets():
    probe = Tracer()
    layers.install(probe)
    targets = list(probe._patches)
    probe.remove()
    return targets


def test_wrappers_are_removed_after_a_traced_run() -> None:
    targets = _targets()
    assert targets
    pattern, trace = inputs.synthetic("keyed-stream", 3, 1500)
    tracer = Tracer()
    layers.install(tracer)
    try:
        engines.replay("keyed-stream", engines.make_engine("keyed-stream", pattern), trace)
    finally:
        tracer.remove()
    assert tracer.installed == 0
    assert tracer.summary().calls("partition.route") == 1500
    for owner, attr, original, had_own in targets:
        if had_own:
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
        else:
            assert attr not in vars(owner), f"{owner.__name__}.{attr}"
        assert not hasattr(getattr(owner, attr), "__wrapped__")


def _engine_outcome(workload, traced):
    pattern, trace = inputs.synthetic(workload, 5, 4000)
    engine = engines.make_engine(workload, pattern)
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    try:
        engines.replay(workload, engine, trace)
    finally:
        tracer.remove()
    # Event ids come from a process-wide counter, so compare by content.
    matches = [oracle.match_hash(m) for m in engine.results]
    return matches, engine.stats.as_dict(), tracer


@pytest.mark.parametrize("workload", ["ooo-replay", "keyed-stream"])
def test_tracing_changes_no_match_or_counter(workload) -> None:
    plain_matches, plain_stats, _ = _engine_outcome(workload, traced=False)
    traced_matches, traced_stats, tracer = _engine_outcome(workload, traced=True)
    assert plain_matches
    assert traced_matches == plain_matches
    assert traced_stats == plain_stats
    assert tracer.summary().calls("construction") > 0


def _drive_gateway(directory: Path, traced: bool):
    from repro import OutOfOrderEngine, parse
    from repro.ingest import GatewayConfig, IngestGateway

    pattern = parse(inputs.GATEWAY_QUERY)
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    try:
        gateway = IngestGateway(
            lambda: OutOfOrderEngine(pattern, k=inputs.K_GATEWAY),
            GatewayConfig(inputs.gateway_schema(), checkpoint_every=64),
            directory=directory,
        )
        acks = []
        for frame in inputs.gateway_schedule(7, 1000, 0.6):
            acks.append(gateway.admit_frame(f"src{frame.source}", frame.etype,
                                            dict(frame.attrs), now=0.0))
            gateway.sync_acks()
        gateway.seal()
    finally:
        tracer.remove()
    stats = gateway.stats()
    return acks, [m.key() for m in gateway.results()], stats, tracer


def test_tracing_changes_no_gateway_outcome(tmp_path) -> None:
    plain = _drive_gateway(tmp_path / "plain", traced=False)
    traced = _drive_gateway(tmp_path / "traced", traced=True)
    assert traced[0] == plain[0]
    assert traced[1] == plain[1]  # gateway event ids derive from payloads
    assert traced[2] == plain[2]
    summary = traced[3].summary()
    assert summary.calls("recovery.checkpoint") > 0
    assert summary.count("frames.admitted") == plain[2]["admitted"]


def test_every_metric_name_is_well_formed_and_declared() -> None:
    benchmark = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    declared_e2e = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]
    assert declared_e2e == END_TO_END
    assert declared_layer == layers.PER_LAYER
    names = [n for n, _ in END_TO_END + REPORTED + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
