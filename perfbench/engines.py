"""The two engine workloads: ``ooo-replay`` and ``keyed-stream``.

Both run closed loop: the engine is a synchronous library, so the
benchmark replays one seeded trace through a fresh engine again and
again until the run's time is up and reports the median replay.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List, Tuple

from perfbench import inputs, layers, oracle
from perfbench.common import OUT, ROOT, median, quarter_medians, windowed_percentile
from perfbench.tracer import Tracer

RATES = (500, 1000, 2000)
P99_LIMIT_MS = 100.0
GROWTH_LIMIT_MS = 10.0
LATENCY_PASSES = 3
SETUP_PROBES = 5
READY = ROOT / "perfbench" / "ready.py"


def make_engine(workload: str, pattern):
    from repro import OutOfOrderEngine, PartitionedEngine

    if workload == "ooo-replay":
        return OutOfOrderEngine(pattern, k=inputs.K_ENGINE)
    return PartitionedEngine(pattern, k=inputs.K_ENGINE)


def setup_s(workload: str) -> float:
    """Median time from process start until the engine can take input."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(READY), workload],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - started)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "READY" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed for {workload}: {line!r}")
    return median(samples)


def replay(workload: str, engine, trace) -> None:
    """The workload's own path: the fused batch loop ``repro run`` uses for
    ``ooo-replay``; element-by-element ``feed`` for ``keyed-stream``."""
    if workload == "ooo-replay":
        engine.run(trace)
        return
    feed = engine.feed
    for element in trace:
        feed(element)
    engine.close()


def timed_replay(workload: str, pattern, trace) -> Tuple[float, object]:
    engine = make_engine(workload, pattern)
    started = time.perf_counter()
    replay(workload, engine, trace)
    return time.perf_counter() - started, engine


def service_times(workload: str, pattern, trace) -> Tuple[List[float], object]:
    """Seconds each element's ``feed`` call took, fed one at a time."""
    engine = make_engine(workload, pattern)
    feed = engine.feed
    clock = time.perf_counter
    costs = []
    for element in trace:
        started = clock()
        feed(element)
        costs.append(clock() - started)
    engine.close()
    return costs, engine


def open_loop_latencies(costs: List[float], rate: int) -> List[float]:
    """Latency of each element, in seconds from its due time, if elements
    were due every ``1/rate`` s and each took its measured service time:
    a FIFO queue on the caller's thread, the only queue a library has."""
    latencies = []
    free_at = 0.0
    for index, cost in enumerate(costs):
        due = index / rate
        free_at = max(free_at, due) + cost
        latencies.append(free_at - due)
    return latencies


def rate_metrics(
    latencies_by_rate: Dict[int, List[float]], failed_by_rate: Dict[int, int]
) -> Dict[str, float]:
    """``ack_p50_ms.rN`` / ``ack_p99_ms.rN`` and ``max_ok_rate_fps`` from
    per-input latencies (seconds, in due order) at each offered rate.
    Percentiles are taken per window of 1000 inputs (so p99 has 10 samples
    beyond it) and the median window is reported.  A rate with any failed
    input does not count as sustained."""
    values: Dict[str, float] = {}
    best = 0.0
    for rate, latencies in sorted(latencies_by_rate.items()):
        ms = [1000.0 * x for x in latencies]
        p99 = windowed_percentile(ms, 99)
        values[f"ack_p50_ms.r{rate}"] = windowed_percentile(ms, 50)
        values[f"ack_p99_ms.r{rate}"] = p99
        first, last = quarter_medians(ms)
        sustained = p99 <= P99_LIMIT_MS and last - first <= GROWTH_LIMIT_MS
        if sustained and not failed_by_rate.get(rate):
            best = float(rate)
    values["max_ok_rate_fps"] = best
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    events = inputs.TRACE_EVENTS
    pattern, arrival = inputs.synthetic(workload, seed, events)
    truth = oracle.truth(f"{workload}-s{seed}-n{events}", pattern, arrival)
    verdicts: List[oracle.Verdict] = []

    def verify(engine) -> None:
        verdicts.append(oracle.check(truth, [oracle.match_hash(m) for m in engine.results]))

    measured: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    if not trace:
        _, engine = timed_replay(workload, pattern, arrival)  # warm-up
        verify(engine)
        per_pass = []
        for _ in range(LATENCY_PASSES):
            costs, engine = service_times(workload, pattern, arrival)
            verify(engine)
            per_pass.append(
                rate_metrics({r: open_loop_latencies(costs, r) for r in RATES}, {})
            )
        measured.update({k: median([p[k] for p in per_pass]) for k in per_pass[0]})
        walls = []
        while len(walls) < 3 or time.perf_counter() < deadline:
            wall, engine = timed_replay(workload, pattern, arrival)
            verify(engine)
            walls.append(wall)
        measured["events_per_s"] = events / median(walls)
        measured["peak_state"] = float(engine.stats.peak_state_size)
        measured["setup_s"] = setup_s(workload)
        info = {"replays": len(walls), "delays": layers.emit_delays(engine)}
    else:
        measured, info = _traced(workload, pattern, arrival, seconds, deadline, verify)
    return {"metrics": measured, "verdicts": verdicts, "info": info}


def _traced(workload, pattern, arrival, seconds, deadline, verify):
    """Untraced replays for half the time, then traced replays; per-layer
    values are medians over the traced replays.  Each untraced replay is
    paired with one whose ``state_size()`` is stubbed out, which prices the
    re-sum without the tracer's distortion of so small a call."""
    half = time.perf_counter() + seconds / 2
    walls, stubbed, singles = [], [], []
    engine = None
    while len(walls) < 2 or time.perf_counter() < half:
        wall, engine = timed_replay(workload, pattern, arrival)
        verify(engine)
        walls.append(wall)
        with layers.state_size_stubbed():
            wall, ablated = timed_replay(workload, pattern, arrival)
        verify(ablated)
        stubbed.append(wall)
        if workload == "keyed-stream":
            # The fastest correct configuration on the same trace: one
            # OutOfOrderEngine on the batch path.
            single, reference = timed_replay("ooo-replay", pattern, arrival)
            verify(reference)
            singles.append(single)
    delays = layers.emit_delays(engine)
    per_rep: List[Dict[str, float]] = []
    last = None
    while not per_rep or time.perf_counter() < deadline:
        tracer = Tracer(max_spans=100_000)
        tracer.calibrate()
        layers.install(tracer)
        try:
            wall, engine = timed_replay(workload, pattern, arrival)
        finally:
            tracer.remove()
        verify(engine)
        summary = tracer.summary()
        extra = {}
        if summary.calls("engine.state_size"):
            extra["engine.state_size.share"] = max(0.0, 1.0 - median(stubbed) / median(walls))
        if singles:
            extra["partition.tax_x"] = median(walls) / median(singles)
        per_rep.append(layers.layer_metrics(
            summary, delays=delays, untraced_s=median(walls),
            traced_s=wall, extra=extra,
        ))
        last = tracer
    last.write_spans(OUT / "spans" / f"{workload}.jsonl")
    metrics = {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}
    return metrics, {"replays": len(walls), "traced_replays": len(per_rep)}
