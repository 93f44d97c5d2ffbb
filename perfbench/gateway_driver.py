"""``gateway-ingest``: the load generator for the ingest gateway.

One process, one connection per source, speaking the gateway's
newline-JSON protocol directly.  In the open-loop passes frames leave on
a fixed schedule whether or not earlier ones were acked, and every ack
is timed from the frame's *due* time, so a stall also charges the frames
queued behind it; how late the sender itself ran is recorded per frame.
The saturating pass is closed loop: it measures how fast the gateway
acks when it is never idle.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from perfbench import inputs, layers, oracle
from perfbench.common import OUT, ROOT, median, percentile, quarter_medians
from perfbench.engines import RATES, rate_metrics
from perfbench.tracer import Summary
from repro.ingest.server import PROTOCOL_VERSION

ACK_TIMEOUT_S = 30.0
PROC_TIMEOUT_S = 60.0
GATEWAY_PROC = ROOT / "perfbench" / "gateway_proc.py"
OK_ACKS = {False: "admitted", True: "duplicate"}
SPIN = ROOT / "perfbench" / "spin.py"
# Rounds of a saturating pass and then one open-loop pass per rate; each
# rate pass gets 5% of the run.
ROUNDS = 4
RATE_SHARE = 0.05
# The saturating passes: the 1000 frames/s schedule's first 20000 frames
# (a fixed amount of work), sent as fast as acks return with 32 frames in
# flight per source, and checkpointing only when sealed like the rate
# passes.
SATURATED_RATE = 1000
SATURATED_SECONDS = 20.0
SATURATED_WINDOW = 32
# The traced run: an untraced and a traced open-loop pass.
TRACED_RATE = 1000
TRACED_SHARE = 0.4
# Checkpoint intervals in WAL elements.  The measured passes keep
# durability (WAL append and group-commit flush before every ack) but
# checkpoint only when sealed: on the checkout's filesystem each
# checkpoint's rename stalls the event loop 35-65 ms, sometimes seconds,
# which set every p99 and made saturated throughput vary fourfold between
# runs.  The traced run keeps the gateway's default interval and reports
# the checkpoint's cost per layer.
CHECKPOINT_RARE = 1 << 20
CHECKPOINT_DEFAULT = 256


class Gateway:
    """A gateway process: started fresh, stopped and waited for."""

    def __init__(self, state: Path, spans: Optional[Path] = None,
                 checkpoint_every: int = CHECKPOINT_DEFAULT, cpu: Optional[int] = None):
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        self.result_path = state / "result.json"
        command = [sys.executable, str(GATEWAY_PROC), "--dir", str(state / "gw"),
                   "--result", str(self.result_path),
                   "--checkpoint-every", str(checkpoint_every)]
        if spans is not None:
            command += ["--spans", str(spans)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        line = self.proc.stdout.readline().split()
        #: Process start to listening socket: the gateway's set-up time.
        self.setup_s = time.perf_counter() - started
        if len(line) != 2 or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"gateway did not start: {line!r}")
        self.port = int(line[1])

    def stop(self) -> dict:
        """Seal the gateway and return what it delivered."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=PROC_TIMEOUT_S)
        except BrokenPipeError:
            pass  # it already exited; the return code says how
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"gateway exited with {self.proc.returncode}")
        return json.loads(self.result_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One source's socket.  Acks are read by the driving loop, which
    timestamps them as soon as they can be received."""

    def __init__(self, port: int, source: str):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=ACK_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(_line({"op": "hello", "source": source,
                                 "stream": inputs.GATEWAY_STREAM,
                                 "proto": PROTOCOL_VERSION}))
        self.buffer = b""
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("gateway closed the connection during hello")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        hello = json.loads(line)
        if hello.get("op") != "hello_ok":
            raise RuntimeError(f"gateway refused hello: {hello!r}")
        self.sock.settimeout(None)
        self.acks: Dict[int, Tuple[float, str]] = {}

    def poll(self, clock) -> None:
        """Take whatever acks have arrived, without blocking."""
        try:
            chunk = self.sock.recv(65536, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        now = clock()
        if not chunk:
            raise ConnectionError("gateway closed the connection")
        *lines, self.buffer = (self.buffer + chunk).split(b"\n")
        for raw in lines:
            reply = json.loads(raw)
            if reply.get("op") == "ack":
                self.acks[reply["n"]] = (now, reply.get("status", "?"))

    def close(self) -> None:
        self.sock.settimeout(ACK_TIMEOUT_S)
        try:
            self.sock.sendall(_line({"op": "bye"}))
            self.sock.shutdown(socket.SHUT_WR)
            while self.sock.recv(65536):
                pass
        except OSError:
            pass  # the gateway may close first; the pass is over either way
        self.sock.close()


def _line(frame: dict) -> bytes:
    return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"


class Pass(NamedTuple):
    rate: int
    setup_s: float
    latencies: List[float]  # seconds from due time to ack, in due order
    late: List[float]  # seconds the sender ran behind each due time
    failed: int
    sent: int
    acked_per_s: float
    span_s: float  # first due time to last ack
    verdict: oracle.Verdict
    server: dict


def run_pass(seed: int, rate: int, seconds: float, *, spans: Optional[Path] = None,
             checkpoint_every: int = CHECKPOINT_DEFAULT, cpu: Optional[int] = None,
             window: Optional[int] = None) -> Pass:
    """One fresh gateway fed the seeded schedule for *rate* and *seconds*:
    open loop at *rate* frames/s, or closed loop (see :func:`_drive`)."""
    frames = inputs.gateway_schedule(seed, rate, seconds)
    truth = oracle.truth(
        f"gateway-ingest-s{seed}-r{rate}-n{len(frames)}",
        _pattern(), inputs.gateway_events(frames),
    )
    gateway = Gateway(OUT / "gateway" / "pass", spans, checkpoint_every, cpu)
    try:
        links = [Connection(gateway.port, f"src{i}") for i in range(inputs.SOURCES)]
        counts = [0] * len(links)
        numbers: List[Tuple[int, int]] = []
        for frame in frames:
            numbers.append((frame.source, counts[frame.source]))
            counts[frame.source] += 1
        payloads = [
            _line({"op": "event", "n": n, "etype": f.etype, "attrs": f.attrs})
            for f, (_, n) in zip(frames, numbers)
        ]
        start, sent_at = _drive(links, frames, payloads, counts, window)
        for link in links:
            link.close()
    finally:
        server = gateway.stop()
    latencies, late, failed, last_ack = [], [], 0, start
    for index, (frame, (source, n)) in enumerate(zip(frames, numbers)):
        ack = links[source].acks.get(n)
        if ack is None or ack[1] != OK_ACKS[frame.redelivery]:
            failed += 1
            continue
        due = start + frame.due if window is None else sent_at[index]
        latencies.append(ack[0] - due)
        late.append(sent_at[index] - due)
        last_ack = max(last_ack, ack[0])
    verdict = oracle.check(truth, server["matches"])
    span = last_ack - start
    return Pass(rate, gateway.setup_s, latencies, late, failed, len(frames),
                len(latencies) / span if span > 0 else 0.0, span, verdict, server)


def _drive(links: List[Connection], frames, payloads, counts,
           window: Optional[int]) -> Tuple[float, List[float]]:
    """Send the frames and collect acks until all are in, or until nothing
    has moved for the ack timeout.  Open loop (*window* None): each frame
    leaves at its due time.  Closed loop: a source sends its next frame as
    soon as fewer than *window* of its frames are unacked.  Returns the
    start time and each frame's send time.  One thread polls both sockets
    and the clock without sleeping, so neither a send nor an ack timestamp
    waits for a wake-up."""
    clock = time.perf_counter
    sockets = [link.sock for link in links]
    start = clock() + 0.05
    sent_at: List[float] = []
    sent, total = 0, len(frames)
    sent_by = [0] * len(links)
    acked = 0
    progress = start
    while True:
        now = clock()
        while sent < total:
            frame = frames[sent]
            if window is None:
                if start + frame.due > now:
                    break
            elif now < start or sent_by[frame.source] - len(links[frame.source].acks) >= window:
                break
            sent_at.append(clock())
            sockets[frame.source].sendall(payloads[sent])
            sent_by[frame.source] += 1
            sent += 1
            progress = now
        for link in links:
            link.poll(clock)
        total_acked = sum(len(link.acks) for link in links)
        if total_acked != acked:
            acked, progress = total_acked, now
        if sent == total and all(len(l.acks) >= c for l, c in zip(links, counts)):
            break
        if now - max(progress, start) > ACK_TIMEOUT_S:
            break
    sent_at.extend([float("inf")] * (total - sent))
    return start, sent_at


def _pattern():
    from repro import parse

    return parse(inputs.GATEWAY_QUERY)


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload with the generator and the gateway on separate
    CPUs when there are two: the generator polls without sleeping, and an
    idle-priority spinner keeps the gateway's CPU awake."""
    original = os.sched_getaffinity(0)
    cpus = sorted(original)
    if len(cpus) < 2:
        return _run(seed, seconds, trace, None)
    os.sched_setaffinity(0, {cpus[0]})
    spinner = subprocess.Popen([sys.executable, str(SPIN), str(cpus[1])])
    try:
        return _run(seed, seconds, trace, cpus[1])
    finally:
        spinner.kill()
        spinner.wait()
        os.sched_setaffinity(0, original)


def _run(seed: int, seconds: float, trace: bool, cpu: Optional[int]) -> dict:
    """Untraced: rounds of a saturating closed-loop pass and one open-loop
    pass per rate, each with a fresh gateway.  Traced: an untraced and a
    traced open-loop pass at 1000 frames/s with the default checkpoint
    interval."""
    if not trace:
        rated, saturated, rounds = [], [], []
        for _ in range(ROUNDS):
            saturated.append(run_pass(
                seed, SATURATED_RATE, SATURATED_SECONDS, cpu=cpu,
                checkpoint_every=CHECKPOINT_RARE, window=SATURATED_WINDOW,
            ))
            passes = [
                run_pass(seed, rate, seconds * RATE_SHARE, cpu=cpu,
                         checkpoint_every=CHECKPOINT_RARE)
                for rate in RATES
            ]
            rated.extend(passes)
            rounds.append(rate_metrics(
                {p.rate: p.latencies for p in passes}, {p.rate: p.failed for p in passes}
            ))
        # Best of the rounds: other tenants of the machine only ever slow
        # a pass down, so the best round is the least disturbed one.
        metrics = {
            name: (max if name == "max_ok_rate_fps" else min)(r[name] for r in rounds)
            for name in rounds[0]
        }
        metrics["events_per_s"] = max(p.acked_per_s for p in saturated)
        passes = rated + saturated
        # At the lowest rate the two sources' frames reach the engine
        # interleaved as sent; any delay lets one source run ahead and
        # raises the peak, so the least of the rounds is the engine's own.
        metrics["peak_state"] = min(
            p.server["peak_state"] for p in rated if p.rate == RATES[0]
        )
        metrics["setup_s"] = median([p.setup_s for p in passes])
        info = {"delays": saturated[-1].server["delays"]}
    else:
        plain = run_pass(seed, TRACED_RATE, seconds * TRACED_SHARE, cpu=cpu)
        spans = OUT / "spans" / "gateway-ingest.jsonl"
        traced = run_pass(seed, TRACED_RATE, seconds * TRACED_SHARE, spans=spans, cpu=cpu)
        passes = [plain, traced]
        summary = Summary.from_json(traced.server["trace"])
        server_ms = percentile(summary.samples.get("gateway.admit_frame_ms", [0.0]), 50) \
            + percentile(summary.samples.get("gateway.sync_acks_ms", [0.0]), 50)
        busy = summary.total_seconds(
            "gateway.admit_frame", "gateway.sync_acks", "gateway.control"
        )
        metrics = layers.layer_metrics(
            summary,
            delays=traced.server["delays"],
            untraced_s=plain.server["cpu_s"],
            traced_s=traced.server["cpu_s"],
            extra={
                "gateway.busy_frac": busy / traced.span_s,
                "wire.ms.p50": 1000.0 * percentile(traced.latencies, 50) - server_ms,
                "gen.late_ms.p99": 1000.0 * percentile(traced.late, 99),
            },
        )
        info = {"delays": traced.server["delays"]}
    info["passes"] = [
        {"rate": p.rate, "sent": p.sent, "failed": p.failed, "setup_s": p.setup_s,
         "late_ms_p99": 1000.0 * percentile(p.late, 99),
         "acked_per_s": p.acked_per_s, "late_dropped": p.server["late_dropped"],
         "peak_state": p.server["peak_state"],
         "ack_ms_first_q_last_q": [1000.0 * x for x in quarter_medians(p.latencies)]}
        for p in passes
    ]
    return {
        "metrics": metrics,
        "verdicts": [p.verdict for p in passes],
        "attempted": sum(p.sent for p in passes),
        "failed": sum(p.failed for p in passes),
        "info": info,
    }
