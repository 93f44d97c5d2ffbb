"""Transport parity: a socket read commits exactly what per-frame admission feeds.

The socket handler decides every frame of one read in order and then
feeds the window it staged in one runner call.  Driving the same seeded
frame script through ``admit_frame`` + ``sync_acks`` one frame at a time
must leave byte-identical ``wal.jsonl`` and ``delivered.jsonl``, equal
ack payloads, equal engine counters and equal gateway stats — with
redeliveries, malformed frames, watermark asserts, a mid-window stats
probe, a shed-configured gateway in its throttle and busy bands, and a
crash mid-window (no frame of the crashed window is acked, and the
restart recovers exactly once).
"""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro import OutOfOrderEngine, parse
from repro.core.shedding import ShedPolicy
from repro.faultinject import CrashError, FaultInjector
from repro.ingest import GatewayConfig, IngestGateway, serve_in_thread
from repro.ingest.server import PROTOCOL_VERSION

from ingest_helpers import make_schema

QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
SOURCE = "s1"


def build(directory, shed=None, fault=None, **config_kwargs):
    pattern = parse(QUERY)
    config = GatewayConfig(
        make_schema(slack=2), liveness_timeout=600.0, **config_kwargs
    )
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4, shed=shed),
        config,
        directory=directory,
        fault=fault,
        # One fixed instant: liveness decisions cannot differ by path.
        clock=lambda: 1000.0,
    )


def record_windows(gateway):
    """Wrap the runner's ``feed_batch`` to log each window it is handed."""
    windows = []
    feed_batch = gateway.runner.feed_batch

    def recording(elements):
        windows.append(list(elements))
        return feed_batch(elements)

    gateway.runner.feed_batch = recording
    return windows


def frame_script(seed: int, events: int, stats_at: int = -1):
    """Wire frames (without ``n``) for one source: disorder within the
    schema's slack, redeliveries, malformed frames, watermark asserts and
    an optional ``stats`` probe."""
    rng = random.Random(seed)
    times = list(range(1, events + 1))
    for i in range(len(times) - 1):
        if rng.random() < 0.3:
            times[i], times[i + 1] = times[i + 1], times[i]
    script = []
    for index, ts in enumerate(times):
        frame = {"op": "event", "etype": rng.choice("AB"),
                 "attrs": {"ts": ts, "x": rng.randint(0, 3)}}
        script.append(frame)
        if rng.random() < 0.15:
            script.append(dict(frame))  # redelivery: acked "duplicate"
        if rng.random() < 0.08:
            script.append({"op": "event", "etype": "bogus", "attrs": {"ts": ts}})
        if rng.random() < 0.05:
            script.append({"op": "watermark", "ts": max(0, ts - 4)})
        if index == stats_at:
            script.append({"op": "stats"})
    for n, frame in enumerate(script):
        frame["n"] = n
    return script


def drive_direct(gateway, script):
    """Per-frame admission: one window of one per frame, synced each time."""
    gateway.connect_source(SOURCE)
    replies = []
    for frame in script:
        op = frame["op"]
        if op == "event":
            reply = gateway.admit_frame(SOURCE, frame["etype"], frame["attrs"])
        elif op == "watermark":
            reply = gateway.assert_watermark(SOURCE, frame["ts"])
        else:
            replies.append({"op": "stats_ok", "stats": gateway.stats()})
            continue
        gateway.sync_acks()
        reply.update(op="ack", n=frame["n"])
        replies.append(reply)
    gateway.disconnect_source(SOURCE)
    return replies


def _line(frame) -> bytes:
    return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"


def _read_replies(sock, until):
    """Replies read until *until* (a predicate over all replies so far)
    holds or the server closes; a torn connection ends the read too."""
    buffer = b""
    replies = []
    while not until(replies):
        try:
            chunk = sock.recv(65536)
        except ConnectionError:
            break
        if not chunk:
            break
        *lines, buffer = (buffer + chunk).split(b"\n")
        replies.extend(json.loads(line) for line in lines if line.strip())
    return replies


def open_link(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    sock.sendall(_line({"op": "hello", "source": SOURCE, "stream": "orders",
                        "proto": PROTOCOL_VERSION}))
    hello = _read_replies(sock, lambda r: bool(r))
    assert hello and hello[0]["op"] == "hello_ok"
    return sock


def drive_socket(gateway, chunks):
    """Each chunk of frames leaves in one ``sendall`` after the previous
    chunk's replies are in, so a server read holds many frames.  Returns
    every reply except ``hello_ok``/``bye_ok``."""
    handle = serve_in_thread(gateway)
    replies = []
    try:
        sock = open_link(handle.port)
        try:
            for chunk in chunks:
                sock.sendall(b"".join(_line(frame) for frame in chunk))
                got = _read_replies(sock, lambda r, want=len(chunk): len(r) >= want)
                replies.extend(got)
                if len(got) < len(chunk):
                    break
            else:
                sock.sendall(_line({"op": "bye"}))
                got = _read_replies(sock, lambda r: False)
                assert [reply["op"] for reply in got] == ["bye_ok"]
        finally:
            sock.close()
    finally:
        handle.stop(seal=False)
    return replies


def files(directory):
    return {
        name: (directory / name).read_bytes()
        for name in ("wal.jsonl", "delivered.jsonl")
        if (directory / name).exists()
    }


def outcome(gateway, replies):
    return {
        "replies": replies,
        "engine": gateway.engine.stats.as_dict(),
        "stats": gateway.stats(),
        "matches": [m.key() for m in gateway.results()],
    }


def run_both(tmp_path, script, chunks, **build_kwargs):
    direct = build(tmp_path / "direct", **build_kwargs)
    direct_replies = drive_direct(direct, script)
    wire = build(tmp_path / "wire", **build_kwargs)
    windows = record_windows(wire)
    wire_replies = drive_socket(wire, chunks)
    return (direct, direct_replies), (wire, wire_replies), windows


@pytest.mark.parametrize("seed", [1, 2])
def test_socket_windows_equal_per_frame_admission(tmp_path, seed):
    script = frame_script(seed, 300, stats_at=150)
    (direct, direct_replies), (wire, wire_replies), windows = run_both(
        tmp_path, script, [script[: len(script) // 3], script[len(script) // 3 :]]
    )
    statuses = {reply.get("status") for reply in direct_replies}
    assert {"admitted", "duplicate", "quarantined", "ok"} <= statuses
    # The socket reads really were windows, not frames one by one.
    assert max(len(window) for window in windows) > 8
    assert outcome(wire, wire_replies) == outcome(direct, direct_replies)
    assert files(tmp_path / "wire") == files(tmp_path / "direct")
    direct.seal()
    wire.seal()
    assert files(tmp_path / "wire") == files(tmp_path / "direct")
    assert wire.engine.stats.as_dict() == direct.engine.stats.as_dict()
    assert [m.key() for m in wire.results()] == [m.key() for m in direct.results()]


def test_shed_gateway_throttles_and_refuses_identically(tmp_path):
    # Rising timestamps, all A: state only grows until the shed bound.
    script = [
        {"op": "event", "etype": "A", "attrs": {"ts": ts, "x": ts % 3}, "n": ts}
        for ts in range(40)
    ]
    (direct, direct_replies), (wire, wire_replies), windows = run_both(
        tmp_path, script, [script],
        shed=ShedPolicy.drop_oldest(12), soft_pressure=0.3, hard_pressure=0.8,
    )
    assert any("throttle" in reply for reply in direct_replies)
    assert any(reply["status"] == "busy" for reply in direct_replies)
    # Pressure is read per frame, so every window is one frame's feed.
    assert max(len(window) for window in windows) <= 2
    assert outcome(wire, wire_replies) == outcome(direct, direct_replies)
    assert files(tmp_path / "wire") == files(tmp_path / "direct")


def test_crash_mid_window_acks_nothing_and_recovers_exactly_once(tmp_path):
    script = frame_script(3, 200)
    first, second = script[:60], script[60:]
    clean = build(tmp_path / "clean")
    clean_replies = drive_direct(clean, script)
    clean.seal()
    truth = {m.key() for m in clean.results()}
    # Crash 20 WAL elements into the second chunk, so the whole first
    # chunk is fed (and acked) first.
    prefix = build(tmp_path / "prefix")
    drive_direct(prefix, first)
    crash_at = prefix.runner.seq + 20

    direct = build(tmp_path / "direct", fault=FaultInjector(crash_at=[crash_at]))
    with pytest.raises(CrashError):
        drive_direct(direct, script)
    wire = build(tmp_path / "wire", fault=FaultInjector(crash_at=[crash_at]))
    windows = record_windows(wire)
    replies = drive_socket(wire, [first, second])
    assert wire.crashed
    # The same element crashed both paths with the same state on disk.
    assert files(tmp_path / "wire") == files(tmp_path / "direct")

    # The first chunk was acked in full, and nothing of the crashed window.
    crashed_window = windows[-1]
    assert len(crashed_window) > 1
    acked = {reply["n"] for reply in replies if reply.get("op") == "ack"}
    assert {frame["n"] for frame in first} <= acked
    crashed_ts = {element.ts for element in crashed_window if hasattr(element, "etype")}
    by_n = {frame["n"]: frame for frame in script}
    for n in acked:
        frame = by_n[n]
        if frame["op"] == "event" and n >= len(first):
            assert frame["attrs"]["ts"] not in crashed_ts
    assert replies == [r for r in clean_replies if r["n"] in acked]

    # Restart on the same directory; the client resends everything.
    restarted = build(tmp_path / "wire")
    drive_socket(restarted, [script])
    restarted.seal()
    before = {m.key() for m in wire.results()}
    after = {m.key() for m in restarted.results()}
    assert before & after == set()
    assert before | after == truth
    distinct = sum(1 for r in clean_replies if r.get("status") == "admitted")
    assert restarted.recovered_frames + restarted.admission.admitted == distinct


def test_raising_engine_stops_the_window_at_the_late_frame(tmp_path):
    """With ``LatePolicy.RAISE`` the late frame ends its read, exactly as
    per-frame feeding ends it: frames decided before it are fed, frames
    after it are never decided, so their resends are admitted rather
    than deduped.  The results then equal per-frame admission that
    skips the late frame."""
    from repro.core.engine import LatePolicy
    from repro.core.errors import DisorderBoundViolation

    pattern = parse(QUERY)

    def build_raising():
        return IngestGateway(
            lambda: OutOfOrderEngine(pattern, k=4, late_policy=LatePolicy.RAISE),
            GatewayConfig(make_schema(slack=2), liveness_timeout=600.0),
            clock=lambda: 1000.0,
        )

    events = [("A" if ts % 2 else "B", {"ts": ts, "x": ts % 3}) for ts in range(1, 41)]
    late = ("A", {"ts": 2, "x": 1})
    script = [
        {"op": "event", "etype": etype, "attrs": attrs}
        for etype, attrs in events[:20] + [late] + events[20:]
    ]
    for n, frame in enumerate(script):
        frame["n"] = n

    direct = build_raising()
    direct.connect_source(SOURCE)
    for frame in script:
        try:
            direct.admit_frame(SOURCE, frame["etype"], frame["attrs"])
        except DisorderBoundViolation:
            pass

    wire = build_raising()
    handle = serve_in_thread(wire)
    try:
        sock = open_link(handle.port)
        sock.sendall(b"".join(_line(frame) for frame in script))
        assert _read_replies(sock, lambda r: False) == []  # torn, nothing acked
        sock.close()
        # The client resends the whole read on a fresh connection.
        sock = open_link(handle.port)
        sock.sendall(b"".join(_line(frame) for frame in script) + _line({"op": "bye"}))
        replies = _read_replies(sock, lambda r: False)
        sock.close()
    finally:
        handle.stop(seal=False)
    statuses = [reply.get("status") for reply in replies if reply["op"] == "ack"]
    assert statuses == ["duplicate"] * 21 + ["admitted"] * 20
    direct.seal()
    wire.seal()
    assert [m.key() for m in wire.results()] == [m.key() for m in direct.results()]
    assert wire.engine.stats.as_dict() == direct.engine.stats.as_dict()
