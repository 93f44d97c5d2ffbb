"""The system under test for ``gateway-ingest``: one IngestGateway process.

Run as ``python3 perfbench/gateway_proc.py --dir STATE --result OUT.json
[--spans SPANS.jsonl]``.  Prints ``READY <port>`` once it listens, serves
until a ``stop`` line (or end of input) arrives on stdin, seals the
engine, and writes what it delivered to ``OUT.json``: the match hashes,
emission delays, peak state, the CPU time spent serving and, with
``--spans``, the tracer's summary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import use_sources  # noqa: E402

use_sources()

from perfbench import inputs, layers, oracle  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def _wait_for_stop(loop: asyncio.AbstractEventLoop, stop: asyncio.Event) -> None:
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    loop.call_soon_threadsafe(stop.set)


async def _serve(gateway) -> float:
    """Serve until told to stop; returns the CPU seconds spent serving."""
    stop = asyncio.Event()
    await gateway.start()
    ready_cpu = time.process_time()
    print(f"READY {gateway.port}", flush=True)
    watcher = threading.Thread(
        target=_wait_for_stop, args=(asyncio.get_running_loop(), stop), daemon=True
    )
    watcher.start()
    await stop.wait()
    await gateway.stop(seal=True)
    return time.process_time() - ready_cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--checkpoint-every", type=int, default=256)
    args = parser.parse_args()

    from repro import OutOfOrderEngine, parse
    from repro.ingest import GatewayConfig, IngestGateway

    tracer = None
    if args.spans is not None:
        tracer = Tracer(max_spans=100_000)
        tracer.calibrate()
        layers.install(tracer)
    try:
        pattern = parse(inputs.GATEWAY_QUERY)
        config = GatewayConfig(
            inputs.gateway_schema(), port=0, liveness_timeout=30.0,
            checkpoint_every=args.checkpoint_every,
        )
        gateway = IngestGateway(
            lambda: OutOfOrderEngine(pattern, k=inputs.K_GATEWAY),
            config,
            directory=args.dir,
        )
        cpu_s = asyncio.run(_serve(gateway))
    finally:
        if tracer is not None:
            tracer.remove()
    engine = gateway.engine
    result = {
        "matches": [oracle.match_hash(m) for m in gateway.results()],
        "delays": layers.emit_delays(engine),
        "peak_state": engine.stats.peak_state_size,
        "late_dropped": engine.stats.late_dropped,
        "cpu_s": cpu_s,
        "stats": gateway.stats(),
        "trace": tracer.summary().to_json() if tracer is not None else None,
    }
    if tracer is not None:
        tracer.write_spans(args.spans)
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    tmp.replace(args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
