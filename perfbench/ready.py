"""Set-up probe for the engine workloads: a fresh process that imports the
engine, builds the workload's query and engine, then prints ``READY``.

Run as ``python3 perfbench/ready.py WORKLOAD``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import use_sources  # noqa: E402

use_sources()

from perfbench import engines, inputs  # noqa: E402

if __name__ == "__main__":
    workload = sys.argv[1]
    engines.make_engine(workload, inputs.engine_pattern(workload))
    print("READY", flush=True)
