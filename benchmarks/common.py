"""Shared infrastructure for the experiment benchmarks (E1–E12).

Every ``bench_eN_*.py`` file reproduces one table or figure from the
paper's evaluation (reconstructed — see DESIGN.md's source-text caveat).
Each defines:

* a ``run_experiment()`` function that performs the full sweep and
  returns the rendered table/series text (also written to
  ``benchmarks/results/eN_<name>.txt`` so results survive the run);
* one or more ``test_eN_*`` functions using the pytest-benchmark
  fixture, timing the experiment's *representative kernel* (a single
  engine pass) so ``pytest benchmarks/ --benchmark-only`` yields a
  comparable timing table across engines/configurations;
* a ``test_eN_report`` that executes the sweep once, writes the result
  file, and asserts the experiment's *qualitative claim* (who wins, by
  what shape), so a regression in the reproduced result fails the run.

Run everything and print all tables:  python benchmarks/run_all.py
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Dict

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> str:
    """Persist a rendered experiment table; returns the text unchanged."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    return text


def machine_fingerprint() -> Dict[str, object]:
    """The host a measurement ran on, for stamping machine-readable results."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 0
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
