"""Paths, percentiles and the machine fingerprint shared by the benchmark."""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
OUT = ROOT / ".perfbench"


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def windowed_percentile(values: Sequence[float], q: float, size: int = 1000) -> float:
    """Median over consecutive windows of *size* values of each window's
    *q*-th percentile: one stalled second moves one window, not the result.
    A short tail joins the last window."""
    count = max(1, len(values) // size)
    bounds = [i * size for i in range(count)] + [len(values)]
    return median([percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:])])


def quarter_medians(values: Sequence[float]) -> List[float]:
    """Medians of the first and last quarter of *values* (in order)."""
    n = max(1, len(values) // 4)
    return [median(values[:n]), median(values[-n:])]


def fs_type(path: Path) -> str:
    """Filesystem type holding *path*, from the longest /proc/mounts prefix."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def git_rev(root: Path = ROOT) -> str:
    """HEAD's commit id read from ``.git`` directly; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = git / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: str, seed: int, gateway_dir: Path) -> Dict[str, object]:
    """The machine and input identity stamped on every result record."""
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
        "git_rev": git_rev(),
        "workload": workload,
        "seed": seed,
        "fs_gateway_dir": fs_type(gateway_dir),
        "fs_worktree": fs_type(ROOT),
    }
