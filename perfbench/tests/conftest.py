"""Import ``perfbench`` and ``repro`` from this checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import use_sources  # noqa: E402

use_sources()
