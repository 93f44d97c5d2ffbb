"""Correctness: a digest of ``OfflineOracle``'s result, cached per input.

The digest and the per-match hashes it covers are computed only from the
oracle's output.  An engine's result is hashed the same way and compared
match by match, so a run can say how many matches were missed or
spurious, not just that the digests differ.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Iterable, List, NamedTuple

from perfbench.common import OUT


def match_hash(match) -> str:
    """Process-independent identity of a match (event ids are not)."""
    parts = [
        [event.etype, event.ts, sorted(event.attrs.items())] for event in match.events
    ]
    blob = json.dumps(parts, separators=(",", ":"), default=repr)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:20]


def digest_of(hashes: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(hashes)).encode("utf-8")).hexdigest()


class Truth(NamedTuple):
    digest: str
    hashes: frozenset

    @property
    def count(self) -> int:
        return len(self.hashes)


def _compute(pattern, events) -> Truth:
    from repro import OfflineOracle

    hashes = [match_hash(m) for m in OfflineOracle(pattern).evaluate(events)]
    return Truth(digest_of(hashes), frozenset(hashes))


def truth(name: str, pattern, events, cache_dir: Path = OUT / "oracle") -> Truth:
    """The oracle's result for *events*, from the cache file *name* if sound."""
    path = cache_dir / f"{name}.json"
    try:
        cached = json.loads(path.read_text(encoding="utf-8"))
        if digest_of(cached["hashes"]) == cached["digest"]:
            return Truth(cached["digest"], frozenset(cached["hashes"]))
    except (OSError, ValueError, KeyError, TypeError):
        pass
    result = _compute(pattern, events)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(
        json.dumps({"digest": result.digest, "hashes": sorted(result.hashes)}),
        encoding="utf-8",
    )
    tmp.replace(path)
    return result


class Verdict(NamedTuple):
    expected: int
    missed: int
    spurious: int  # includes a match emitted more than once

    @property
    def failed(self) -> int:
        return self.missed + self.spurious

    @property
    def ok(self) -> bool:
        return self.failed == 0


def check(expected: Truth, emitted_hashes: List[str]) -> Verdict:
    """Compare an engine's emitted matches (in emission order) to the oracle."""
    counts = Counter(emitted_hashes)
    got = set(counts)
    repeats = sum(n - 1 for n in counts.values())
    missed = len(expected.hashes - got)
    spurious = len(got - expected.hashes) + repeats
    if not missed and not spurious and digest_of(got) != expected.digest:
        raise AssertionError("oracle digest disagrees with its own match hashes")
    return Verdict(expected.count, missed, spurious)
