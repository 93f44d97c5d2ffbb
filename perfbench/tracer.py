"""Span tracer that times a program from outside by wrapping its functions.

:class:`Tracer` replaces chosen class or module attributes with timing
wrappers and puts the originals back on :meth:`Tracer.remove`.  Every
wrapped call records a span ``(id, trace, parent, name, start, end)``;
a call with no traced caller starts a new trace, so each fed element or
gateway frame gets one trace id shared by all spans it causes.

Per span name the tracer accumulates calls, total time and self time
(the span's duration minus the durations of its direct children).  Raw
spans are kept in memory up to a cap and written out by
:meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

Name = Union[str, Callable[..., str]]
Hook = Callable[["Tracer", tuple, Any, int], None]

# Frame slots of an open span on a thread's stack.
_ID, _TRACE, _CHILD_NS, _CHILDREN = 0, 1, 2, 4  # slot 3 holds the span name


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.children = 0  # direct child spans opened inside spans of this name


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self, max_spans: int = 200_000, clock=time.perf_counter_ns):
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.dropped_spans = 0
        self.stats: Dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = {}
        #: Wrapper cost per traced call, in ns: inside the span's own
        #: interval, and outside it (charged to the parent's self time).
        #: Set by :meth:`calibrate`; subtracted by :meth:`Summary.self_seconds`.
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on it is atomic under the GIL
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording --------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: Name, hook: Optional[Hook] = None) -> Callable:
        """A wrapper timing *fn* as span *name* (a string, or a function of
        the call's arguments).  *hook* sees ``(tracer, args, result,
        duration_ns)`` after the call."""
        tracer = self
        clock = self.clock
        stats = self.stats
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            frame = [span_id, parent[_TRACE] if parent else span_id, 0, label, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = stats.get(label)
                if entry is None:
                    entry = stats[label] = SpanStats()
                entry.calls += 1
                entry.total_ns += duration
                entry.self_ns += duration - frame[_CHILD_NS]
                entry.children += frame[_CHILDREN]
                if parent is not None:
                    parent[_CHILD_NS] += duration
                    parent[_CHILDREN] += 1
                if len(spans) < tracer.max_spans:
                    spans.append(
                        (span_id, frame[_TRACE], parent[_ID] if parent else 0,
                         label, start, end)
                    )
                else:
                    tracer.dropped_spans += 1
            if hook is not None:
                hook(tracer, args, result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def calibrate(self, calls: int = 20_000) -> Tuple[float, float]:
        """Measure what wrapping costs per call: a traced no-op's span
        length (inner) and the time a traced child adds to its parent's
        self time beyond an untraced call (outer).  Medians of three."""
        def noop():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        probe = Tracer(max_spans=0, clock=self.clock)
        inner = probe.wrap(noop, "noop")
        outer = probe.wrap(loop, "outer")
        inners, outers = [], []
        for _ in range(3):
            probe.stats.clear()
            outer(inner)
            started = self.clock()
            loop(noop)
            bare = self.clock() - started
            inners.append(probe.stats["noop"].total_ns / calls)
            outers.append((probe.stats["outer"].self_ns - bare) / calls)
        self.inner_ns = max(0.0, sorted(inners)[1])
        self.outer_ns = max(0.0, sorted(outers)[1])
        return self.inner_ns, self.outer_ns

    # -- installation -------------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: Name, hook: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`remove`)."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {owner!r}.{attr}: not a plain function")
        setattr(owner, attr, self.wrap(original, name, hook))
        self._patches.append((owner, attr, original, had_own))

    def remove(self) -> None:
        """Put every patched attribute back as it was, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- results ---------------------------------------------------------------------------

    def summary(self) -> "Summary":
        return Summary(
            {name: [e.calls, e.total_ns, e.self_ns, e.children]
             for name, e in self.stats.items()},
            dict(self.counts),
            {key: list(values) for key, values in self.samples.items()},
            self.inner_ns,
            self.outer_ns,
        )

    def write_spans(self, path: Path) -> None:
        """One JSON line per kept span, then the summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, trace, parent, label, start, end in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "trace": trace, "parent": parent,
                     "name": label, "start_ns": start, "end_ns": end},
                    separators=(",", ":"),
                ) + "\n")
            summary = self.summary().to_json()
            summary["dropped_spans"] = self.dropped_spans
            out.write(json.dumps({"summary": summary}, separators=(",", ":")) + "\n")


class Summary:
    """Per-name span totals, counts and samples: what layer metrics read.

    Plain data, so a traced process can hand it to another as JSON.
    """

    def __init__(self, stats: Dict[str, List[int]], counts: Dict[str, int],
                 samples: Dict[str, List[float]], inner_ns: float = 0.0,
                 outer_ns: float = 0.0):
        self.stats = stats
        self.counts = counts
        self.samples = samples
        self.inner_ns = inner_ns
        self.outer_ns = outer_ns

    def to_json(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "samples": self.samples,
                "inner_ns": self.inner_ns, "outer_ns": self.outer_ns}

    @classmethod
    def from_json(cls, data: dict) -> "Summary":
        return cls(data["stats"], data["counts"], data["samples"],
                   data["inner_ns"], data["outer_ns"])

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_seconds(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats) / 1e9

    def self_seconds(self, *names: str) -> float:
        """Self time of the named spans, less the calibrated wrapper cost
        inside each span and that its traced children charged to it."""
        ns = 0.0
        for name in names:
            if name in self.stats:
                calls, _, self_ns, children = self.stats[name]
                ns += max(0.0, self_ns - calls * self.inner_ns - children * self.outer_ns)
        return ns / 1e9

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)
