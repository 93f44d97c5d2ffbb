"""R004 — batch/snapshot parity.

PR 1 added a batched hot path (``feed_batch``) and PR 2 made every
engine checkpointable (``snapshot``/``restore``).  Both are *protocol*
surfaces: the partitioned fan-out batches per partition, and the
recovery runner checkpoints whatever engine it wraps.  An engine
lacking any of the three either crashes those drivers or — worse —
silently falls off the fast/recoverable path.

The rule fires on every engine-protocol class (one that derives from
``Engine`` or defines an event-loop method: ``_process_event``,
``_loop`` or ``feed_batch``) that defines a concrete
``feed`` but does not define *or inherit* a concrete ``feed_batch``,
``snapshot``, or ``restore``.  Non-engine wrappers
that happen to have a ``feed`` method (drivers, adapters, registries)
are out of scope by design: they forward to an engine rather than
implement the protocol.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.model import Project
from repro.analysis.rules import Rule

_REQUIRED = ("feed_batch", "snapshot", "restore")


class BatchParity(Rule):
    rule_id = "R004"
    summary = (
        "an engine defining feed must define or inherit feed_batch, "
        "snapshot, and restore"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for cls in module.classes.values():
                if not project.is_engine_class(cls):
                    continue
                feed = cls.methods.get("feed")
                if feed is None or feed.is_stub:
                    continue
                for required in _REQUIRED:
                    resolved = project.resolve_method(cls, required)
                    if resolved is not None and not resolved.is_stub:
                        continue
                    yield Finding(
                        path=module.path,
                        line=feed.line,
                        rule=self.rule_id,
                        symbol=f"{cls.name}.{required}",
                        message=(
                            f"engine defines feed but neither defines nor "
                            f"inherits a concrete '{required}'"
                        ),
                    )
