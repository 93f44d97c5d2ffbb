"""R001 — snapshot completeness.

Every class that participates in the snapshot/restore protocol must
capture *all* of its mutable state.  A forgotten attribute does not
fail loudly: ``restore()`` succeeds, the engine resumes, and results
silently diverge from the in-order reference — the exact failure mode
the paper's correctness argument (out-of-order results observably
identical to in-order ones) cannot tolerate.

Scope: classes whose MRO defines both a concrete snapshot-side method
(``snapshot``/``_snapshot_state``/``_base_state``/``snapshot_state``)
and a concrete restore-side method.  For each such class:

* **mutable attrs** — ``self.X`` rebinds or in-place mutations in any
  MRO method outside ``__init__``/snapshot/restore contexts (alias
  writes like ``clock = self.clock; clock._max_ts = ts`` count), plus
  component attrs built in ``__init__`` from snapshot-capable classes.
* **captured** — attrs read by any snapshot-side MRO method.
* **restored** — attrs referenced by any restore-side MRO method.

Mutable attrs missing from either side are findings, anchored at the
attribute's declaring assignment so ``# repro: ignore[R001]`` on that
line suppresses with a recorded justification (derived caches that are
rebuilt on restore are the legitimate case).
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.model import (
    RESTORE_METHODS,
    SNAPSHOT_METHODS,
    ClassInfo,
    Project,
)
from repro.analysis.rules import Rule

#: Methods whose attribute effects do not make an attribute "mutable
#: engine state": construction and restore legitimately assign,
#: snapshot only reads.
_EXEMPT_METHODS = frozenset({"__init__"}) | SNAPSHOT_METHODS | RESTORE_METHODS


def _has_concrete(project: Project, cls: ClassInfo, names: Set[str]) -> bool:
    return any(not fn.is_stub for fn in project.mro_methods(cls, names))


def _component_is_snapshotable(project: Project, type_name: str) -> bool:
    for cls in project.class_index.get(type_name, ()):
        if any(
            name in cls.methods and not cls.methods[name].is_stub
            for name in SNAPSHOT_METHODS
        ):
            return True
    return False


def _note(
    mutable: Dict[str, Tuple[ClassInfo, int]],
    project: Project,
    klass: ClassInfo,
    attr: str,
    line: int,
) -> None:
    # Anchor at the declaring assignment: the nearest MRO class whose
    # __init__ assigns the attr (so a subclass writing an inherited
    # attr shares its base's anchor and suppression), else the nearest
    # class assigning it anywhere; fall back to the mutation site for
    # attrs never directly assigned.
    for candidate in project.mro(klass):
        init = candidate.methods.get("__init__")
        if init is not None and attr in init.self_writes:
            mutable.setdefault(attr, (candidate, init.self_writes[attr]))
            return
    for candidate in project.mro(klass):
        if attr in candidate.assigned_attrs:
            mutable.setdefault(attr, (candidate, candidate.assigned_attrs[attr]))
            return
    mutable.setdefault(attr, (klass, line))


def participates_in_round_trip(project: Project, cls: ClassInfo) -> bool:
    """True when *cls* has concrete snapshot **and** restore sides."""
    return _has_concrete(project, cls, SNAPSHOT_METHODS) and _has_concrete(
        project, cls, RESTORE_METHODS
    )


def collect_mutable_attrs(
    project: Project, cls: ClassInfo
) -> Dict[str, Tuple[ClassInfo, int]]:
    """Mutable round-trip state of *cls*: attr -> (declaring class, line).

    Shared between R001 (name-level completeness) and R009 (def-use
    round-trip): attributes rebound or mutated outside construction/
    snapshot/restore contexts anywhere in the MRO, plus component attrs
    built in ``__init__`` from snapshot-capable classes.
    """
    mutable: Dict[str, Tuple[ClassInfo, int]] = {}
    for klass in project.mro(cls):
        for method in klass.methods.values():
            if method.name in _EXEMPT_METHODS:
                continue
            for attr, line in method.self_writes.items():
                _note(mutable, project, klass, attr, line)
            for attr, line in method.self_mutations.items():
                _note(mutable, project, klass, attr, line)
        # Components built in __init__ from snapshot-capable classes
        # hold state even when never textually mutated here.
        for attr, type_name in klass.attr_types.items():
            if _component_is_snapshotable(project, type_name):
                line = klass.assigned_attrs.get(attr, klass.line)
                mutable.setdefault(attr, (klass, line))
    return mutable


class SnapshotCompleteness(Rule):
    rule_id = "R001"
    summary = (
        "every mutable attribute of a snapshot-capable class must be "
        "captured by its snapshot methods and restored by its restore "
        "methods"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        emitted: Set[Tuple[str, int, str, str]] = set()
        for module in project.modules:
            for cls in module.classes.values():
                yield from self._check_class(project, cls, emitted)

    def _check_class(
        self,
        project: Project,
        cls: ClassInfo,
        emitted: Set[Tuple[str, int, str, str]],
    ) -> Iterator[Finding]:
        if not participates_in_round_trip(project, cls):
            return

        mutable = collect_mutable_attrs(project, cls)
        captured: Set[str] = set()
        restored: Set[str] = set()
        for klass in project.mro(cls):
            for method in klass.methods.values():
                if method.name in SNAPSHOT_METHODS and not method.is_stub:
                    captured |= set(method.self_reads)
                if method.name in RESTORE_METHODS and not method.is_stub:
                    restored |= set(method.self_reads)
                    restored |= set(method.self_writes)
                    restored |= set(method.self_mutations)

        for attr in sorted(mutable):
            owner, line = mutable[attr]
            if attr.startswith("__"):
                continue  # name-mangled internals are never protocol state
            missing = []
            if attr not in captured:
                missing.append("captured by a snapshot method")
            if attr not in restored:
                missing.append("restored by a restore method")
            if not missing:
                continue
            finding = Finding(
                path=owner.module.path,
                line=line,
                rule=self.rule_id,
                symbol=f"{owner.name}.{attr}",
                message=(
                    f"mutable attribute '{attr}' is not "
                    + " or ".join(missing)
                    + " (snapshot/restore round-trip would lose it)"
                ),
            )
            key = (finding.path, finding.line, finding.symbol, finding.message)
            if key not in emitted:
                emitted.add(key)
                yield finding
