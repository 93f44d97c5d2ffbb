"""The shipped tree must satisfy its own contracts.

This is the same gate CI runs; a failure here means an engine change
broke a contract (fix it) or introduced a justified exception (add a
``# repro: ignore[...]`` with a reason).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_analysis

SRC = Path(__file__).parents[2] / "src" / "repro"


def test_src_repro_is_clean():
    report = run_analysis([str(SRC)])
    assert report.parse_errors == []
    assert report.findings == [], "\n" + "\n".join(
        finding.render() for finding in report.findings
    )


def test_suppressions_are_exercised():
    """Every committed suppression still matches a real finding; stale
    opt-outs (the finding disappeared) should be deleted, not kept."""
    report = run_analysis([str(SRC)])
    assert report.suppressed == 16


def test_no_dead_suppressions():
    """The burn-down gate: a ``# repro: ignore`` that matches no finding
    for any active rule is dead weight and must be removed, not kept
    around to mask future regressions."""
    report = run_analysis([str(SRC)])
    assert report.dead_suppressions == [], "\n" + "\n".join(
        f"{path}:{line}: {rule} suppression is dead"
        for path, line, rule in report.dead_suppressions
    )


def test_obs_subtree_is_clean_without_suppressions():
    """The observability layer passes every rule with ZERO opt-outs.

    Its hot-path hooks are reached only behind the engines' ``_obs is
    None`` guard, so they must not need purity/determinism exceptions;
    if a change makes one necessary, justify it here — don't just add
    the ignore.
    """
    report = run_analysis([str(SRC / "obs")])
    assert report.parse_errors == []
    assert report.findings == [], "\n" + "\n".join(
        finding.render() for finding in report.findings
    )
    assert report.suppressed == 0


def test_obs_sources_carry_no_ignore_comments():
    """Belt and braces for the above: no ``# repro: ignore`` markers at
    all in ``src/repro/obs`` — a suppression that no rule exercises
    would silently mask future regressions."""
    for path in sorted((SRC / "obs").glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            assert "repro: ignore" not in line, (
                f"{path.name}:{number} carries a suppression; the obs "
                "layer is expected to pass all rules unaided"
            )


def test_speculation_modules_are_clean_without_suppressions():
    """The PR's new modules — the speculation log and the adaptive-K
    controller — pass every rule with ZERO opt-outs.

    Both are deterministic engine state (snapshot completeness and
    determinism rules apply in full), and the speculation log sits on
    the hot path behind the ``speculation is not None`` guard, so
    purity exceptions would be a design smell, not a necessity."""
    targets = [
        str(SRC / "core" / "speculate.py"),
        str(SRC / "streams" / "controller.py"),
    ]
    report = run_analysis(targets)
    assert report.parse_errors == []
    assert report.findings == [], "\n" + "\n".join(
        finding.render() for finding in report.findings
    )
    assert report.suppressed == 0
    for target in targets:
        text = Path(target).read_text()
        assert "repro: ignore" not in text


def test_ingest_subtree_is_clean_without_suppressions():
    """The ingestion gateway passes every rule with ZERO opt-outs.

    Admission, liveness and the transport are deterministic admission
    state (snapshot completeness and determinism rules apply in full),
    and none of them sit on the engine hot path — the gateway *feeds*
    engines, it does not run inside them — so purity exceptions would
    be a design smell, not a necessity.
    """
    report = run_analysis([str(SRC / "ingest")])
    assert report.parse_errors == []
    assert report.findings == [], "\n" + "\n".join(
        finding.render() for finding in report.findings
    )
    assert report.suppressed == 0
    for path in (SRC / "ingest").glob("*.py"):
        assert "repro: ignore" not in path.read_text()
