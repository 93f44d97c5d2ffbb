"""Suppression syntax: line, symbol-header, and file scopes."""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.analysis.rules.purge_safety import PurgeSafety
from repro.analysis.rules.snapshot_completeness import SnapshotCompleteness
from repro.analysis.suppressions import parse_suppressions

BAD_PURGE = '''\
class Store:
    def __init__(self):
        self._events = []

    def purge_through(self, horizon):
        for event in self._events:
            self._events.remove(event){marker}
'''


def _write(tmp_path, text):
    path = tmp_path / "mod.py"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_line_and_file_scopes():
    per_line, per_file, decls = parse_suppressions(
        "# repro: ignore-file[R002]\n"
        "x = 1  # repro: ignore[R001,R003] -- justification text\n"
    )
    assert per_file == {"R002"}
    assert per_line == {2: {"R001", "R003"}}
    assert [(d.line, d.scope, d.rules) for d in decls] == [
        (1, "file", frozenset({"R002"})),
        (2, "line", frozenset({"R001", "R003"})),
    ]


def test_unsuppressed_fixture_fires(tmp_path):
    path = _write(tmp_path, BAD_PURGE.format(marker=""))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert len(report.findings) == 1
    assert report.suppressed == 0


def test_line_suppression_silences_finding(tmp_path):
    marker = "  # repro: ignore[R005] -- fixture"
    path = _write(tmp_path, BAD_PURGE.format(marker=marker))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert report.findings == []
    assert report.suppressed == 1


def test_line_suppression_is_rule_specific(tmp_path):
    marker = "  # repro: ignore[R001] -- wrong rule id"
    path = _write(tmp_path, BAD_PURGE.format(marker=marker))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert len(report.findings) == 1
    assert report.suppressed == 0


def test_file_suppression_silences_finding(tmp_path):
    text = "# repro: ignore-file[R005] -- fixture\n" + BAD_PURGE.format(marker="")
    path = _write(tmp_path, text)
    report = run_analysis([path], rules=[PurgeSafety()])
    assert report.findings == []
    assert report.suppressed == 1


def test_symbol_header_suppression_covers_body(tmp_path):
    text = (
        "class Engine:\n"
        "    def __init__(self):  # repro: ignore[R001] -- fixture\n"
        "        self._lost = 0\n"
        "\n"
        "    def _process_event(self, event):\n"
        "        self._lost += 1\n"
        "        return []\n"
        "\n"
        "    def _snapshot_state(self):\n"
        "        return {}\n"
        "\n"
        "    def _restore_state(self, state):\n"
        "        return None\n"
    )
    path = _write(tmp_path, text)
    report = run_analysis([path], rules=[SnapshotCompleteness()])
    assert report.findings == []
    assert report.suppressed == 1


def test_subclass_write_shares_the_declaring_suppression(tmp_path):
    # The base declares and suppresses a derived count in __init__; a
    # subclass's loop rebinding it is anchored (and suppressed) there.
    text = (
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._count = 0  # repro: ignore[R001] -- fixture\n"
        "\n"
        "    def _snapshot_state(self):\n"
        "        return {}\n"
        "\n"
        "    def _restore_state(self, state):\n"
        "        return None\n"
        "\n"
        "\n"
        "class Fused(Engine):\n"
        "    def _loop(self, elements):\n"
        "        self._count = len(elements)\n"
        "        return []\n"
    )
    path = _write(tmp_path, text)
    report = run_analysis([path], rules=[SnapshotCompleteness()])
    assert report.findings == []
    assert report.suppressed == 1
