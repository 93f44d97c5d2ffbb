"""The correctness check: a cached digest of the oracle's result."""

from __future__ import annotations

import json

import pytest

from perfbench import engines, inputs, oracle


def _run(workload, seed, events=3000):
    pattern, trace = inputs.synthetic(workload, seed, events)
    engine = engines.make_engine(workload, pattern)
    engines.replay(workload, engine, trace)
    return pattern, trace, [oracle.match_hash(m) for m in engine.results]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["ooo-replay", "keyed-stream"])
def test_engine_result_matches_the_oracle_digest(tmp_path, workload, seed) -> None:
    pattern, trace, emitted = _run(workload, seed)
    truth = oracle.truth(f"{workload}-{seed}", pattern, trace, cache_dir=tmp_path)
    verdict = oracle.check(truth, emitted)
    assert verdict.ok and verdict.expected == len(emitted) > 0
    assert oracle.digest_of(emitted) == truth.digest


def test_a_changed_result_fails(tmp_path) -> None:
    pattern, trace, emitted = _run("ooo-replay", 1)
    truth = oracle.truth("ooo", pattern, trace, cache_dir=tmp_path)
    assert oracle.check(truth, emitted[1:]) == oracle.Verdict(len(emitted), 1, 0)
    assert oracle.check(truth, emitted + ["0" * 20]).spurious == 1
    assert oracle.check(truth, emitted + emitted[:1]).spurious == 1  # emitted twice
    assert not oracle.check(truth, emitted[1:] + ["0" * 20]).ok


def test_cached_digest_is_reused_and_a_tampered_cache_is_recomputed(tmp_path) -> None:
    pattern, trace, emitted = _run("ooo-replay", 3)
    first = oracle.truth("c", pattern, trace, cache_dir=tmp_path)
    path = tmp_path / "c.json"
    cached = json.loads(path.read_text())
    assert cached["digest"] == first.digest
    # A cache whose hashes no longer produce its digest is not trusted.
    cached["hashes"] = cached["hashes"][1:]
    path.write_text(json.dumps(cached))
    again = oracle.truth("c", pattern, trace, cache_dir=tmp_path)
    assert again == first
    assert oracle.check(again, emitted).ok
