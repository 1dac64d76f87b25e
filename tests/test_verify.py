import json

import pytest

from coxdrops.verify import (CLAIMS, claim_names, pool_size, run_claim,
                             run_claims)


def test_registry_contents():
    names = claim_names()
    for required in ("thm1.1", "thm1.3", "cor1.4", "thm-typeB", "thm-typeD",
                     "cfrac", "mad", "weights", "shape", "moments",
                     "lemma7.2"):
        assert required in names
    for parts in CLAIMS.values():
        for part in parts:
            assert part.group in ("S", "B", "D")
            assert part.description


def test_pool_size_is_clamped_to_the_cpu_count():
    assert pool_size(10_000, 2) == 2
    assert pool_size(2, 2) == 2
    assert pool_size(3, 8) == 3
    assert pool_size(0, 8) == 1
    assert pool_size(-5, 8) == 1
    assert pool_size(4, None) == 1             # cpu count unknown


def test_sweep_uses_the_default_context_without_fork(monkeypatch):
    import itertools
    import multiprocessing

    from coxdrops import verify

    class SerialPool:
        def __init__(self, workers):
            assert workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return list(itertools.starmap(fn, jobs))

    class DefaultContext:
        Pool = SerialPool

    def get_context(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return DefaultContext

    serial = verify._sweep("thm-typeD", "D", 4, threads=1)
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_PARALLEL_CUTOFF", 0)
    assert verify._sweep("thm-typeD", "D", 4, threads=2) == serial


def test_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim"):
        list(run_claim("nope"))


def test_report_shape():
    (report,) = run_claim("thm-typeD", ns=(2,), threads=1)
    assert report.ok and report.group == "D" and report.count == 4
    doc = json.loads(report.to_json())
    assert set(doc) == {"claim", "group", "n", "status", "witness",
                        "elapsed_ms", "count"}
    assert doc["status"] == "pass" and doc["witness"] is None


def test_max_n_caps_at_part_defaults():
    reports = list(run_claim("invol", threads=1, max_n=3))
    assert [(r.group, r.n) for r in reports] == \
        [("S", 1), ("S", 2), ("S", 3), ("B", 1), ("B", 2), ("B", 3)]
    # max_n beyond the default range never exceeds it
    reports = list(run_claim("thm-typeD", threads=1, max_n=99))
    assert [r.n for r in reports] == [2, 3, 4, 5, 6]


def test_run_claims_subset():
    reports = list(run_claims(["thm1.3", "cor1.4"], ns=(3,), threads=1))
    assert [r.claim for r in reports] == ["thm1.3", "cor1.4"]
    assert all(r.ok for r in reports)


def test_parallel_chunks_match_serial():
    serial = [r for r in run_claim("thm-typeB", ns=(5,), threads=1)]
    # force chunking by dropping the cutoff
    import coxdrops.verify as v
    old = v._PARALLEL_CUTOFF
    v._PARALLEL_CUTOFF = 1
    try:
        parallel = [r for r in run_claim("thm-typeB", ns=(5,), threads=2)]
    finally:
        v._PARALLEL_CUTOFF = old
    strip = lambda rs: [(r.claim, r.group, r.n, r.status, r.witness, r.count)
                        for r in rs]
    assert strip(serial) == strip(parallel)


def test_failing_report_carries_witness(monkeypatch):
    import coxdrops.verify as v

    def broken_pred(w):
        return f"{w}: say the shape changed"

    monkeypatch.setitem(v._SWEEPS, "shape", (None, broken_pred))
    (report,) = run_claim("shape", ns=(3,), threads=1)
    assert report.status == "fail"
    assert report.witness and "say the shape changed" in report.witness
