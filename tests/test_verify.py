import ast
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from coxdrops.involutions import (_swap_magnitudes, _swap_positions, _toggle_a,
                                  _toggle_b)
from coxdrops.laguerre import motzkin_shape
from coxdrops.perm_core import format_window, iter_group, pool_size, sweep
from coxdrops.verify import CLAIMS, plan, run_claim


def test_registry_contents():
    names = tuple(CLAIMS)
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

    from coxdrops import perm_core as pc
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

    # an unmarked hook is counted element-wise, in rank order of first keys
    serial = pc.sweep("D", 4, pc.drops_d, threads=1)
    marked = pc.sweep("D", 4, verify.drops_key_d, threads=1)
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(pc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 0)
    chunked = pc.sweep("D", 4, pc.drops_d, threads=2)
    assert chunked == serial and list(chunked) == list(serial)
    assert pc.sweep("D", 4, verify.drops_key_d, threads=2) == marked


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


# the (claim, group, first n, last n) of every default run, in report order
DEFAULT_PLAN = [
    ("thm1.1", "S", 1, 8), ("thm1.3", "S", 1, 8), ("cor1.4", "S", 1, 8),
    ("thm-typeB", "B", 1, 6), ("thm-typeD", "D", 2, 6), ("lemma7.2", "B", 2, 6),
    ("cfrac", "S", 0, 8), ("mad", "S", 1, 8), ("weights", "S", 1, 8),
    ("shape", "S", 1, 8), ("moments", "S", 1, 8), ("fz", "S", 1, 8),
    ("invol", "S", 1, 8), ("invol", "B", 1, 6),
]


def _triples(pairs):
    return [(part.name, part.group, n) for part, n in pairs]


def test_default_plan_lists_every_report_in_order():
    want = [(c, g, n) for c, g, lo, hi in DEFAULT_PLAN for n in range(lo, hi + 1)]
    assert len(want) == 103
    assert _triples(plan(list(CLAIMS))) == want


def test_default_plan_matches_the_benchmark_scales():
    # read perfbench/child.py's PAPER_SCALES without importing the harness,
    # so that a change of default sizes must change the benchmark with it
    source = (pathlib.Path(__file__).parents[1] / "perfbench" / "child.py").read_text()
    node = next(node.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PAPER_SCALES"])
    scales = eval(compile(ast.Expression(node), "PAPER_SCALES", "eval"),
                  {"__builtins__": {}, "range": range})
    assert _triples(plan(list(CLAIMS))) == [(c, g, n) for c, g, ns in scales for n in ns]


def test_plan_sizes():
    # an explicit size applies to every part, but never below its first default
    assert _triples(plan(list(CLAIMS), ns=(0,))) == [("cfrac", "S", 0)]
    at_one = _triples(plan(list(CLAIMS), ns=(1,)))
    assert len(at_one) == 12
    assert {c for c, _, _ in at_one}.isdisjoint({"lemma7.2", "thm-typeD"})
    assert plan(list(CLAIMS), ns=(-1,)) == []
    # max_n caps the defaults and has no effect on explicit sizes
    assert _triples(plan(["thm-typeD"], max_n=3)) == \
        [("thm-typeD", "D", 2), ("thm-typeD", "D", 3)]
    assert _triples(plan(["thm1.3"], ns=(5,), max_n=3)) == [("thm1.3", "S", 5)]
    assert plan(["thm1.3"], max_n=0) == []
    with pytest.raises(ValueError, match="unknown claim 'nope'"):
        plan(["thm1.1", "nope"])


def test_claims_below_their_first_size_run_nothing():
    assert list(run_claim("lemma7.2", ns=(1,))) == []
    assert list(run_claim("thm-typeD", ns=(0, 1))) == []
    (report,) = run_claim("cfrac", ns=(0,))
    assert report.ok and (report.group, report.n, report.count) == ("S", 0, 1)


# the claims whose hooks are block-additive, at sizes of many table contexts
TABLE_CLAIMS = {"thm1.1": 7, "thm1.3": 7, "cor1.4": 7, "thm-typeB": 5,
                "thm-typeD": 6, "lemma7.2": 5, "cfrac": 7, "moments": 7}


def test_parallel_chunks_match_serial(monkeypatch):
    import coxdrops.perm_core as pc
    serial = {name: list(run_claim(name, ns=(n,), threads=1))
              for name, n in TABLE_CLAIMS.items()}
    # force chunking by dropping the cutoff
    monkeypatch.setattr(pc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    for name, n in TABLE_CLAIMS.items():
        parallel = list(run_claim(name, ns=(n,), threads=2))
        assert strip(parallel) == strip(serial[name]), name


def test_mad_reports_match_serial_across_workers(monkeypatch):
    # n <= 7 sweeps the path key by rank ranges, n = 8 the mad key by table
    # contexts
    import coxdrops.perm_core as pc
    serial = list(run_claim("mad", threads=1))
    monkeypatch.setattr(pc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    assert [r.n for r in serial] == list(range(1, 9))
    assert all(r.ok for r in serial)
    assert strip(run_claim("mad", threads=2)) == strip(serial)


def test_pair_claims_match_serial_across_workers(monkeypatch):
    # the pair hooks compare a 2-cycle at its earlier member, which a rank
    # range may hold apart from its partner
    import coxdrops.perm_core as pc
    import coxdrops.verify as v
    hooks = [("S", 7, v._invol_key_s), ("B", 5, v._invol_key_b),
             ("S", 7, v._shape_witness)]
    serial = [list(sweep(kind, n, hook).items()) for kind, n, hook in hooks]
    reports = [list(run_claim(name, ns=(n,), threads=1))
               for name, n in (("invol", 5), ("shape", 7))]
    monkeypatch.setattr(pc.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    for (kind, n, hook), want in zip(hooks, serial):
        assert list(sweep(kind, n, hook, threads=2).items()) == want, (kind, n)
    for (name, n), want in zip((("invol", 5), ("shape", 7)), reports):
        assert strip(run_claim(name, ns=(n,), threads=2)) == strip(want), name


def test_failing_report_carries_witness(monkeypatch):
    import coxdrops.verify as v

    def broken_pred(w):
        return f"{w}: say the shape changed"

    monkeypatch.setattr(v, "_shape_witness", broken_pred)
    (report,) = run_claim("shape", ns=(3,), threads=1)
    assert report.status == "fail"
    # the witness is the first violation in rank order
    assert report.witness == "(1, 2, 3): say the shape changed"


@pytest.mark.parametrize("claim, n, witness", [
    ("thm1.3", 4, "trivariate enumerator differs from (1-tpq)^3"),
    ("cor1.4", 4, "signed drops specialization differs from the binomial form"),
    ("cor1.4", 9, "signed drops enumerator differs from (1-q)^8"),
    ("thm-typeB", 3, "type-B signed drops enumerator differs from (1-q)^3"),
    ("thm-typeD", 3, "type-D signed drops enumerator differs from (1-q^3)(1-q)^2"),
    ("cfrac", 4, "t^4 coefficient of the convergent differs from the enumerator"),
])
def test_a_wrong_enumerator_is_named_in_the_witness(monkeypatch, claim, n, witness):
    # one monomial, q, is no enumerator the claims expect
    import coxdrops.verify as v
    monkeypatch.setattr(v, "sweep", lambda *args: Counter({(0, 0, 1, 0, 0): 1}))
    (report,) = run_claim(claim, ns=(n,), threads=1)
    assert (report.status, report.witness) == ("fail", witness)


@pytest.mark.parametrize("keys, name", [
    ([(0, 0, 0, 0, 0), (0, 0, 1, 0, 1)], "excedance"),
    ([(0, 0, 0, 0, 0), (1, 0, 1, 0, 1)], "depth"),
])
def test_cor14_names_the_first_wrong_specialization(monkeypatch, keys, name):
    # 1 - q specializes right for drops alone, 1 - tq for drops and excedance
    import coxdrops.verify as v
    monkeypatch.setattr(v, "sweep", lambda *args: Counter(keys))
    (report,) = run_claim("cor1.4", ns=(2,), threads=1)
    assert report.witness == f"signed {name} specialization differs from the binomial form"


@pytest.mark.slow
def test_type_b_at_n8_passes():
    (report,) = run_claim("thm-typeB", ns=(8,))
    assert report.ok and report.count == 10_321_920


def test_cfrac_reports_at_the_ends_of_its_range():
    for n in (0, 9):
        (report,) = run_claim("cfrac", ns=(n,), threads=1)
        assert report.ok and report.count == math.factorial(n)


# ---------------------------------------------------------------------------
# the involution hooks against broken toggles
# ---------------------------------------------------------------------------

def _wrong_pair_a(p):
    # pairs the larger of the two entries with the entry that triggered the
    # toggle, instead of with the largest one
    hit = _toggle_a(p)
    return hit and (hit[0], hit[1], hit[0] + 1)


def _wrong_pair_b(s):
    # at the last stage, pairs the first magnitude with the last position
    hit = _toggle_b(s)
    return (hit[0], hit[1], len(s) - 1) if hit and hit[0] == len(s) else hit


def _wrong_upper_a(p):
    # _wrong_pair_a, but only at the later member of a true 2-cycle
    hit = _toggle_a(p)
    return _wrong_pair_a(p) if hit and _swap_positions(p, hit[1], hit[2]) < p else hit


def _wrong_upper_b(s):
    # only at the later member of a true 2-cycle, pairs the first magnitude
    # with the last
    hit = _toggle_b(s)
    if (hit and _swap_magnitudes(s, hit[1], hit[2]) < s
            and {hit[1], hit[2]} != {0, len(s) - 1}):
        return hit[0], 0, len(s) - 1
    return hit


def _self_swap_a(p):
    # reports a hit but swaps a position with itself, so the image is p
    hit = _toggle_a(p)
    return hit and (hit[0], hit[1], hit[1])


def _first_touched(kind, n, broken):
    """The first element in rank order whose check meets the broken toggle,
    on the element or on its true image.  Every element before it is checked
    exactly as with the true toggle, under which the claim passes."""
    toggle, swap = ((_toggle_a, _swap_positions) if kind == "S"
                    else (_toggle_b, _swap_magnitudes))
    for w in iter_group(kind, n):
        hit = toggle(w)
        y = w if hit is None else swap(w, hit[1], hit[2])
        if broken(w) != hit or broken(y) != toggle(y):
            return w


def _first_moved(n, broken):
    # the first window whose shape the broken toggle's image changes
    def image(w):
        hit = broken(w)
        return w if hit is None else _swap_positions(w, hit[1], hit[2])

    return next((w for w in iter_group("S", n)
                 if motzkin_shape(w) != motzkin_shape(image(w))), None)


def _chunked(monkeypatch, threads):
    # with two workers, force rank-range shares so that pairs straddle them
    import coxdrops.perm_core as pc
    if threads > 1:
        monkeypatch.setattr(pc.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)


@pytest.mark.parametrize("kind, n, name, broken, message", [
    ("S", 3, "_toggle_a", _wrong_pair_a, "2,3,1: map is not involutive"),
    ("S", 5, "_toggle_a", _wrong_pair_a, "1,2,4,5,3: map is not involutive"),
    ("B", 3, "_toggle_b", _wrong_pair_b, "-3,-1,-2: sign not reversed"),
    ("B", 4, "_toggle_b", _wrong_pair_b, "-4,-2,-1,-3: sign not reversed"),
    ("S", 4, "_toggle_a", _wrong_upper_a, "1,3,4,2: map is not involutive"),
    ("S", 5, "_toggle_a", _wrong_upper_a, "1,2,4,5,3: map is not involutive"),
    ("B", 3, "_toggle_b", _wrong_upper_b, "-3,-2,-1: map is not involutive"),
    ("B", 4, "_toggle_b", _wrong_upper_b, "-4,-3,-2,-1: map is not involutive"),
    ("S", 4, "_toggle_a", _self_swap_a, "1,3,4,2: sign not reversed"),
    ("S", 5, "_toggle_a", _self_swap_a, "1,2,4,5,3: sign not reversed"),
])
def test_invol_reports_the_first_element_a_broken_toggle_fails(
        monkeypatch, kind, n, name, broken, message):
    import coxdrops.verify as v

    first = format_window(_first_touched(kind, n, broken))
    monkeypatch.setattr(v, name, broken)
    for threads in (1, 2):
        _chunked(monkeypatch, threads)
        reports = {r.group: r for r in run_claim("invol", ns=(n,), threads=threads)}
        assert reports[kind].status == "fail"
        assert reports[kind].witness == message, threads
        # the other part of the claim keeps its true toggle and passes
        assert reports["B" if kind == "S" else "S"].ok
    assert message.startswith(first + ":")


@pytest.mark.parametrize("n, first", [(3, "2,3,1"), (5, "1,2,4,5,3")])
def test_shape_reports_the_first_element_a_broken_toggle_moves(monkeypatch, n, first):
    import coxdrops.verify as v

    assert format_window(_first_moved(n, _wrong_pair_a)) == first
    monkeypatch.setattr(v, "_toggle_a", _wrong_pair_a)
    (report,) = run_claim("shape", ns=(n,), threads=1)
    assert report.status == "fail"
    assert report.witness == f"{first}: shape changes under the involution"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, broken, first", [
    (4, _wrong_upper_a, "4,3,1,2"), (5, _wrong_upper_a, "1,5,4,2,3"),
    (6, _wrong_upper_a, "1,2,6,5,3,4"), (5, _self_swap_a, None),
])
def test_shape_finds_a_toggle_broken_at_one_member_of_a_pair(
        monkeypatch, threads, n, broken, first):
    # a self-swap leaves every window in place, so no shape moves
    import coxdrops.verify as v

    moved = _first_moved(n, broken)
    assert (moved and format_window(moved)) == first
    _chunked(monkeypatch, threads)
    monkeypatch.setattr(v, "_toggle_a", broken)
    (report,) = run_claim("shape", ns=(n,), threads=threads)
    assert report.witness == (first and f"{first}: shape changes under the involution")


def _adjacent_a(p):
    # pairs every window with its first two entries swapped: involutive and
    # sign-reversing, but it moves the statistics and the shape
    return 0, 0, 1


def _adjacent_b(s):
    # the same in type B: the first two magnitudes swap, signs kept
    return 1, 0, 1


@pytest.mark.parametrize("threads", [1, 2])
def test_a_mutual_pair_is_reported_at_its_earlier_member(monkeypatch, threads):
    import coxdrops.verify as v
    _chunked(monkeypatch, threads)
    monkeypatch.setattr(v, "_toggle_a", _adjacent_a)
    monkeypatch.setattr(v, "_toggle_b", _adjacent_b)
    reports = {r.group: r for r in run_claim("invol", ns=(5,), threads=threads)}
    assert reports["S"].witness == "1,2,3,4,5: (drops, depth, iexc) not preserved"
    assert reports["B"].witness == "-5,-3,-4,-2,-1: drops_b not preserved"
    (report,) = run_claim("shape", ns=(5,), threads=threads)
    assert report.witness == "1,2,3,4,5: shape changes under the involution"


# ---------------------------------------------------------------------------
# each 2-cycle's symmetric comparisons run once
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", range(1, 8))
def test_invol_s_scans_each_element_once(monkeypatch, n):
    import coxdrops.perm_core as pc
    import coxdrops.verify as v
    calls = _count_calls(monkeypatch, pc, "_scan")
    sweep("S", n, v._invol_key_s)
    assert len(calls) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_invol_b_scans_each_element_once(monkeypatch, n):
    import coxdrops.perm_core as pc
    import coxdrops.verify as v
    calls = _count_calls(monkeypatch, pc, "_scan_b")
    sweep("B", n, v._invol_key_b)
    assert len(calls) == 2 ** n * math.factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_shape_reads_each_non_fixed_shape_once(monkeypatch, n):
    import coxdrops.verify as v
    calls = _count_calls(monkeypatch, v, "_shape")
    sweep("S", n, v._shape_witness)
    assert len(calls) == math.factorial(n) - 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_fz_walks_each_element_once(monkeypatch, n):
    # one fused walk per element; the separate encoder and decoder stay idle
    import coxdrops.laguerre as lag
    import coxdrops.verify as v
    calls = _count_calls(monkeypatch, v, "_round_trip")
    idle = [_count_calls(monkeypatch, lag, name) for name in ("_history", "_decode")]
    sweep("S", n, v._fz_key)
    assert len(calls) == math.factorial(n)
    assert idle == [[], []]


# ---------------------------------------------------------------------------
# the fz claim: one decoding walk checks, sums and inverts each history
# ---------------------------------------------------------------------------

def test_fz_reports_a_history_that_is_not_restricted(monkeypatch):
    # the victim takes the round trip of (1, 1), whose encoding E, D at
    # height 0 the decoder half rejects
    import coxdrops.verify as v
    real = v._round_trip
    monkeypatch.setattr(v, "_round_trip", lambda w: real((1, 1) if w == (2, 1) else w))
    (report,) = run_claim("fz", ns=(2,), threads=1)
    assert report.witness == "2,1: image is not a restricted history"


@pytest.mark.parametrize("victim, target", [((1, 3, 2), (3, 2, 1)),
                                            ((3, 2, 1), (1, 3, 2))])
def test_fz_reports_two_windows_sent_to_one_history(monkeypatch, victim, target):
    # the victim takes the target's round trip, which decodes to the target
    import coxdrops.verify as v
    real = v._round_trip
    monkeypatch.setattr(v, "_round_trip", lambda w: real(target if w == victim else w))
    (report,) = run_claim("fz", ns=(3,), threads=1)
    assert report.status == "fail"
    assert report.witness == f"{format_window(victim)}: history does not decode to it"


def test_fz_sweep_holds_one_key():
    import coxdrops.verify as v
    assert sweep("S", 7, v._fz_key) == Counter({None: math.factorial(7)})


def _peak_rss_kib(*argv):
    # a wrapper interpreter runs the verb as its only child, so its
    # RUSAGE_CHILDREN peak is that child's alone
    code = ("import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, sys.executable, "-m", "coxdrops", *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return int(proc.stdout)


def test_fz_peaks_like_a_claim_that_keeps_no_per_element_keys():
    fz = _peak_rss_kib("verify", "fz", "--n", "8", "--threads", "1")
    thm13 = _peak_rss_kib("verify", "thm1.3", "--n", "8", "--threads", "1")
    assert fz <= 1.1 * thm13, (fz, thm13)
