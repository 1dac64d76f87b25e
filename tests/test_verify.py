import ast
import dataclasses
import functools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

from coxdrops.involutions import (_swap_magnitudes, _swap_positions, _toggle_a,
                                  _toggle_b)
from coxdrops.laguerre import motzkin_shape
from coxdrops.perm_core import (format_window, iter_group, pool_size, sweep,
                                usable_cpus)
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


def test_readme_claims_table_follows_the_registry():
    # one row per claim in registry order; its hook, route and scale cells
    # name every part's hook and route, and every part's group and largest
    # default n
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in readme.splitlines()
            if line.startswith("| `")]
    assert [row[0].strip().strip("`") for row in rows] == list(CLAIMS)
    for row, parts in zip(rows, CLAIMS.values()):
        hooks = ", ".join(f"`{part.hook.__name__}`" for part in parts)
        assert row[-3].strip() == hooks, row[0]
        routes = (parts[0].route if len({part.route for part in parts}) == 1
                  else ", ".join(f"{part.group} {part.route}" for part in parts))
        assert row[-2].strip() == routes, row[0]
        scales = [(part.group, max(part.default_ns)) for part in parts]
        want = (f"{scales[0][0]}, n ≤ {scales[0][1]}" if len(scales) == 1
                else ", ".join(f"{g} n ≤ {n}" for g, n in scales))
        assert row[-1].strip() == want, row[0]


def test_pool_size_is_clamped_to_the_cpu_count():
    assert pool_size(10_000, 2) == 2
    assert pool_size(2, 2) == 2
    assert pool_size(3, 8) == 3
    assert pool_size(0, 8) == 1
    assert pool_size(-5, 8) == 1
    assert pool_size(4, None) == 1             # cpu count unknown


def _forking(monkeypatch, cpus=2):
    # let sweep fork over `cpus` CPUs at any group size; returns the list of
    # child pids that os.fork gave the parent
    import coxdrops.perm_core as pc
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(pc.os, "fork", counted)
    monkeypatch.setattr(pc, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 0)
    return forks


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_counts_in_one_process_without_fork(monkeypatch):
    import coxdrops.perm_core as pc
    import coxdrops.verify as v

    # an unmarked hook is counted element-wise, in rank order of first keys
    serial = pc.sweep("D", 5, pc.drops_d, threads=1)
    marked = pc.sweep("D", 5, v.drops_key_d, threads=1)
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 0)
    monkeypatch.delattr(pc.os, "fork")
    chunked = pc.sweep("D", 5, pc.drops_d, threads=2)
    assert chunked == serial and list(chunked) == list(serial)
    tabled = pc.sweep("D", 5, v.drops_key_d, threads=2)
    assert tabled == marked and list(tabled) == list(marked)
    _no_children_left()


@pytest.mark.parametrize("threads", [2, 3])
def test_sweep_forks_one_child_fewer_than_its_workers(monkeypatch, threads):
    # the parent counts a share itself, for a table hook and for an
    # element-wise witness hook alike; only the witness hook keeps key order
    import coxdrops.verify as v
    table, witness = sweep("S", 7, v.drops_key_s), sweep("S", 6, v._invol_key_s)
    forks = _forking(monkeypatch, cpus=3)
    assert sweep("S", 7, v.drops_key_s, threads=threads) == table
    assert len(forks) == threads - 1
    forks.clear()
    chunked = sweep("S", 6, v._invol_key_s, threads=threads)
    assert list(chunked.items()) == list(witness.items())
    assert len(forks) == threads - 1
    _no_children_left()


def test_a_hook_raising_in_a_child_raises_in_the_parent(monkeypatch):
    import coxdrops.perm_core as pc
    # with two workers S_6 is cut into 8 rank ranges of 90; the child counts
    # the odd ones, so rank 100 is its, and rank 0 the parent's
    parent = os.getpid()

    def failing_at(rank, error):
        bad = pc.unrank("S", 6, rank)

        def hook(w):
            if w == bad:
                raise error(f"no key for {format_window(w)} in {os.getpid()}")
            return pc.des(w)
        return hook

    forks = _forking(monkeypatch)
    with pytest.raises(ValueError, match=r"no key for 1,6,2,5,3,4 in \d+") as info:
        sweep("S", 6, failing_at(100, ValueError), threads=2)
    assert forks == [int(str(info.value).split()[-1])]
    _no_children_left()

    class Unpicklable(Exception):              # local, so it cannot be pickled
        pass

    with pytest.raises(RuntimeError, match="Unpicklable: no key for 1,6,2,5,3,4"):
        sweep("S", 6, failing_at(100, Unpicklable), threads=2)
    _no_children_left()

    # a hook raising in the parent's own share kills and reaps the child
    with pytest.raises(KeyError, match=f"no key for 1,2,3,4,5,6 in {parent}"):
        sweep("S", 6, failing_at(0, KeyError), threads=2)
    _no_children_left()


def test_a_lambda_hook_sweeps_across_workers(monkeypatch):
    hook = lambda w: (w[0], w[-1] > w[0])      # noqa: E731
    serial = sweep("B", 5, hook)
    forks = _forking(monkeypatch)
    chunked = sweep("B", 5, hook, threads=2)
    assert chunked == serial and list(chunked) == list(serial)
    assert len(forks) == 1
    _no_children_left()


def test_the_worker_count_reads_the_cpu_affinity(monkeypatch):
    # one CPU to run on out of 64 on the host: sweep and verify --threads 0
    # fork nothing
    import coxdrops.perm_core as pc
    from coxdrops.cli import main
    forks = _forking(monkeypatch)
    monkeypatch.setattr(pc, "usable_cpus", usable_cpus)
    monkeypatch.setattr(pc.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(pc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pc.usable_cpus() == 1
    assert sweep("S", 7, pc.des, threads=64) == sweep("S", 7, pc.des)
    assert main(["verify", "cor1.4", "--n", "7", "--threads", "0",
                 "--out", os.devnull]) == 0
    assert forks == []
    # without an affinity call the CPU count stands
    monkeypatch.delattr(pc.os, "sched_getaffinity")
    assert pc.usable_cpus() == 64
    monkeypatch.setattr(pc.os, "cpu_count", lambda: None)
    assert pc.usable_cpus() == 1


def test_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim"):
        list(run_claim("nope"))


def test_report_shape():
    (report,) = run_claim("thm-typeD", ns=(2,), threads=1)
    assert report.ok and report.group == "D" and report.count == 4
    doc = json.loads(report.to_json())
    assert list(doc) == ["claim", "group", "n", "status", "witness",
                         "elapsed_ms", "count", "route"]
    assert doc["status"] == "pass" and doc["witness"] is None
    assert doc["route"] == "sweep"
    (report,) = run_claim("shape", ns=(5,), threads=1)
    assert report.ok and report.route == "quotient" and report.count == 120


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
                "thm-typeD": 6, "lemma7.2": 5, "cfrac": 7, "mad": 7, "weights": 7,
                "moments": 7}


def test_table_claims_are_the_block_additive_ones():
    assert set(TABLE_CLAIMS) == {name for name, parts in CLAIMS.items()
                                 if all(hasattr(part.hook, "table_groups") for part in parts)}


def test_every_marked_part_sweeps_a_group_its_mark_names():
    # a mark that leaves out its part's group would send the part's sweep
    # element-wise without a word
    assert [part.name for parts in CLAIMS.values() for part in parts
            if part.group not in getattr(part.hook, "table_groups", part.group)] == []


def test_parallel_chunks_match_serial(monkeypatch):
    import coxdrops.perm_core as pc
    serial = {name: list(run_claim(name, ns=(n,), threads=1))
              for name, n in TABLE_CLAIMS.items()}
    # force chunking by dropping the cutoff
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    for name, n in TABLE_CLAIMS.items():
        parallel = list(run_claim(name, ns=(n,), threads=2))
        assert strip(parallel) == strip(serial[name]), name


def test_mad_reports_match_serial_across_workers(monkeypatch):
    # n <= 4 sweeps the mad key by rank ranges, n >= 5 by table contexts
    import coxdrops.perm_core as pc
    serial = list(run_claim("mad", threads=1))
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
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
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 1)
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    for (kind, n, hook), want in zip(hooks, serial):
        assert list(sweep(kind, n, hook, threads=2).items()) == want, (kind, n)
    for (name, n), want in zip((("invol", 5), ("shape", 7)), reports):
        assert strip(run_claim(name, ns=(n,), threads=2)) == strip(want), name


def test_failing_report_carries_witness(monkeypatch):
    def broken_pred(w):
        return f"{w}: say the shape changed"

    (part,) = CLAIMS["shape"]
    monkeypatch.setitem(CLAIMS, "shape", (dataclasses.replace(part, hook=broken_pred),))
    (report,) = run_claim("shape", ns=(3,), threads=1)
    assert report.status == "fail"
    # the witness is the first violation in rank order
    assert report.witness == "(1, 2, 3): say the shape changed"


@pytest.mark.parametrize("claim, n, witness", [
    ("thm1.3", 4, "trivariate enumerator differs from (1-tpq)^3"),
    ("cor1.4", 4, "signed drops enumerator differs from (1-q)^3"),
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


def test_moments_names_a_wrong_variance(monkeypatch):
    # drops 0, 0, 0, 2 over S_2: the mean 1/2 is right, the variance 3/4 not
    import coxdrops.verify as v
    monkeypatch.setattr(v, "sweep", lambda *args: Counter(
        {(0, 0, 0, 0, 0): 3, (0, 0, 2, 0, 0): 1}))
    (report,) = run_claim("moments", ns=(2,), threads=1)
    assert (report.status, report.witness) == (
        "fail", "variance over S_2 is 3/4, not (n+1)(2n^2+7)/180")


@pytest.mark.slow
def test_type_b_at_n8_passes():
    (report,) = run_claim("thm-typeB", ns=(8,))
    assert report.ok and report.count == 10_321_920


def test_each_part_sweeps_its_own_group(monkeypatch):
    # every count a part makes is of its declared group, at its n, with the
    # run's thread count, by the route and of the hook its registry entry
    # names, and its report names that route; every key hook that verify
    # defines is some part's hook.  The recorders count serially whatever
    # they are passed
    import inspect

    import coxdrops.verify as v
    defined = {f for f in vars(v).values() if inspect.isfunction(f)
               and f.__module__ == v.__name__ and "_key" in f.__name__}
    assert defined - {part.hook for parts in CLAIMS.values() for part in parts} == set()
    calls = []

    def recorder(name, route):
        def record(kind, n, hook, threads):
            calls.append((kind, n, threads, name, hook))
            return route(kind, n, hook, 1)
        return record

    for name in ("sweep", "quotient"):
        monkeypatch.setattr(v, name, recorder(name, getattr(v, name)))
    runs = [(name, None) for name in CLAIMS] + [("cor1.4", (9,))]
    reports = 0
    for name, ns in runs:
        for report in run_claim(name, ns=ns, threads=3):
            (part,) = [p for p in CLAIMS[name] if p.group == report.group]
            assert report.ok and report.route == part.route
            assert calls and {c[:3] for c in calls} == {(report.group, report.n, 3)}
            assert {c[3:] for c in calls} == {(part.route, part.hook)}
            calls.clear()
            reports += 1
    assert reports == 104
    assert {(part.name, part.group) for parts in CLAIMS.values() for part in parts
            if part.route == "quotient"} == {("invol", "S"), ("shape", "S")}


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
        monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
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
# the prefix quotient against the element-wise sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("hook", ["_invol_key_s", "_shape_witness"])
def test_quotient_counts_what_the_sweep_counts(n, hook):
    # same keys, same counts, keys in the same order
    import coxdrops.verify as v
    hook = getattr(v, hook)
    swept, quotient = sweep("S", n, hook), v.quotient("S", n, hook)
    assert list(quotient.items()) == list(swept.items())
    assert quotient.total() == math.factorial(n)


def test_quotient_covers_s_n_only():
    import coxdrops.verify as v
    with pytest.raises(ValueError, match="S_n only"):
        v.quotient("B", 3, v._invol_key_b)


def _reads_past_the_prefix(p):
    # self-swaps, so the sign is kept, where the window ends in a descent
    # that lies past its deciding prefix: ascending completions are spared
    hit = _toggle_a(p)
    if hit and hit[0] + 2 < len(p) - 1 and p[-2] > p[-1]:
        return hit[0], hit[1], hit[1]
    return hit


@pytest.mark.parametrize("n", range(5, 9))
def test_quotient_names_a_fault_past_the_deciding_prefix(monkeypatch, n):
    # the descending completion meets the fault; the witness is the first
    # the element-wise sweep finds, at one worker and two
    import coxdrops.verify as v
    monkeypatch.setattr(v, "_toggle_a", _reads_past_the_prefix)
    # the type-S part alone: B_8 is 10.3M elements
    monkeypatch.setitem(CLAIMS, "invol", CLAIMS["invol"][:1])
    for threads in (1, 2):
        _chunked(monkeypatch, threads)
        swept = v._run_invol_s(n, sweep("S", n, v._invol_key_s, threads))
        assert swept.endswith(": sign not reversed")
        assert n != 5 or swept == "2,3,1,5,4: sign not reversed"
        (report,) = run_claim("invol", ns=(n,), threads=threads)
        assert report.route == "quotient" and report.witness == swept, threads


def test_quotient_parts_pass_at_s9():
    import coxdrops.verify as v
    (report,) = run_claim("shape", ns=(9,), threads=1)
    assert report.ok and report.route == "quotient" and report.count == 362_880
    assert v._run_invol_s(9, v.quotient("S", 9, v._invol_key_s)) is None


# ---------------------------------------------------------------------------
# each 2-cycle's symmetric comparisons run once
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    # the counted stand-in keeps the real function's name and any
    # block_additive mark, so sweep routes it as it routes the real one
    real, calls = getattr(module, name), []

    @functools.wraps(real)
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
def test_shape_toggles_each_element_once(monkeypatch, n):
    # a moved window's shape is compared with its image's at each member of
    # the pair; a fixed point reads no shape
    import coxdrops.verify as v
    toggles = _count_calls(monkeypatch, v, "_toggle_a")
    shapes = _count_calls(monkeypatch, v, "_shape")
    sweep("S", n, v._shape_witness)
    assert len(toggles) == math.factorial(n)
    assert len(shapes) == 2 * (math.factorial(n) - 2 ** (n - 1))


def test_weights_counts_s8_shapes_by_tables(monkeypatch):
    # the 70 * (24 + 23 + 3 * 3) calls of any table hook over S_8, not
    # 8! = 40,320; an element-wise shape sweep fails here
    import coxdrops.verify as v
    calls = _count_calls(monkeypatch, v, "_shape_key")
    (part,) = CLAIMS["weights"]
    monkeypatch.setitem(CLAIMS, "weights", (dataclasses.replace(part, hook=v._shape_key),))
    (report,) = run_claim("weights", ns=(8,), threads=1)
    assert report.ok
    assert len(calls) == 3920


def test_a_per_path_fault_at_s8_is_named(monkeypatch):
    # one length-8 path's enumerator off by one monomial: weights checks
    # every path's (depth, inv) enumerator at every n, S_8 included
    import coxdrops.genpoly as gp
    real = gp.per_path_enumerator
    monkeypatch.setattr(gp, "per_path_enumerator", lambda steps: real(steps) + (
        gp.MultiPoly.one() if steps == "NENESESE" else gp.MultiPoly.zero()))
    (report,) = run_claim("weights", ns=(8,), threads=1)
    assert report.witness == "per-path enumerator mismatch on NENESESE"


@pytest.mark.parametrize("threads", [1, 2])
def test_a_shape_with_n_and_s_swapped_is_named(monkeypatch, threads):
    # (2, 1) then reads S N, so the path N S has no preimage
    import coxdrops.verify as v
    real = v._shape
    _chunked(monkeypatch, threads)
    monkeypatch.setattr(v, "_shape", lambda w: real(w)[::-1])
    (weights,) = run_claim("weights", ns=(2,), threads=threads)
    assert weights.witness == "weight of NS != preimage count"
    (mad,) = run_claim("mad", ns=(2,), threads=threads)
    assert mad.ok


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
    for threads in (1, 2):
        _chunked(monkeypatch, threads)
        (report,) = run_claim("fz", ns=(2,), threads=threads)
        assert report.witness == "2,1: image is not a restricted history", threads


@pytest.mark.parametrize("victim, target", [((1, 3, 2), (3, 2, 1)),
                                            ((3, 2, 1), (1, 3, 2))])
def test_fz_reports_two_windows_sent_to_one_history(monkeypatch, victim, target):
    # the victim takes the target's round trip, which decodes to the target
    import coxdrops.verify as v
    real = v._round_trip
    monkeypatch.setattr(v, "_round_trip", lambda w: real(target if w == victim else w))
    for threads in (1, 2):
        _chunked(monkeypatch, threads)
        (report,) = run_claim("fz", ns=(3,), threads=threads)
        assert report.status == "fail"
        assert report.witness == f"{format_window(victim)}: history does not decode to it"


def test_fz_s7_report_is_the_same_at_one_and_two_workers(monkeypatch):
    strip = lambda rs: [dataclasses.replace(r, elapsed_ms=0) for r in rs]
    serial = strip(run_claim("fz", ns=(7,), threads=1))
    _chunked(monkeypatch, 2)
    assert strip(run_claim("fz", ns=(7,), threads=2)) == serial
    assert serial[0].ok


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
