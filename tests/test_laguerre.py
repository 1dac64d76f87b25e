import dataclasses
import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.genpoly import per_path_enumerator
from coxdrops.involutions import fixed_points, involution_a
from coxdrops.laguerre import (LaguerreHistory, _decode, _history,
                               _round_trip, area, from_history,
                               fz_history, heights, is_valid_path, max_height,
                               motzkin_paths, motzkin_shape, nest, path_weight)
from oracles import (cyclic_classify, laguerre_histories, nest_at,
                     two_motzkin_paths)


# ---------------------------------------------------------------------------
# cyclic classes and nesting
# ---------------------------------------------------------------------------

def test_cyclic_classify_examples():
    for i in (1, 2, 3):
        assert cyclic_classify((1, 2, 3), i) == "Fix"
    assert cyclic_classify((2, 1), 1) == "CVal"
    assert cyclic_classify((2, 1), 2) == "CPk"
    assert [cyclic_classify((4, 3, 2, 1), i) for i in range(1, 5)] == \
        ["CVal", "CVal", "CPk", "CPk"]
    with pytest.raises(ValueError):
        cyclic_classify((2, 1), 3)


def test_cyclic_classes_partition(groups):
    for w in groups["S"](5):
        for i in range(1, 6):
            assert cyclic_classify(w, i) in ("CPk", "CVal", "Cda", "Cdd", "Fix")


def test_nest_examples():
    assert all(nest_at((1, 2, 3), i) == 0 for i in (1, 2, 3))
    assert nest_at((4, 3, 2, 1), 2) == 1
    assert nest_at((4, 3, 2, 1), 3) == 1
    assert nest((4, 3, 2, 1)) == 2
    assert nest((3, 1, 2)) == 0


def test_nest_sums_nest_at():
    for n in range(9):
        for w in pc.iter_group("S", n):
            assert nest(w) == sum(nest_at(w, i) for i in range(1, n + 1)), w


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------

def test_fz_history_examples():
    assert fz_history((1, 2, 3)) == LaguerreHistory("EEE", (0, 0, 0))
    assert fz_history((2, 1)) == LaguerreHistory("NS", (0, 0))
    assert fz_history((4, 3, 2, 1)) == LaguerreHistory("NNSS", (0, 1, 1, 0))


def test_history_json():
    doc = json.loads(fz_history((4, 3, 2, 1)).to_json())
    assert doc == {"steps": "NNSS", "labels": [0, 1, 1, 0]}


def test_history_validity_bounds():
    assert LaguerreHistory("NS", (0, 0)).is_valid()
    assert not LaguerreHistory("NS", (1, 0)).is_valid()   # N label above height
    assert not LaguerreHistory("NS", (0, 1)).is_valid()   # S label needs < h
    assert not LaguerreHistory("SN", (0, 0)).is_valid()   # dips below zero
    assert not LaguerreHistory("NE", (0, 0)).is_valid()   # ends at height 1


def test_fz_steps_follow_cyclic_classes(groups):
    # the one-pass history against the per-position definitions
    step_of = {"CVal": "N", "CPk": "S", "Cda": "E", "Fix": "E", "Cdd": "D"}
    for n in range(9):
        for w in groups["S"](n):
            h = fz_history(w)
            assert h.steps == "".join(step_of[cyclic_classify(w, i)]
                                      for i in range(1, n + 1)), w
            assert h.labels == tuple(nest_at(w, i) for i in range(1, n + 1)), w
            assert motzkin_shape(w) == h.shape, w


@pytest.mark.parametrize("bad", [(1, 1), (2, 3), (-1, 2), (0,)])
def test_history_and_shape_reject_invalid_windows(bad):
    for f in (fz_history, motzkin_shape):
        with pytest.raises(ValueError):
            f(bad)


def test_fz_suite_small(groups):
    for n in range(1, 7):
        seen = set()
        for w in groups["S"](n):
            h = fz_history(w)
            assert h.is_valid()
            ar = area(h.steps)
            assert pc.depth(w) == ar
            assert pc.inv(w) == ar + sum(h.labels)
            assert pc.iexc(w) == h.steps.count("N") + h.steps.count("D")
            seen.add((h.steps, h.labels))
        assert len(seen) == math.factorial(n)


def test_history_enumeration_matches_image(groups):
    for n in range(1, 6):
        image = {(h.steps, h.labels) for h in map(fz_history, groups["S"](n))}
        domain = {(h.steps, h.labels) for h in laguerre_histories(n)}
        assert image == domain
        assert len(domain) == math.factorial(n)


def test_from_history_inverts_fz_history_on_s0_to_s8(groups):
    for n in range(9):
        for w in groups["S"](n):
            h = fz_history(w)
            assert from_history(h.steps, h.labels) == w


def test_every_restricted_history_decodes_to_its_preimage():
    # with the left inverse above, this makes fz_history a bijection onto
    # the restricted histories that laguerre_histories lists
    for n in range(8):
        for h in laguerre_histories(n):
            assert fz_history(from_history(h.steps, h.labels)) == h


@pytest.mark.parametrize("steps, labels", [
    ("S", (0,)), ("NS", (1, 0)), ("NS", (0, 1)), ("NE", (0, 0)),
    ("NXS", (0, 0, 0)), ("NS", (0,)), ("E", (-1,)),
])
def test_from_history_rejects_histories_that_are_not_restricted(steps, labels):
    with pytest.raises(ValueError, match="not a restricted Laguerre history"):
        from_history(steps, labels)


def _agrees_with_is_valid(h):
    # None exactly where is_valid() is false, and otherwise the area and
    # the one window whose history is h
    got = _decode(h.steps, h.labels)
    if not h.is_valid():
        return got is None
    return (got is not None and got[0] == sum(heights(h.steps))
            and fz_history(got[1]) == h)


def test_decode_agrees_with_is_valid_on_s0_to_s6(groups):
    for n in range(7):
        for w in groups["S"](n):
            h = fz_history(w)
            assert _agrees_with_is_valid(h), w
            assert _decode(h.steps, h.labels) == (sum(heights(h.steps)), w)


@pytest.mark.parametrize("steps, labels", [
    ("S", (0,)), ("N", (0,)), ("NS", (0, 1)), ("NS", (1, 0)), ("ND", (0, 0)),
    ("NDS", (0, 0, 0)), ("NDS", (0, 1, 0)), ("NXS", (0, 0, 0)), ("NS", (0,)),
    ("NE", (0, -1)), ("SN", (0, 0)),
])
def test_decode_agrees_with_is_valid_on_hand_made_histories(steps, labels):
    assert _agrees_with_is_valid(LaguerreHistory(steps, labels))


def test_decode_agrees_with_is_valid_on_short_words():
    for n in range(4):
        for steps in itertools.product("NSEDX", repeat=n):
            for labels in itertools.product(range(-1, 3), repeat=n):
                assert _agrees_with_is_valid(LaguerreHistory("".join(steps), labels))


# ---------------------------------------------------------------------------
# the fused round trip against the encoder and decoder it fuses
# ---------------------------------------------------------------------------

def _round_trip_oracle(w):
    h = _history(w)
    decoded = _decode(h.steps, h.labels)
    if decoded is None:
        return None
    return decoded[0], sum(h.labels), h.steps.count("N") + h.steps.count("D"), decoded[1]


def test_round_trip_matches_the_oracle_on_every_short_word():
    # all of {1..n}^n for n = 0..6; most words encode to a history the
    # decoder rejects, and some decode to a window other than themselves
    words = rejected = 0
    for n in range(7):
        for w in itertools.product(range(1, n + 1), repeat=n):
            want = _round_trip_oracle(w)
            assert _round_trip(w) == want, w
            words += 1
            rejected += want is None
    assert (words, rejected) == (50_070, 46_574)


def test_round_trip_matches_the_oracle_on_s7_and_s8(groups):
    for n in (7, 8):
        for w in groups["S"](n):
            assert _round_trip(w) == _round_trip_oracle(w), w


permutations_9_to_30 = st.integers(9, 30).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple)


@given(permutations_9_to_30)
def test_from_history_inverts_fz_history_up_to_n30(w):
    assert from_history(*dataclasses.astuple(fz_history(w))) == w


@given(permutations_9_to_30)
def test_round_trip_matches_the_oracle_up_to_n30(w):
    assert _round_trip(w) == _round_trip_oracle(w)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_area_examples():
    assert area("EEE") == 0
    assert area("NS") == 1
    assert area("NNSS") == 4


def test_max_height_examples():
    assert max_height("EEE") == 0
    assert max_height("NS") == 1
    assert max_height("NNSS") == 2


def test_heights_are_prestep():
    assert heights("NEDS") == (0, 1, 1, 1)


def test_invalid_paths_rejected():
    with pytest.raises(ValueError):
        area("SN")
    with pytest.raises(ValueError):
        area("NQ")
    with pytest.raises(ValueError):
        path_weight("NEDS")                    # D is not a Motzkin step


def _walk(steps):
    # the definition, from prefix counts alone: the height before each step
    # and the final height
    prefix = [steps[:i].count("N") - steps[:i].count("S") for i in range(len(steps) + 1)]
    return prefix[:-1], prefix[-1]


def _is_path(steps, alphabet):
    # known letters, no height below 0 after any prefix, and back to 0
    pre, final = _walk(steps)
    return set(steps) <= set(alphabet) and min(pre + [final]) >= 0 and final == 0


def _raises(f, steps):
    try:
        return False, f(steps)
    except ValueError as exc:
        return True, str(exc)


def _path_enumerator(steps):
    # the product over steps at pre-step height h of x^h q^h [h+1]_q (N),
    # x^h q^h [h]_q (S) and x^h q^h ([h]_q + [h+1]_q) (E), as a
    # (q, x) -> coefficient dict
    out = {(0, 0): 1}
    for s, h in zip(steps, _walk(steps)[0]):
        powers = {"N": range(h + 1), "S": range(h)}.get(s, [*range(h), *range(h + 1)])
        nxt = Counter()
        for (q, x), c in out.items():
            for j in powers:
                nxt[q + h + j, x + h] += c
        out = nxt
    return {(0, 0, q, x): c for (q, x), c in out.items() if c}


def test_path_walk_agrees_with_prefix_heights_on_every_short_word():
    for n in range(7):
        for word in itertools.product("NSEDX", repeat=n):
            steps = "".join(word)
            pre, _ = _walk(steps)
            valid, motzkin = _is_path(steps, "NSED"), _is_path(steps, "NSE")
            assert is_valid_path(steps) == valid, steps
            assert is_valid_path(steps, "NSE") == motzkin, steps
            bad = f"{steps!r} is not a valid path over "
            assert _raises(area, steps) == (
                (False, sum(pre)) if valid else (True, bad + "'NSED'"))
            assert _raises(max_height, steps) == (
                (False, max(pre[1:] + [0])) if valid else (True, bad + "'NSED'"))
            weight = math.prod(h + 1 if s == "N" else h if s == "S" else 2 * h + 1
                               for s, h in zip(steps, pre))
            assert _raises(path_weight, steps) == (
                (False, weight) if motzkin else (True, bad + "'NSE'"))
            got = _raises(per_path_enumerator, steps)
            if motzkin:
                assert got[1].terms == _path_enumerator(steps), steps
            else:
                assert got == (True, f"{steps!r} is not a Motzkin path")
            zeros = (0,) * n
            assert LaguerreHistory(steps, zeros).is_valid() == (
                valid and all(h >= 1 for s, h in zip(steps, pre) if s in "SD")), steps


def test_motzkin_counts():
    want = [1, 1, 2, 4, 9, 21, 51, 127, 323]
    for n, m in enumerate(want):
        if n == 0:
            continue
        assert sum(1 for _ in motzkin_paths(n)) == m
    # 2-Motzkin paths of length n are counted by the Catalan number C_{n+1}
    catalan = [1, 2, 5, 14, 42]
    for n in range(1, 5):
        assert sum(1 for _ in two_motzkin_paths(n)) == catalan[n]
    assert list(motzkin_paths(0)) == list(two_motzkin_paths(0)) == [""]


def test_motzkin_paths_refuse_negative_n():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        motzkin_paths(-1)


def test_motzkin_shape_examples():
    assert motzkin_shape((1, 2, 3)) == "EEE"
    assert motzkin_shape((2, 1)) == "NS"
    assert motzkin_shape((3, 1, 2)) == "NES"
    assert motzkin_shape((2, 3, 1)) == "NES"


def test_path_weight_examples():
    assert path_weight("EEEE") == 1
    assert path_weight("NES") == 3
    assert sum(path_weight(p) for p in motzkin_paths(4)) == 24


def test_weight_counts_preimages(groups):
    for n in range(1, 7):
        pre = Counter(motzkin_shape(w) for w in groups["S"](n))
        paths = list(motzkin_paths(n))
        assert set(pre) == set(paths)
        for steps in paths:
            assert path_weight(steps) == pre[steps]
            # odd weight exactly at height <= 1
            assert (path_weight(steps) % 2 == 1) == (max_height(steps) <= 1)


def test_weight_parity_matches_height_up_to_8():
    for n in range(1, 9):
        for steps in motzkin_paths(n):
            assert (path_weight(steps) % 2 == 1) == (max_height(steps) <= 1)


def test_shape_preserved_by_involution_small(groups):
    for n in range(1, 7):
        for w in groups["S"](n):
            assert motzkin_shape(w) == motzkin_shape(involution_a(w).output)


def test_fixed_points_cover_low_paths(groups):
    for n in range(1, 7):
        shapes = {motzkin_shape(w) for w in fixed_points("S", n)}
        low = {p for p in motzkin_paths(n) if max_height(p) <= 1}
        assert shapes == low
        assert len(shapes) == 2 ** (n - 1)

