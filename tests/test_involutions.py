import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.involutions import (InvolutionReport, _toggle_a, _toggle_b,
                                  fixed_points, involution_a, involution_b,
                                  toggle_classes)
from coxdrops.reduced_words import (canonical_word_a, canonical_word_b,
                                    evaluate_word, ird_and_ascents)
from oracles import (in_type_d, near_maximal_u, near_maximal_v, stage_factor,
                     top_stage)


# ---------------------------------------------------------------------------
# word-based oracle: the maps as the paper defines them, by toggling one
# letter of the canonical reduced word and evaluating the toggled word
# ---------------------------------------------------------------------------

def _smallest_long_stage(word):
    for i in range(1, top_stage(word) + 1):
        if len(stage_factor(word, i)) >= 2:
            return i
    return None


def _evaluate_toggled(word, stage, letter):
    # toggle the stage factor between empty and the single letter
    factors = list(word.factors)
    idx = top_stage(word) - stage
    factors[idx] = () if factors[idx] else (letter,)
    return evaluate_word(tuple(k for f in factors for k in f), word.kind, word.n)


def oracle_transposition(p):
    # letters at positions d, d+1 of the intermediate element w_{d+1}, the
    # prefix product of the factors of stage > d
    word = canonical_word_a(p)
    t = _smallest_long_stage(word)
    if t is None:
        return None
    d = t - 1
    top = top_stage(word)
    w = evaluate_word(tuple(k for f in word.factors[:top - d] for k in f), "A", word.n)
    return w[d - 1], w[d]


def oracle_a(p):
    word = canonical_word_a(p)
    t = _smallest_long_stage(word)
    if t is None:
        return InvolutionReport(p, p, True)
    d = t - 1
    return InvolutionReport(p, _evaluate_toggled(word, d, d), False,
                            changed_factor_index=d,
                            transposition=oracle_transposition(p))


def oracle_b(s):
    word = canonical_word_b(s)
    for i in range(word.n, 1, -1):             # leftmost = largest stage
        f = stage_factor(word, i)
        u, v = near_maximal_u(i), near_maximal_v(i)
        if f == u or f == v:
            factors = list(word.factors)
            factors[top_stage(word) - i] = v if f == u else u
            out = evaluate_word(tuple(k for g in factors for k in g), "B", word.n)
            return InvolutionReport(s, out, False, changed_factor_index=i)
    t = _smallest_long_stage(word)
    if t is None:
        return InvolutionReport(s, s, True)
    return InvolutionReport(s, _evaluate_toggled(word, t - 1, t - 2), False,
                            changed_factor_index=t - 1)


def oracle_fixed(word):
    return all(len(f) <= 1 for f in word.factors)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_involution_a_examples():
    assert involution_a((1, 2, 3)).fixed
    rep = involution_a((4, 1, 5, 2, 3))
    assert rep.output == (5, 1, 4, 2, 3)
    assert not rep.fixed
    assert involution_a((5, 1, 4, 2, 3)).output == (4, 1, 5, 2, 3)


def test_involution_b_examples():
    assert involution_b((1, 2)).fixed
    assert involution_b((3, 1, -5, 2, -4)).output == (3, 1, -4, 2, -5)
    assert involution_b((-6, 1, 5, 3, 4, -2)).output == (-5, 1, 6, 3, 4, -2)


def test_report_serialization():
    rep = involution_a((4, 1, 5, 2, 3))
    doc = json.loads(rep.to_json())
    assert doc == {"input": "4,1,5,2,3", "output": "5,1,4,2,3",
                   "fixed": False, "factor_index": 2, "transposition": [4, 5]}
    fixed_doc = json.loads(involution_a((1, 2, 3)).to_json())
    assert fixed_doc["fixed"] and fixed_doc["transposition"] is None


def test_differing_transposition_examples():
    assert involution_a((4, 1, 5, 2, 3)).transposition == (4, 5)
    for fixed in ((2, 1, 3), (1, 3, 2)):        # (1, 3, 2) has word [s2][]
        rep = involution_a(fixed)
        assert rep.fixed and rep.transposition is None


def test_transposition_bounds_exhaustive_s4_s5(groups):
    for n in (2, 3, 4, 5):
        for w in groups["S"](n):
            rep = involution_a(w)
            if rep.fixed:
                continue
            a, b = rep.transposition
            d = rep.changed_factor_index
            assert a >= d + 1 and b >= d + 2
            # the swap carries the image back to the input
            back = tuple(a if v == b else b if v == a else v for v in rep.output)
            assert back == w
            # the same pair is produced from either end of the edge
            assert involution_a(rep.output).transposition == (a, b)


# ---------------------------------------------------------------------------
# window-level maps against the word-based oracle
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_window_maps_equal_word_oracle_s8(groups):
    for n in range(1, 9):
        for w in groups["S"](n):
            rep = involution_a(w)
            assert rep == oracle_a(w)
            assert rep.fixed == oracle_fixed(canonical_word_a(w))


@pytest.mark.slow
def test_window_maps_equal_word_oracle_b6(groups):
    for n in range(1, 7):
        for s in groups["B"](n):
            rep = involution_b(s)
            assert rep == oracle_b(s)
            assert rep.fixed == oracle_fixed(canonical_word_b(s))


@given(st.integers(9, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
@settings(max_examples=100)
def test_involution_a_property_large_n(p):
    p = tuple(p)
    rep = involution_a(p)
    assert rep == oracle_a(p)
    if not rep.fixed:
        y = rep.output
        assert involution_a(y).output == p
        assert (pc.inv(p) - pc.inv(y)) % 2 == 1
        assert pc.drops(p) == pc.drops(y)


@given(st.integers(9, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)),
                        st.lists(st.sampled_from((1, -1)), min_size=n,
                                 max_size=n))))
@settings(max_examples=100)
def test_involution_b_property_large_n(perm_signs):
    perm, signs = perm_signs
    s = tuple(v * e for v, e in zip(perm, signs))
    rep = involution_b(s)
    assert rep == oracle_b(s)
    if not rep.fixed:
        y = rep.output
        assert involution_b(y).output == s
        assert (pc.inv_b(s) - pc.inv_b(y)) % 2 == 1
        assert pc.drops_b(s) == pc.drops_b(y)


def _type_b_restricts_to_type_a(p):
    # a window with no negative entry is toggled at the type-A stage, which
    # the type-B count (stage 0 for s_0) numbers one higher
    hit = _toggle_a(p)
    assert _toggle_b(p) == (hit and (hit[0] + 1,) + hit[1:])
    assert involution_b(p).output == involution_a(p).output


def test_type_b_restricted_to_s_n_is_type_a():
    for n in range(9):
        for p in itertools.permutations(range(1, n + 1)):
            _type_b_restricts_to_type_a(p)


@given(st.integers(0, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
@settings(max_examples=100)
def test_type_b_restricted_to_s_n_is_type_a_large_n(p):
    _type_b_restricts_to_type_a(tuple(p))


def test_window_maps_validate_input():
    with pytest.raises(ValueError):
        involution_a((1, -2))
    with pytest.raises(ValueError):
        involution_a((1, 1))
    with pytest.raises(ValueError):
        involution_b((2, -2))


# ---------------------------------------------------------------------------
# involution suites at module scale (full scale runs in acceptance)
# ---------------------------------------------------------------------------

def test_involution_a_suite_small(groups):
    for n in range(1, 7):
        fixed = 0
        for w in groups["S"](n):
            rep = involution_a(w)
            y = rep.output
            if rep.fixed:
                fixed += 1
                k = pc.inv(w)
                assert pc.drops(w) == pc.depth(w) == pc.iexc(w) == k
            else:
                assert involution_a(y).output == w
                assert (pc.inv(w) - pc.inv(y)) % 2 == 1
                assert pc.drops(w) == pc.drops(y)
                assert pc.depth(w) == pc.depth(y)
                assert pc.iexc(w) == pc.iexc(y)
        assert fixed == 2 ** (n - 1)


def test_involution_b_suite_small(groups):
    for n in range(1, 5):
        fixed = 0
        for s in groups["B"](n):
            rep = involution_b(s)
            y = rep.output
            if rep.fixed:
                fixed += 1
            else:
                assert involution_b(y).output == s
                assert (pc.inv_b(s) - pc.inv_b(y)) % 2 == 1
                assert pc.drops_b(s) == pc.drops_b(y)
        assert fixed == 2 ** n


def test_involution_a_agrees_with_last_ascent_formulation(groups):
    # the move can equivalently be read off the last ascent of the index
    # sequence: insert the smaller index again right after the ascent
    def by_last_ascent(w):
        word = canonical_word_a(w)
        letters, ascents = ird_and_ascents(word)
        if not ascents:
            return w
        j = ascents[-1]                        # 1-indexed
        new = letters[:j + 1] + (letters[j - 1],) + letters[j + 1:]
        return evaluate_word(new, "A", len(w))

    for n in range(1, 8):
        for w in groups["S"](n):
            assert involution_a(w).output == by_last_ascent(w)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_streams(groups):
    assert len(set(fixed_points("S", 3))) == 4
    assert len(set(fixed_points("B", 2))) == 4
    fp4 = set(fixed_points("S", 4))
    assert len(fp4) == 8
    assert fp4 == {w for w in groups["S"](4) if involution_a(w).fixed}
    fpb3 = set(fixed_points("B", 3))
    assert len(fpb3) == 8
    assert fpb3 == {s for s in groups["B"](3) if involution_b(s).fixed}


def test_fixed_points_bad_kind():
    with pytest.raises(ValueError):
        list(fixed_points("D", 3))


def test_fixed_points_at_n_zero_and_below():
    assert list(fixed_points("S", 0)) == list(fixed_points("B", 0)) == [()]
    for kind in ("S", "B"):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            fixed_points(kind, -1)


# ---------------------------------------------------------------------------
# the deciding-prefix classes of the type-A map
# ---------------------------------------------------------------------------

DECIDING_PREFIXES = [0, 0, 0, 2, 16, 84, 368, 1462, 5472]


@pytest.mark.parametrize("n", range(9))
def test_toggle_classes_tile_s_n_in_rank_order(n):
    # each class is the run of windows, in rank order, that share its first
    # element's first n - k entries; the classes with a toggle are the
    # deciding prefixes, the others the fixed points, one window each
    classes = list(toggle_classes(n))
    windows = list(pc.iter_group("S", n))
    at = 0
    for w, k in classes:
        size = math.factorial(k)
        assert windows[at] == w
        assert {v[:n - k] for v in windows[at:at + size]} == {w[:n - k]}
        at += size
    assert at == len(windows) == math.factorial(n)
    hits = [_toggle_a(w) for w, _ in classes]
    assert sum(hit is not None for hit in hits) == DECIDING_PREFIXES[n]
    fixed = [(w, k) for (w, k), hit in zip(classes, hits) if hit is None]
    assert fixed == [(w, 0) for w in sorted(fixed_points("S", n))]
    # the toggle decides at the last entry of each other class's prefix
    assert all(hit[0] + 2 == n - k for (w, k), hit in zip(classes, hits) if hit)


# ---------------------------------------------------------------------------
# the type-D length and zdrops
# ---------------------------------------------------------------------------

def test_inv_d_and_zdrops_shift_examples():
    # swapping the magnitudes 1 and 2: with both letters positive it gains
    # one unit of both statistics when nothing follows the pair; the
    # mixed-sign case loses a length unit and keeps zdrops
    assert pc.inv_d((2, 1)) == pc.inv_d((1, 2)) + 1
    assert pc.zdrops((2, 1)) == pc.zdrops((1, 2)) + 1
    assert pc.inv_d((2, -1)) == pc.inv_d((1, -2)) - 1
    assert pc.zdrops((2, -1)) == pc.zdrops((1, -2))


def test_zero_sums_small(groups):
    # the signed zdrops sums over B_n - D_n and over D_n vanish
    for n in (2, 3, 4):
        out_sum = Counter()
        in_sum = Counter()
        for s in groups["B"](n):
            term = -1 if pc.inv_d(s) % 2 else 1
            (in_sum if in_type_d(s) else out_sum)[pc.zdrops(s)] += term
        assert not any(out_sum.values())
        assert not any(in_sum.values())


def test_report_dataclass_fields():
    rep = involution_b((3, 1, -5, 2, -4))
    assert isinstance(rep, InvolutionReport)
    assert rep.changed_factor_index == 5       # the near-maximal factor toggled
    assert rep.transposition is None
