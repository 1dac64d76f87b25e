import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.involutions import (InvolutionReport, differing_transposition,
                                  fixed_points, involution_a, involution_b,
                                  is_fixed_a, is_fixed_b, pair_map_bd,
                                  pair_map_d)
from coxdrops.reduced_words import (canonical_word_a, canonical_word_b,
                                    evaluate_word, ird_and_ascents,
                                    near_maximal_u, near_maximal_v)


# ---------------------------------------------------------------------------
# word-based oracle: the maps as the paper defines them, by toggling one
# letter of the canonical reduced word and evaluating the toggled word
# ---------------------------------------------------------------------------

def _smallest_long_stage(word):
    for i in range(1, word.top + 1):
        if len(word.factor(i)) >= 2:
            return i
    return None


def _evaluate_toggled(word, stage, letter):
    # toggle the stage factor between empty and the single letter
    factors = list(word.factors)
    idx = word.top - stage
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
    w = evaluate_word(tuple(k for f in word.factors[:word.top - d] for k in f),
                      "A", word.n)
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
        f = word.factor(i)
        u, v = near_maximal_u(i), near_maximal_v(i)
        if f == u or f == v:
            factors = list(word.factors)
            factors[word.top - i] = v if f == u else u
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
    assert differing_transposition((4, 1, 5, 2, 3)) == (4, 5)
    with pytest.raises(ValueError):
        differing_transposition((2, 1, 3))      # fixed point
    with pytest.raises(ValueError):
        differing_transposition((1, 3, 2))      # also fixed: word is [s2][]


def test_transposition_bounds_exhaustive_s4_s5(groups):
    for n in (2, 3, 4, 5):
        for w in groups["S"](n):
            rep = involution_a(w)
            if rep.fixed:
                continue
            a, b = differing_transposition(w)
            d = rep.changed_factor_index
            assert a >= d + 1 and b >= d + 2
            # the swap carries the image back to the input
            back = tuple(a if v == b else b if v == a else v for v in rep.output)
            assert back == w
            # the same pair is produced from either end of the edge
            assert differing_transposition(rep.output) == (a, b)


# ---------------------------------------------------------------------------
# window-level maps against the word-based oracle
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_window_maps_equal_word_oracle_s8(groups):
    for n in range(1, 9):
        for w in groups["S"](n):
            rep = involution_a(w)
            assert rep == oracle_a(w)
            assert is_fixed_a(w) == oracle_fixed(canonical_word_a(w)) == rep.fixed
            if not rep.fixed:
                assert differing_transposition(w) == oracle_transposition(w)


@pytest.mark.slow
def test_window_maps_equal_word_oracle_b6(groups):
    for n in range(1, 7):
        for s in groups["B"](n):
            rep = involution_b(s)
            assert rep == oracle_b(s)
            assert is_fixed_b(s) == oracle_fixed(canonical_word_b(s)) == rep.fixed


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


def test_window_maps_validate_input():
    for fn in (involution_a, is_fixed_a, differing_transposition):
        with pytest.raises(ValueError):
            fn((1, -2))
        with pytest.raises(ValueError):
            fn((1, 1))
    for fn in (involution_b, is_fixed_b):
        with pytest.raises(ValueError):
            fn((2, -2))


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


# ---------------------------------------------------------------------------
# type-D pairing maps
# ---------------------------------------------------------------------------

def test_pair_map_examples():
    assert pair_map_bd((1, 2)) == (2, 1)
    assert pair_map_bd((-1, 2)) == (-2, 1)
    assert pair_map_bd((1, -2)) == (2, -1)
    assert pair_map_d((1, 2)) == (2, 1)
    assert pair_map_d((-1, -2)) == (-2, -1)
    assert pair_map_d((1, 2, 3)) == (1, 3, 2)


def test_pair_map_shift_examples():
    # worked shifts: case with both letters positive gains one unit of both
    # statistics when nothing follows the pair; the mixed-sign case loses a
    # length unit and keeps zdrops
    assert pc.inv_d((2, 1)) == pc.inv_d((1, 2)) + 1
    assert pc.zdrops((2, 1)) == pc.zdrops((1, 2)) + 1
    assert pc.inv_d((2, -1)) == pc.inv_d((1, -2)) - 1
    assert pc.zdrops((2, -1)) == pc.zdrops((1, -2))


def test_pair_map_domain_errors():
    with pytest.raises(ValueError):
        pair_map_bd((2, 1))                    # largest letter first
    with pytest.raises(ValueError):
        pair_map_d((-1, 2))                    # odd number of negatives


def _sides(elems, n):
    a1, a2 = [], []
    for s in elems:
        ia = next(i for i, v in enumerate(s) if abs(v) == n - 1)
        ib = next(i for i, v in enumerate(s) if abs(v) == n)
        (a1 if ia < ib else a2).append(s)
    return a1, a2


def test_pair_maps_are_bijections(groups):
    for n in (2, 3, 4, 5, 6):
        outside = []
        inside = []
        for s in pc.iter_group("B", n):
            (inside if pc.in_type_d(s) else outside).append(s)
        for elems, fn in ((outside, pair_map_bd), (inside, pair_map_d)):
            a1, a2 = _sides(elems, n)
            images = [fn(s) for s in a1]
            assert len(set(images)) == len(a1)
            assert set(images) == set(a2)
            for s, y in zip(a1, images):
                # the length parity always flips: up when the later letter of
                # the pair is positive, down when it is negative
                diff = pc.inv_d(y) - pc.inv_d(s)
                ib = next(i for i, v in enumerate(s) if abs(v) == n)
                assert diff == (1 if s[ib] > 0 else -1)


def test_zero_sums_small(groups):
    # the sums these pairings help annihilate, checked directly
    for n in (2, 3, 4):
        out_sum = Counter()
        in_sum = Counter()
        for s in groups["B"](n):
            term = -1 if pc.inv_d(s) % 2 else 1
            (in_sum if pc.in_type_d(s) else out_sum)[pc.zdrops(s)] += term
        assert not any(out_sum.values())
        assert not any(in_sum.values())


def test_report_dataclass_fields():
    rep = involution_b((3, 1, -5, 2, -4))
    assert isinstance(rep, InvolutionReport)
    assert rep.changed_factor_index == 5       # the near-maximal factor toggled
    assert rep.transposition is None
