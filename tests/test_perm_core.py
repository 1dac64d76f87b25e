import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.reduced_words import canonical_word_a


# ---------------------------------------------------------------------------
# statistics on worked examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w, want", [
    ((1, 2, 3, 4, 5), 0),
    ((4, 1, 5, 2, 3), 5),
    ((5, 1, 4, 2, 3), 6),
])
def test_inv(w, want):
    assert pc.inv(w) == want


@pytest.mark.parametrize("w, want", [
    ((1, 2, 3), 0),
    ((4, 1, 5, 2, 3), 6),
    ((5, 1, 4, 2, 3), 6),       # forced: the involution preserves drops
])
def test_drops(w, want):
    assert pc.drops(w) == want


@pytest.mark.parametrize("w, want", [
    ((1, 2, 3), 0),
    ((4, 1, 5, 2, 3), 5),
    ((4, 3, 2, 1), 4),
])
def test_depth(w, want):
    assert pc.depth(w) == want


def test_exc_des_iexc():
    assert (pc.exc((1, 2, 3)), pc.des((1, 2, 3)), pc.iexc((1, 2, 3))) == (0, 0, 0)
    assert pc.exc_set((4, 1, 5, 2, 3)) == (1, 3)
    assert pc.desc_set((4, 1, 5, 2, 3)) == (1, 3)
    assert pc.exc((2, 3, 1)) == 2
    assert pc.iexc((2, 3, 1)) == 1
    assert pc.inverse((2, 3, 1)) == (3, 1, 2)


@pytest.mark.parametrize("w, want", [
    ((1, 2, 3), (1, 2, 3)),
    ((2, 1), (2, 1)),
    ((4, 1, 5, 2, 3), (3, 4, 1, 5, 2)),
])
def test_reverse_complement(w, want):
    assert pc.reverse_complement(w) == want


def test_stat_bundle():
    b = pc.StatBundle.of((4, 1, 5, 2, 3))
    assert (b.inv, b.des, b.exc, b.iexc, b.drops, b.depth) == (5, 2, 2, 3, 6, 5)
    assert b.spearman == 2 * b.depth


# ---------------------------------------------------------------------------
# signed statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s, want", [
    ((1, 2), 0),
    ((4, 1, -5, 2, -3), 15),
    ((3, 1, -4, 2, -5), 17),
    ((3, 1, -5, 2, -4), 16),
])
def test_inv_b(s, want):
    assert pc.inv_b(s) == want


@pytest.mark.parametrize("s, want", [
    ((1, 2, 3), 0),
    ((3, 1, -5, 2, -4), 14),
    ((3, 1, -4, 2, -5), 14),
])
def test_drops_b(s, want):
    assert pc.drops_b(s) == want


@pytest.mark.parametrize("s, want", [
    ((1, 2), 0),
    ((2, 1), 1),
    ((-1, -2), 2),
])
def test_inv_d(s, want):
    assert pc.inv_d(s) == want


@pytest.mark.parametrize("s, want", [
    ((1, 2), 0),
    ((-1, -2), 4),
    ((-2, -1), 3),
])
def test_drops_d(s, want):
    assert pc.drops_d(s) == want


def test_drops_d_needs_two_entries():
    with pytest.raises(ValueError):
        pc.drops_d((1,))


def test_zdrops():
    # the bare-window drop sum: no virtual prefix.  With a negative first
    # entry it differs from drops_b by exactly that entry, which is the
    # convention under which the signed zdrops sums vanish.
    assert pc.zdrops((1, 2)) == 0
    assert pc.zdrops((2, 1)) == 1
    assert pc.zdrops((-3, 1, 2)) == 0
    assert pc.drops_b((-3, 1, 2)) == 3


def test_zdrops_vs_drops_b(groups):
    for s in groups["B"](4):
        expect = pc.drops_b(s) + (s[0] if s[0] < 0 else 0)
        assert pc.zdrops(s) == expect


def test_drops_d_nonnegative_up_to_6():
    # validates the sign convention of the summand over all of D_n
    for n in range(2, 7):
        for s in pc.iter_group("D", n):
            assert pc.drops_d(s) >= 0


def test_nsum_negs():
    assert pc.nsum((4, 1, -5, 2, -3)) == 8
    assert pc.negs((4, 1, -5, 2, -3)) == (3, 5)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_window():
    assert pc.parse_window("3,1,-5,2,-4") == (3, 1, -5, 2, -4)
    assert pc.parse_window(" 1 , 2 ") == (1, 2)


@pytest.mark.parametrize("text, fragment", [
    ("1,x,3", "position 2"),
    ("1,0,3", "position 2"),
    ("1,2,7", "position 3"),
    ("1,2,2", "position 3"),
    ("1,2,-2", "position 3"),
])
def test_parse_window_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        pc.parse_window(text)


def test_validate_permutation_rejects_signs():
    with pytest.raises(ValueError, match="position 1"):
        pc.validate_permutation((-1, 2))


@given(st.permutations(list(range(1, 8))))
def test_parse_format_roundtrip(lst):
    w = tuple(lst)
    assert pc.parse_window(pc.format_window(w)) == w


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@given(st.permutations(list(range(1, 9))))
def test_spearman_is_twice_depth(lst):
    w = tuple(lst)
    assert pc.spearman(w) == 2 * pc.depth(w)


@given(st.permutations(list(range(1, 9))))
def test_rc_involution_and_transport(lst):
    w = tuple(lst)
    rc = pc.reverse_complement(w)
    assert pc.reverse_complement(rc) == w
    assert pc.inv(w) % 2 == pc.inv(rc) % 2
    assert (pc.iexc(w), pc.depth(w), pc.drops(w)) == \
        (pc.exc(rc), pc.depth(rc), pc.drops(rc))


def test_rc_transport_exhaustive_s8(groups):
    for w in groups["S"](8):
        rc = pc.reverse_complement(w)
        assert pc.reverse_complement(rc) == w
        assert pc.inv(w) % 2 == pc.inv(rc) % 2
        assert (pc.iexc(w), pc.depth(w), pc.drops(w)) == \
            (pc.exc(rc), pc.depth(rc), pc.drops(rc))


def test_bivariate_pairs_match_small(groups):
    from collections import Counter
    for n in range(1, 7):
        a = Counter((pc.depth(w), pc.exc(w)) for w in groups["S"](n))
        b = Counter((pc.drops(w), pc.des(w)) for w in groups["S"](n))
        assert a == b


def test_inv_equals_word_length_up_to_7(groups):
    for n in range(1, 8):
        for w in groups["S"](n):
            assert pc.inv(w) == len(canonical_word_a(w))


# ---------------------------------------------------------------------------
# enumeration, rank and unrank
# ---------------------------------------------------------------------------

def test_group_orders():
    assert group_sizes("S", 3) == 6
    assert group_sizes("B", 2) == 8
    assert group_sizes("D", 3) == 24


def group_sizes(kind, n):
    elems = list(pc.iter_group(kind, n))
    assert len(set(elems)) == len(elems) == pc.group_order(kind, n)
    return len(elems)


def test_enumeration_is_lexicographic():
    for kind, n in [("S", 4), ("A", 4), ("B", 3), ("D", 3)]:
        elems = list(pc.iter_group(kind, n))
        assert elems == sorted(elems)


def test_a_group_is_even_permutations(groups):
    for n in (1, 2, 3, 4, 5):
        got = set(pc.iter_group("A", n))
        want = {w for w in groups["S"](n) if pc.inv(w) % 2 == 0}
        assert got == want


def test_b_enumeration_matches_bruteforce(groups):
    for n in (1, 2, 3):
        assert set(pc.iter_group("B", n)) == set(groups["B"](n))
        want = {s for s in groups["B"](n) if pc.in_type_d(s)}
        if n >= 2:
            assert set(pc.iter_group("D", n)) == want


def test_rank_unrank_roundtrip():
    for kind, n in [("S", 5), ("A", 5), ("B", 3), ("D", 4)]:
        for r, w in enumerate(pc.iter_group(kind, n)):
            assert pc.rank(kind, w) == r
            assert pc.unrank(kind, n, r) == w


@pytest.mark.parametrize("kind, window, reason", [
    ("A", (2, 1, 3), "A_3: odd permutation"),
    ("D", (-1, 2, 3), "D_3: oddly many negative entries"),
    ("A", (1, 1, 2), "A_3: position 2: absolute value 1 repeats"),
    ("S", (-1, 2), "S_2: position 1: negative entry"),
    ("B", (1, 3), "B_2: position 2: entry 3 out of range"),
])
def test_rank_rejects_windows_outside_the_group(kind, window, reason):
    with pytest.raises(ValueError, match=reason):
        pc.rank(kind, window)


@given(st.sampled_from(["S", "A", "B", "D"]), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_unrank_rank_random(kind, seed):
    n = 6 if kind != "B" else 5
    r = seed % pc.group_order(kind, n)
    assert pc.rank(kind, pc.unrank(kind, n, r)) == r


def test_range_partition_reassembles_stream():
    for kind, n in [("S", 5), ("B", 3), ("D", 4), ("A", 5)]:
        order = pc.group_order(kind, n)
        cuts = [0, order // 4, order // 3, order // 2, order - 1, order]
        pieces = []
        for a, b in itertools.pairwise(cuts):
            pieces.extend(pc.iter_group(kind, n, a, b))
        assert pieces == list(pc.iter_group(kind, n))


def test_enumeration_errors():
    with pytest.raises(ValueError):
        pc.group_order("D", 1)
    with pytest.raises(ValueError):
        pc.group_order("X", 3)
    with pytest.raises(ValueError):
        pc.unrank("S", 3, 6)
    with pytest.raises(ValueError):
        list(pc.iter_group("S", 3, start=7))


def test_counts_match_formulas():
    for n in range(1, 6):
        assert pc.group_order("S", n) == math.factorial(n)
        assert pc.group_order("A", n) == max(1, math.factorial(n) // 2)
        assert pc.group_order("B", n) == 2 ** n * math.factorial(n)
    for n in range(2, 6):
        assert pc.group_order("D", n) == 2 ** (n - 1) * math.factorial(n)


# full-scale perm_core invariant: inv equals canonical word length on S_9
@pytest.mark.slow
def test_inv_equals_word_length_s9():
    count = 0
    for w in itertools.permutations(range(1, 10)):
        count += 1
        assert pc.inv(w) == len(canonical_word_a(w))
    assert count == math.factorial(9)
