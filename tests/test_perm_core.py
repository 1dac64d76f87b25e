import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.reduced_words import canonical_word_a
from oracles import (desc_set, exc_set, in_type_d, inverse, rank,
                     reverse_complement)


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
    assert exc_set((4, 1, 5, 2, 3)) == (1, 3)
    assert desc_set((4, 1, 5, 2, 3)) == (1, 3)
    assert pc.exc((2, 3, 1)) == 2
    assert pc.iexc((2, 3, 1)) == 1
    assert inverse((2, 3, 1)) == (3, 1, 2)


# the definitions the counting forms of exc, des, drops, depth and iexc
# must agree with
def _oracle_stats(w):
    n = len(w)
    return (len(exc_set(w)), len(desc_set(w)),
            sum(w[i] - w[i + 1] for i in range(n - 1) if w[i] > w[i + 1]),
            sum(w[i] - (i + 1) for i in range(n) if w[i] > i + 1),
            len(exc_set(inverse(w))))


def _stats(w):
    return pc.exc(w), pc.des(w), pc.drops(w), pc.depth(w), pc.iexc(w)


def test_statistics_equal_their_definitions_on_s0_to_s8(groups):
    for n in range(9):
        for w in groups["S"](n):
            assert _stats(w) == _oracle_stats(w), w


@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_statistics_equal_their_definitions_up_to_n40(lst):
    w = tuple(lst)
    assert _stats(w) == _oracle_stats(w)


@pytest.mark.parametrize("w, want", [
    ((1, 2, 3), (1, 2, 3)),
    ((2, 1), (2, 1)),
    ((4, 1, 5, 2, 3), (3, 4, 1, 5, 2)),
])
def test_reverse_complement(w, want):
    assert reverse_complement(w) == want


def test_scalar_stats_example():
    p = (4, 1, 5, 2, 3)
    assert (pc.inv(p), pc.des(p), pc.exc(p), pc.iexc(p), pc.drops(p),
            pc.depth(p)) == (5, 2, 2, 3, 6, 5)
    assert pc.spearman(p) == 2 * pc.depth(p)


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
# the one-pass kernels of the sweep hooks against the definitions
# ---------------------------------------------------------------------------

def _six(w):
    return pc.inv(w), pc.drops(w), pc.depth(w), pc.iexc(w), pc.exc(w), pc.des(w)


def test_scan_equals_the_definitions_on_s0_to_s8_and_b0_to_b6(groups):
    # the unsigned keys are swept over B and D too, so signed windows count
    for kind, top in (("S", 8), ("B", 6)):
        for n in range(top + 1):
            for w in groups[kind](n):
                assert pc._scan(w) == _six(w), w


def test_scan_b_equals_the_definitions_on_b0_to_b7(groups):
    for n in range(7):
        for s in groups["B"](n):
            assert pc._scan_b(s) == (pc.inv_b(s), pc.drops_b(s), len(pc.negs(s))), s
    # B_7 streamed, not held
    for s in pc.iter_group("B", 7):
        assert pc._scan_b(s) == (pc.inv_b(s), pc.drops_b(s), len(pc.negs(s))), s


@given(st.integers(9, 40).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.lists(st.booleans(), min_size=n, max_size=n))))
def test_kernels_equal_the_definitions_at_n9_to_n40(case):
    perm, negated = case
    w = tuple(perm)
    s = tuple(-v if neg else v for v, neg in zip(perm, negated))
    assert pc._scan(w) == _six(w)
    assert pc._scan(s) == _six(s)
    assert pc._scan_b(s) == (pc.inv_b(s), pc.drops_b(s), len(pc.negs(s)))


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


def test_validation_rejects_a_zero_entry():
    for validate in (pc.validate_permutation, pc.validate_signed):
        with pytest.raises(ValueError, match="^position 1: entry 0 out of range for n=2$"):
            validate((0, 2))


def test_validate_permutation_rejects_signs():
    with pytest.raises(ValueError, match="position 1"):
        pc.validate_permutation((-1, 2))


@given(st.permutations(list(range(1, 8))))
def test_parse_format_roundtrip(lst):
    w = tuple(lst)
    assert pc.parse_window(pc.format_window(w)) == w


@st.composite
def signed_windows(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(v * e for v, e in zip(values, signs))


def _is_integer(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@given(signed_windows())
def test_parse_format_roundtrip_signed(w):
    assert pc.parse_window(pc.format_window(w)) == w


@given(signed_windows(), st.data())
def test_corrupted_token_is_reported_at_its_position(w, data):
    n = len(w)
    k = data.draw(st.integers(0, n - 1), label="position")
    bad = data.draw(st.one_of(
        st.text(max_size=4).filter(lambda t: "," not in t and not _is_integer(t)),
        st.sampled_from(["0", "-0", "+0"]),
        st.integers(n + 1, 10 ** 6).map(str),
        st.integers(n + 1, 10 ** 6).map(lambda v: str(-v)),
    ), label="token")
    tokens = pc.format_window(w).split(",")
    tokens[k] = bad
    with pytest.raises(ValueError, match=rf"^position {k + 1}: "):
        pc.parse_window(",".join(tokens))


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
    rc = reverse_complement(w)
    assert reverse_complement(rc) == w
    assert pc.inv(w) % 2 == pc.inv(rc) % 2
    assert (pc.iexc(w), pc.depth(w), pc.drops(w)) == \
        (pc.exc(rc), pc.depth(rc), pc.drops(rc))


def test_rc_transport_exhaustive_s8(groups):
    for w in groups["S"](8):
        rc = reverse_complement(w)
        assert reverse_complement(rc) == w
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
        want = {s for s in groups["B"](n) if in_type_d(s)}
        if n >= 2:
            assert set(pc.iter_group("D", n)) == want


def test_rank_unrank_roundtrip():
    for kind, n in [("S", 5), ("A", 5), ("B", 3), ("D", 4)]:
        for r, w in enumerate(pc.iter_group(kind, n)):
            assert rank(kind, w) == r
            assert pc.unrank(kind, n, r) == w


@given(st.sampled_from(["S", "A", "B", "D"]), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_unrank_rank_random(kind, seed):
    n = 6 if kind != "B" else 5
    r = seed % pc.group_order(kind, n)
    assert rank(kind, pc.unrank(kind, n, r)) == r


def test_range_partition_reassembles_stream():
    for kind, n in [("S", 5), ("B", 3), ("D", 4), ("A", 5)]:
        order = pc.group_order(kind, n)
        cuts = [0, order // 4, order // 3, order // 2, order - 1, order]
        pieces = []
        for a, b in itertools.pairwise(cuts):
            pieces.extend(pc.iter_group(kind, n, a, b))
        assert pieces == list(pc.iter_group(kind, n))


def sorted_group(kind, n):
    """Every window of the group in sorted() order, by brute force."""
    perms = itertools.permutations(range(1, n + 1))
    if kind in ("S", "A"):
        windows = perms
    else:
        windows = (tuple(v * e for v, e in zip(p, signs)) for p in perms
                   for signs in itertools.product((1, -1), repeat=n))
    if kind == "A":
        windows = (p for p in windows
                   if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0)
    if kind == "D":
        windows = (s for s in windows if sum(v < 0 for v in s) % 2 == 0)
    return sorted(windows)


@pytest.mark.slow
@pytest.mark.parametrize("kind, ns", [
    ("S", range(1, 9)), ("A", range(1, 9)), ("B", range(1, 7)), ("D", range(2, 7)),
])
def test_iter_group_matches_sorted_oracle(kind, ns):
    for n in ns:
        oracle = sorted_group(kind, n)
        order = len(oracle)
        assert list(pc.iter_group(kind, n)) == oracle
        if order <= 200:
            ranges = itertools.combinations(range(order + 1), 2)
        else:
            # ragged cuts, and two-element ranges across every multiple of
            # 24, which include all block boundaries of the stream
            cuts = list(range(0, order, 97)) + [order]
            ranges = [*itertools.pairwise(cuts),
                      *((max(e - 1, 0), e + 1) for e in range(0, order, 24))]
        for a, b in ranges:
            assert list(pc.iter_group(kind, n, a, b)) == oracle[a:b]


@st.composite
def range_partitions(draw):
    kind = draw(st.sampled_from(pc.GROUPS))
    n = draw(st.integers(2 if kind == "D" else 1, 7))
    order = pc.group_order(kind, n)
    cuts = draw(st.lists(st.integers(0, order), max_size=12))
    return kind, n, [0, *sorted(cuts), order]


@given(range_partitions())
@settings(max_examples=40, deadline=None)
def test_any_range_partition_reproduces_the_stream(case):
    kind, n, cuts = case
    pieces = itertools.chain.from_iterable(
        pc.iter_group(kind, n, a, b) for a, b in itertools.pairwise(cuts))
    assert all(x == y for x, y in itertools.zip_longest(pieces, pc.iter_group(kind, n)))


@st.composite
def large_ranks(draw):
    kind = draw(st.sampled_from(pc.GROUPS))
    n = draw(st.integers(20, 60))
    return kind, n, draw(st.integers(0, pc.group_order(kind, n) - 1))


@given(large_ranks())
@settings(max_examples=60, deadline=None)
def test_rank_unrank_roundtrip_large_n(case):
    kind, n, r = case
    w = pc.unrank(kind, n, r)
    assert sorted(map(abs, w)) == list(range(1, n + 1))
    assert rank(kind, w) == r
    if r + 1 < pc.group_order(kind, n):
        assert w < pc.unrank(kind, n, r + 1)


def test_enumeration_errors():
    with pytest.raises(ValueError):
        pc.group_order("D", 1)
    with pytest.raises(ValueError):
        pc.group_order("X", 3)
    with pytest.raises(ValueError):
        pc.unrank("S", 3, 6)
    with pytest.raises(ValueError):
        list(pc.iter_group("S", 3, start=7))


@pytest.mark.parametrize("kind", ["S", "A", "B"])
def test_empty_groups_hold_the_empty_window(kind):
    assert pc.group_order(kind, 0) == 1
    assert list(pc.iter_group(kind, 0)) == [()]
    assert rank(kind, ()) == 0 and pc.unrank(kind, 0, 0) == ()
    assert pc.sweep(kind, 0, len) == {0: 1}


@pytest.mark.parametrize("kind, n, message", [
    ("S", -1, "n must be >= 0"), ("B", -1, "n must be >= 0"),
    ("D", 1, "D_n needs n >= 2"), ("D", 0, "D_n needs n >= 2"),
])
def test_group_size_rules(kind, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        pc.group_order(kind, n)


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
