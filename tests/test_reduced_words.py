import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.reduced_words import (CanonicalWord, canonical_word_a,
                                    canonical_word_b, evaluate_word,
                                    ird_and_ascents, word_to_text)
from oracles import (in_section_a, in_section_b, intermediates,
                          near_maximal_u, near_maximal_v, stage_factor)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_canonical_word_a_identity():
    word = canonical_word_a((1, 2, 3, 4, 5))
    assert all(f == () for f in word.factors)
    assert len(word) == 0


def test_canonical_word_a_examples():
    assert canonical_word_a((4, 1, 5, 2, 3)).factors == ((3, 4), (2, 3), (), (1,))
    assert canonical_word_a((5, 1, 4, 2, 3)).factors == ((3, 4), (2, 3), (2,), (1,))


def test_canonical_word_b_examples():
    assert canonical_word_b((1, 2)).factors == ((), ())
    assert canonical_word_b((4, 1, -5, 2, -3)).factors == \
        ((2, 1, 0, 1, 2, 3, 4), (2, 3), (2, 1, 0, 1, 2), (1,), ())
    assert canonical_word_b((3, 1, -5, 2, -4)).factors == \
        ((3, 2, 1, 0, 1, 2, 3, 4), (2, 3), (2, 1, 0, 1, 2), (1,), ())


def test_evaluate_word():
    assert evaluate_word((), "A", 4) == (1, 2, 3, 4)
    assert evaluate_word((3, 4, 2, 3, 1), "A", 5) == (4, 1, 5, 2, 3)
    assert evaluate_word((0,), "B", 2) == (-1, 2)
    with pytest.raises(ValueError):
        evaluate_word((0,), "A", 3)
    with pytest.raises(ValueError):
        evaluate_word((5,), "B", 3)
    with pytest.raises(ValueError, match="^unknown word type 'S'$"):
        evaluate_word((1,), "S", 2)


def test_ird_and_ascents():
    empty = canonical_word_a((1, 2, 3))
    assert ird_and_ascents(empty) == ((), ())
    word = canonical_word_a((4, 1, 5, 2, 3))
    assert ird_and_ascents(word) == ((3, 4, 2, 3, 1), (1, 3))
    word2 = canonical_word_a((5, 1, 4, 2, 3))
    assert ird_and_ascents(word2) == ((3, 4, 2, 3, 2, 1), (1, 3))


def test_intermediates_type_a():
    seq = intermediates(canonical_word_a((4, 1, 5, 2, 3)))
    assert seq[5] == (1, 2, 3, 4, 5)
    assert seq[4] == (1, 2, 4, 5, 3)
    assert seq[3] == seq[2] == (1, 4, 5, 2, 3)
    assert seq[1] == (4, 1, 5, 2, 3)


def test_intermediates_type_b():
    # the settled suffix never moves again: every w_i agrees with the target
    # on positions i..n, so w_3 here ends in -4
    seq = intermediates(canonical_word_b((3, 1, -5, 2, -4)))
    assert seq[6] == (1, 2, 3, 4, 5)
    assert seq[5] == (1, 2, 3, 5, -4)
    assert seq[4] == (1, 3, 5, 2, -4)
    assert seq[3] == (1, 3, -5, 2, -4)
    assert seq[2] == seq[1] == (3, 1, -5, 2, -4)


def test_near_maximal_forms():
    assert near_maximal_u(2) == (1, 0, 1)
    assert near_maximal_v(2) == (0, 1)
    assert near_maximal_u(5) == (4, 3, 2, 1, 0, 1, 2, 3, 4)
    assert near_maximal_v(5) == (3, 2, 1, 0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_word_text_format():
    word = canonical_word_a((4, 1, 5, 2, 3))
    assert word_to_text(word) == str(word) == "[s3 s4][s2 s3][][s1]"
    assert word_to_text(canonical_word_b((1, -2))) == "[s1 s0 s1][]"


# ---------------------------------------------------------------------------
# structural invariants, exhaustive at the stated scales
# ---------------------------------------------------------------------------

def _check_word_a(w) -> None:
    word = canonical_word_a(w)
    n = word.n
    # round trip and length
    assert evaluate_word(word.letters, "A", n) == w
    assert len(word) == pc.inv(w)
    # factor membership and W^<1> length bound
    for i in range(1, n):
        f = stage_factor(word, i)
        assert in_section_a(f, i)
    if n >= 2:
        assert len(stage_factor(word, 1)) <= 1
    # ascent locality: ascents only inside factors, between consecutive values
    letters, ascents = ird_and_ascents(word)
    bounds = set(word.factor_bounds)
    for a in ascents:
        assert a not in bounds
        assert letters[a] == letters[a - 1] + 1
    # monotone prefixes of the intermediates
    seq = intermediates(word)
    for i in range(1, n + 1):
        wi = seq[i]
        prefix = wi[:i]
        assert all(x < y for x, y in itertools.pairwise(prefix))
        assert all(wi[j] >= j + 1 for j in range(i))


def _check_word_b(s) -> None:
    word = canonical_word_b(s)
    n = word.n
    assert evaluate_word(word.letters, "B", n) == s
    assert len(word) == pc.inv_b(s)
    for i in range(1, n + 1):
        f = stage_factor(word, i)
        assert in_section_b(f, i)
    assert len(stage_factor(word, 1)) <= 1
    letters, ascents = ird_and_ascents(word)
    bounds = set(word.factor_bounds)
    for a in ascents:
        assert a not in bounds
        assert letters[a] == letters[a - 1] + 1
    # 0-prefixed monotone prefixes for i >= 2
    seq = intermediates(word)
    for i in range(2, n + 2):
        wi = seq[i]
        prefix = (0,) + wi[:i - 1]
        assert all(x < y for x, y in itertools.pairwise(prefix))


def test_word_invariants_a_small(groups):
    for n in range(1, 7):
        for w in groups["S"](n):
            _check_word_a(w)


def test_word_invariants_b_small(groups):
    for n in range(1, 5):
        for s in groups["B"](n):
            _check_word_b(s)


@pytest.mark.slow
def test_word_invariants_a_full_scale(groups):
    for w in groups["S"](8):
        _check_word_a(w)


@pytest.mark.slow
def test_word_invariants_b_full_scale(groups):
    for n in (5, 6):
        for s in groups["B"](n):
            _check_word_b(s)


# past the exhaustive sizes the same invariants still fix the word: stage
# i's section has i+1 members in type A and 2i in type B, and the products
# of the section sizes are n! and 2^n n!
@given(st.integers(9, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_word_invariants_a_large_n(p):
    _check_word_a(tuple(p))


@given(st.integers(9, 30).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)),
                        st.lists(st.sampled_from((1, -1)), min_size=n,
                                 max_size=n))))
def test_word_invariants_b_large_n(perm_signs):
    perm, signs = perm_signs
    _check_word_b(tuple(v * e for v, e in zip(perm, signs)))


def test_factor_access_bounds():
    word = canonical_word_a((2, 1, 3))
    assert isinstance(word, CanonicalWord)
    with pytest.raises(ValueError):
        stage_factor(word, 0)
    with pytest.raises(ValueError):
        stage_factor(word, 3)
