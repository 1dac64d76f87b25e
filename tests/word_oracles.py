"""
Word-level definitions that the tests check the program against.

The program works on windows; these helpers read the paper's definitions
off canonical reduced words instead: the stage factors and their coset
sections, the two near-maximal type-B factors, the intermediate elements,
and Bruhat comparability by the subword property.
"""

import itertools

from coxdrops.reduced_words import canonical_word, evaluate_word


# ---------------------------------------------------------------------------
# stage factors
# ---------------------------------------------------------------------------

def top_stage(word):
    """Highest stage index: n-1 in type A, n in type B."""
    return word.n - 1 if word.kind == "A" else word.n


def stage_factor(word, i):
    """The stage-i factor; ``word.factors`` is stored leftmost (top) first."""
    top = top_stage(word)
    if not 1 <= i <= top:
        raise ValueError(f"no factor with stage index {i}")
    return word.factors[top - i]


def intermediates(word):
    """
    The prefix products w_i of the canonical factors, keyed by i: w_top is
    the identity (top = n in type A, n+1 in type B) and w_1 the element
    itself.  Entries need not be distinct.
    """
    top = top_stage(word) + 1
    return {top - k: evaluate_word(tuple(x for f in word.factors[:k] for x in f),
                                   word.kind, word.n)
            for k in range(top)}


# ---------------------------------------------------------------------------
# coset sections
# ---------------------------------------------------------------------------

def near_maximal_u(i):
    """The longest element of the stage-i section: s_{i-1}..s_1 s_0 s_1..s_{i-1}."""
    return tuple(range(i - 1, 0, -1)) + (0,) + tuple(range(1, i))


def near_maximal_v(i):
    """One letter shorter: s_{i-2}..s_1 s_0 s_1..s_{i-1}."""
    return tuple(range(i - 2, 0, -1)) + (0,) + tuple(range(1, i))


def in_section_a(factor, i):
    """Structural membership of a type-A stage-i factor: empty or an
    ascending run ending at s_i."""
    if factor == ():
        return True
    j = factor[0]
    return 1 <= j <= i and factor == tuple(range(j, i + 1))


def in_section_b(factor, i):
    """Structural membership of a type-B stage-i factor."""
    if factor == ():
        return True
    if 0 not in factor:
        j = factor[0]
        return 1 <= j <= i - 1 and factor == tuple(range(j, i))
    j = factor[0]
    if j == 0:
        return factor == (0,) + tuple(range(1, i))
    return (1 <= j <= i - 1
            and factor == tuple(range(j, 0, -1)) + (0,) + tuple(range(1, i)))


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def subword_leq(u, v, kind):
    """
    The defining criterion, by brute force: some subword of a reduced word
    of v, of full length inv(u), evaluates to u.  Exponential; the oracle
    for ``bruhat_leq`` at small n.
    """
    wordkind = "A" if kind == "S" else "B"
    n = len(u)
    wu = canonical_word(tuple(u), wordkind).letters
    wv = canonical_word(tuple(v), wordkind).letters
    if len(wu) > len(wv):
        return False
    target = tuple(u)
    for idxs in itertools.combinations(range(len(wv)), len(wu)):
        if evaluate_word(tuple(wv[i] for i in idxs), wordkind, n) == target:
            return True
    return False
