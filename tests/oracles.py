"""
Definitions that the tests check the program against.

The program computes each statistic and map in one pass over a window.
These oracles state the definitions directly, and need not be fast:

- the word-level definitions read off canonical reduced words: the stage
  factors and their coset sections, the two near-maximal type-B factors,
  the intermediate elements, and Bruhat comparability by the subword
  property;
- window helpers: the inverse, the reverse-complement, D_n membership, the
  excedance and descent sets, and the lexicographic rank that ``unrank``
  inverts;
- the cyclic classes and per-position nesting counts that the Laguerre
  history encodes, the 2-Motzkin paths, and every restricted history;
- the descent blocks and right embracings that define ``mad``.
"""

import itertools
import math

from coxdrops.laguerre import LaguerreHistory, heights, is_valid_path
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


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def inverse(p):
    """
    Inverse of an unsigned permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def in_type_d(window):
    """D_n membership: evenly many negative entries."""
    return sum(1 for v in window if v < 0) % 2 == 0


def reverse_complement(p):
    """
    The window r with r_i = n+1 - p_{n+1-i}.

    An involution on S_n; it carries (iexc, depth, drops) of p to
    (exc, depth, drops) of the image and preserves the parity of inv.

    >>> reverse_complement((4, 1, 5, 2, 3))
    (3, 4, 1, 5, 2)
    """
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def exc_set(p):
    """1-indexed positions i with p_i > i."""
    return tuple(i + 1 for i, v in enumerate(p) if v > i + 1)


def desc_set(p):
    """1-indexed positions i with p_i > p_{i+1}."""
    return tuple(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def rank(kind, window):
    """
    Lexicographic rank of a window of S_n, A_n, B_n or D_n (kind "S", "A",
    "B" or "D"): each entry adds its index among the unused choices, taken
    in ascending order, times the group elements that extend one choice.
    The last two entries of A_n and the last sign of D_n follow from the
    parity, so they add nothing.
    """
    n = len(window)
    signed = kind in ("B", "D")
    rem = list(range(1, n + 1))
    r = 0
    for k in range(n - {"A": 2, "D": 1}.get(kind, 0)):
        v = window[k]
        choices = [-u for u in reversed(rem)] + rem if signed else rem
        r += choices.index(v) * _extensions(kind, n - k - 1)
        rem.remove(abs(v))
    return r


def _extensions(kind, m):
    # elements sharing a prefix that leaves m positions free; m >= 2 in A_n
    # and m >= 1 in D_n, since the forced positions are never reached
    f = math.factorial(m)
    return {"S": f, "A": f // 2, "B": 2 ** m * f, "D": 2 ** (m - 1) * f}[kind]


# ---------------------------------------------------------------------------
# cyclic classes, nesting and histories
# ---------------------------------------------------------------------------

def cyclic_classify(p, i):
    """
    Classify index i by the trichotomy of p^{-1}(i), i, p(i):
    'CPk' (cyclic peak), 'CVal' (valley), 'Cda' (double ascent),
    'Cdd' (double descent) or 'Fix'.

    >>> [cyclic_classify((4, 3, 2, 1), i) for i in (1, 2, 3, 4)]
    ['CVal', 'CVal', 'CPk', 'CPk']
    """
    if not 1 <= i <= len(p):
        raise ValueError(f"index {i} out of range for n={len(p)}")
    fwd = p[i - 1]
    if fwd == i:
        return "Fix"
    back = inverse(p)[i - 1]
    if back < i and fwd < i:
        return "CPk"
    if back > i and fwd > i:
        return "CVal"
    if back < i and fwd > i:
        return "Cda"
    return "Cdd"


def nest_at(p, i):
    """
    Number of arcs of the cycle diagram strictly enclosing the arc at i:
    indices j with j < i < p(i) < p(j) or p(j) < p(i) <= i < j.

    >>> nest_at((4, 3, 2, 1), 2)
    1
    """
    pi = p[i - 1]
    c = 0
    for j, pj in enumerate(p, start=1):
        if (j < i < pi < pj) or (pj < pi <= i < j):
            c += 1
    return c


def two_motzkin_paths(n):
    """All 2-Motzkin paths of length n (alphabet N S E D), in that order."""
    return (p for p in map("".join, itertools.product("NSED", repeat=n))
            if is_valid_path(p))


def laguerre_histories(n):
    """All restricted Laguerre histories of length n; there are n! of them."""
    for steps in two_motzkin_paths(n):
        ranges = []
        for s, h in zip(steps, heights(steps)):
            cap = h if s in "NE" else h - 1
            ranges.append(range(cap + 1))
        for labels in itertools.product(*ranges):
            yield LaguerreHistory(steps, labels)


# ---------------------------------------------------------------------------
# descent blocks
# ---------------------------------------------------------------------------

def descent_blocks(p):
    """
    Maximal strictly-decreasing runs; concatenating them gives back p.

    >>> descent_blocks((2, 3, 1))
    [(2,), (3, 1)]
    """
    if not p:
        return []
    blocks = []
    cur = [p[0]]
    for v in p[1:]:
        if cur[-1] > v:
            cur.append(v)
        else:
            blocks.append(tuple(cur))
            cur = [v]
    blocks.append(tuple(cur))
    return blocks


def right_embracings(p):
    """
    For each letter, the number of descent blocks strictly to its right
    whose first letter exceeds it and whose last letter is below it; blocks
    of length one never embrace.
    """
    blocks = descent_blocks(p)
    out = []
    for bi, block in enumerate(blocks):
        later = [b for b in blocks[bi + 1:] if len(b) >= 2]
        for v in block:
            out.append(sum(1 for b in later if b[0] > v > b[-1]))
    return tuple(out)
