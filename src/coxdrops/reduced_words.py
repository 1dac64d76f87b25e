"""
Canonical reduced words by the right-to-left reverse-sorting procedure.

Generators are written ``s_k``: for k >= 1, right multiplication swaps the
window entries at positions k, k+1; in type B, ``s_0`` flips the sign of the
first entry.  The canonical word of an element factors as
``[r_m][r_{m-1}]...[r_1]`` (m = n-1 in type A, m = n in type B) where stage
``r_i`` moves the correct entry into position i+1 (type A) or i (type B),
never touching the already-settled suffix.  Factor ``r_i`` always lies in a
small coset section: a contiguous ascending run ending at the stage index,
optionally (type B) preceded by a descending run into ``s_0``.

>>> str(canonical_word_a((4, 1, 5, 2, 3)))
'[s3 s4][s2 s3][][s1]'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm_core import Window, validate_permutation, validate_signed

__all__ = ["CanonicalWord", "canonical_word", "canonical_word_a",
           "canonical_word_b", "evaluate_word", "ird_and_ascents",
           "word_to_text"]

Letters = tuple[int, ...]


# ---------------------------------------------------------------------------
# word evaluation
# ---------------------------------------------------------------------------

def evaluate_word(letters: Sequence[int], kind: str, n: int) -> Window:
    """
    Apply the letters left to right to the identity.  No reducedness is
    assumed.

    >>> evaluate_word((3, 4, 2, 3, 1), "A", 5)
    (4, 1, 5, 2, 3)
    >>> evaluate_word((0,), "B", 2)
    (-1, 2)
    """
    lo = 0 if kind == "B" else 1
    w = list(range(1, n + 1))
    for k in letters:
        if not lo <= k <= n - 1:
            raise ValueError(f"generator index {k} out of range for type {kind}, n={n}")
        if k == 0:
            w[0] = -w[0]
        else:
            w[k - 1], w[k] = w[k], w[k - 1]
    return tuple(w)


# ---------------------------------------------------------------------------
# canonical words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalWord:
    """
    The factorized canonical reduced word of one group element.

    ``factors`` is stored leftmost first, i.e. factors[0] is the factor of
    the highest stage index (n-1 in type A, n in type B).
    """
    kind: str               # "A" or "B"
    n: int
    factors: tuple[Letters, ...]

    @property
    def letters(self) -> Letters:
        return tuple(k for f in self.factors for k in f)

    @property
    def factor_bounds(self) -> tuple[int, ...]:
        """Cumulative letter offsets; bounds[i] is where factor i starts."""
        out = [0]
        for f in self.factors:
            out.append(out[-1] + len(f))
        return tuple(out)

    def __len__(self) -> int:
        return sum(len(f) for f in self.factors)

    def __str__(self) -> str:
        return word_to_text(self)


def canonical_word_a(p: Sequence[int]) -> CanonicalWord:
    """
    Reverse-sort the identity into p, recording one factor per stage.

    Stage i (i = n-1 .. 1) moves the value p_{i+1} right into position i+1
    with the ascending run s_j s_{j+1} .. s_i.  The concatenated word has
    exactly inv(p) letters.

    >>> canonical_word_a((4, 1, 5, 2, 3)).factors
    ((3, 4), (2, 3), (), (1,))
    """
    p = validate_permutation(p)
    n = len(p)
    w = list(range(1, n + 1))
    pos = {v: i for i, v in enumerate(w)}
    factors = []
    for i in range(n - 1, 0, -1):              # 0-based target position i
        v = p[i]
        j = pos[v]
        factors.append(tuple(range(j + 1, i + 1)))
        if j < i:
            for u in w[j + 1:i + 1]:
                pos[u] -= 1
            w[j:i + 1] = w[j + 1:i + 1] + [v]
            pos[v] = i
    return CanonicalWord("A", n, tuple(factors))


def canonical_word_b(s: Sequence[int]) -> CanonicalWord:
    """
    Type-B reverse sorting: a negative target is walked to the front,
    sign-flipped with s_0, then walked back out to its position.

    >>> canonical_word_b((4, 1, -5, 2, -3)).factors
    ((2, 1, 0, 1, 2, 3, 4), (2, 3), (2, 1, 0, 1, 2), (1,), ())
    """
    s = validate_signed(s)
    n = len(s)
    w = list(range(1, n + 1))
    factors = []
    for i in range(n - 1, -1, -1):             # 0-based target position i
        v = s[i]
        a = abs(v)
        j = w.index(a)                         # unset prefix stays positive
        if v > 0:
            letters: Letters = tuple(range(j + 1, i + 1))
            w[j:i + 1] = w[j + 1:i + 1] + [a]
        else:
            letters = tuple(range(j, 0, -1)) + (0,) + tuple(range(1, i + 1))
            w[0:i + 1] = [u for u in w[:i + 1] if u != a] + [v]
        factors.append(letters)
    return CanonicalWord("B", n, tuple(factors))


def canonical_word(window: Sequence[int], kind: str) -> CanonicalWord:
    if kind == "A":
        return canonical_word_a(window)
    if kind == "B":
        return canonical_word_b(window)
    raise ValueError(f"unknown word type {kind!r}")


# ---------------------------------------------------------------------------
# index sequences
# ---------------------------------------------------------------------------

def ird_and_ascents(word: CanonicalWord) -> tuple[Letters, tuple[int, ...]]:
    """
    The flattened generator-index sequence and its ascent positions
    (1-indexed i with x_i < x_{i+1}).  Every ascent falls between two
    consecutive indices inside a single factor.

    >>> ird_and_ascents(canonical_word_a((4, 1, 5, 2, 3)))
    ((3, 4, 2, 3, 1), (1, 3))
    """
    letters = word.letters
    ascents = tuple(i + 1 for i in range(len(letters) - 1)
                    if letters[i] < letters[i + 1])
    return letters, ascents


# ---------------------------------------------------------------------------
# word text format (output only)
# ---------------------------------------------------------------------------

def word_to_text(word: CanonicalWord) -> str:
    """Render as bracketed factors of s<k> tokens, e.g. ``[s3 s4][s2 s3][][s1]``."""
    return "".join("[" + " ".join(f"s{k}" for k in f) + "]" for f in word.factors)

