"""
Canonical reduced words, read off the window one position at a time.

Generators are written ``s_k``: for k >= 1, right multiplication swaps the
window entries at positions k, k+1; in type B, ``s_0`` flips the sign of the
first entry.  The canonical word of an element factors as
``[r_m][r_{m-1}]...[r_1]`` (m = n-1 in type A, m = n in type B), the word
that reverse-sorts the identity into the element: stage ``r_i`` settles one
position and never touches the settled suffix.  Each stage factor is read
off one position of the window (0-based), with j the number of smaller
magnitudes to its left:

* type A, position i >= 1: the stage-i factor is ``s_{j+1} ... s_i``;
* type B, position i >= 0: the stage-(i+1) factor is ``s_{j+1} ... s_i``
  for a positive entry and ``s_j ... s_1 s_0 s_1 ... s_i`` for a negative
  one.

So a factor has as many letters as there are inversions (inv, resp.
inv_b) ending at its position.  It lies in a small coset section: a
contiguous ascending run ending at the stage index, optionally (type B)
preceded by a descending run into ``s_0``.

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
    if kind not in ("A", "B"):
        raise ValueError(f"unknown word type {kind!r}")
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


def _factors(w: Window) -> tuple[Letters, ...]:
    # one factor per position, left to right, by the rule above: position i
    # holds type B's stage i+1 and, in a permutation, type A's stage i with
    # the same letters.  `seen` has bit |v| for each magnitude passed.
    factors = []
    seen = 0
    for i, v in enumerate(w):
        a = abs(v)
        j = (seen & (1 << a) - 1).bit_count()
        seen |= 1 << a
        factors.append(tuple(range(j + 1, i + 1)) if v > 0
                       else tuple(range(j, 0, -1)) + tuple(range(i + 1)))
    return tuple(factors)


def canonical_word_a(p: Sequence[int]) -> CanonicalWord:
    """
    The type-A canonical word: inv(p) letters, one factor per position i >= 1.

    >>> canonical_word_a((4, 1, 5, 2, 3)).factors
    ((3, 4), (2, 3), (), (1,))
    """
    p = validate_permutation(p)
    return CanonicalWord("A", len(p), _factors(p)[:0:-1])


def canonical_word_b(s: Sequence[int]) -> CanonicalWord:
    """
    The type-B canonical word: inv_b(s) letters, one factor per position.

    >>> canonical_word_b((4, 1, -5, 2, -3)).factors
    ((2, 1, 0, 1, 2, 3, 4), (2, 3), (2, 1, 0, 1, 2), (1,), ())
    """
    s = validate_signed(s)
    return CanonicalWord("B", len(s), _factors(s)[::-1])


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

