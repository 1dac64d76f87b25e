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

from .perm_core import (Window, identity, validate_permutation,
                        validate_signed)

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
    the highest stage index.  ``factor(i)`` retrieves the stage-i factor.
    """
    kind: str               # "A" or "B"
    n: int
    factors: tuple[Letters, ...]

    @property
    def top(self) -> int:
        """Highest stage index: n-1 in type A, n in type B."""
        return self.n - 1 if self.kind == "A" else self.n

    def factor(self, i: int) -> Letters:
        if not 1 <= i <= self.top:
            raise ValueError(f"no factor with stage index {i}")
        return self.factors[self.top - i]

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

    def evaluate(self) -> Window:
        return evaluate_word(self.letters, self.kind, self.n)

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
# index sequences and intermediate elements
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


@dataclass(frozen=True)
class IntermediateSequence:
    """
    Prefix products w_top, ..., w_1 of the canonical factors, starting from
    the identity (index top = n in type A, n+1 in type B) and ending at the
    element itself (index 1).  Entries need not be distinct.
    """
    top: int
    elems: tuple[Window, ...]     # elems[0] = identity = w_top

    def at(self, i: int) -> Window:
        if not 1 <= i <= self.top:
            raise ValueError(f"intermediate index {i} out of range")
        return self.elems[self.top - i]


def intermediates(word: CanonicalWord) -> IntermediateSequence:
    """
    >>> intermediates(canonical_word_b((3, 1, -5, 2, -4))).at(5)
    (1, 2, 3, 5, -4)
    """
    w = list(identity(word.n))
    elems = [tuple(w)]
    for f in word.factors:
        for k in f:
            if k == 0:
                w[0] = -w[0]
            else:
                w[k - 1], w[k] = w[k], w[k - 1]
        elems.append(tuple(w))
    return IntermediateSequence(word.top + 1, tuple(elems))


# ---------------------------------------------------------------------------
# type-B factor structure
# ---------------------------------------------------------------------------

def near_maximal_u(i: int) -> Letters:
    """The longest element of the stage-i section: s_{i-1}..s_1 s_0 s_1..s_{i-1}."""
    return tuple(range(i - 1, 0, -1)) + (0,) + tuple(range(1, i))


def near_maximal_v(i: int) -> Letters:
    """One letter shorter: s_{i-2}..s_1 s_0 s_1..s_{i-1}."""
    return tuple(range(i - 2, 0, -1)) + (0,) + tuple(range(1, i))


def in_section_a(factor: Letters, i: int) -> bool:
    """Structural membership of a type-A stage-i factor: empty or an
    ascending run ending at s_i."""
    if factor == ():
        return True
    j = factor[0]
    return 1 <= j <= i and factor == tuple(range(j, i + 1))


def in_section_b(factor: Letters, i: int) -> bool:
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


def classify_factor_b(factor: Sequence[int], i: int) -> str:
    """
    Tag a type-B stage-i factor: 'empty', 'short' (one letter), 'nml_u',
    'nml_v' (the two near-maximal-length elements), or 'other'.

    >>> classify_factor_b((3, 2, 1, 0, 1, 2, 3, 4), 5)
    'nml_v'
    >>> classify_factor_b((2, 3), 4)
    'other'
    """
    factor = tuple(factor)
    if not in_section_b(factor, i):
        raise ValueError(f"{factor} is not a stage-{i} type-B factor")
    if factor == ():
        return "empty"
    if len(factor) == 1:
        return "short"
    if i >= 2 and factor == near_maximal_u(i):
        return "nml_u"
    if i >= 2 and factor == near_maximal_v(i):
        return "nml_v"
    return "other"


# ---------------------------------------------------------------------------
# word text format
# ---------------------------------------------------------------------------

def word_to_text(word: CanonicalWord) -> str:
    """Render as bracketed factors of s<k> tokens, e.g. ``[s3 s4][s2 s3][][s1]``."""
    return "".join("[" + " ".join(f"s{k}" for k in f) + "]" for f in word.factors)


def parse_word_text(text: str) -> tuple[Letters, tuple[Letters, ...] | None]:
    """
    Parse whitespace-separated ``s<k>`` tokens with optional ``[``/``]``
    factor markers.  Returns (letters, factors); factors is None when the
    input carried no brackets.

    >>> parse_word_text("[s3 s4][s2 s3][][s1]")[0]
    (3, 4, 2, 3, 1)
    >>> parse_word_text("s0 s1")
    ((0, 1), None)
    """
    has_brackets = "[" in text or "]" in text
    factors: list[list[int]] = []
    current: list[int] | None = None if has_brackets else []
    if not has_brackets:
        factors.append(current)
    for tok in text.replace("[", " [ ").replace("]", " ] ").split():
        if tok == "[":
            if current is not None and has_brackets:
                raise ValueError("nested '[' in word text")
            current = []
            factors.append(current)
        elif tok == "]":
            if current is None:
                raise ValueError("unmatched ']' in word text")
            current = None
        elif tok.startswith("s") and tok[1:].isdigit():
            if current is None:
                raise ValueError(f"letter {tok!r} outside factor brackets")
            current.append(int(tok[1:]))
        else:
            raise ValueError(f"bad token {tok!r} in word text")
    if has_brackets and current is not None:
        raise ValueError("unterminated '[' in word text")
    letters = tuple(k for f in factors for k in f)
    return letters, (tuple(tuple(f) for f in factors) if has_brackets else None)
