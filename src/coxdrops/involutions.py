"""
Sign-reversing involutions on S_n and B_n, the fixed-point generators, and
the type-D pairing maps.

The involutions are defined on canonical reduced words (see
``reduced_words``): toggling one letter of a canonical word multiplies the
element by one reflection, so each map is computed by a single scan of the
window that finds the toggled stage and swaps two values.  The scan rests
on one fact: the stage-i factor of the canonical word has as many letters
as there are inversions at one window position.

Type A (1-based positions).  Let t+1 be the leftmost position whose entry
has at least two larger entries to its left; if there is none, p is a fixed
point.  Otherwise let a < b be the two largest of p_1..p_t.  The image is p
with the values a and b swapped: the stage-(t-1) factor is toggled between
empty and its single letter.

Type B (0-based positions).  The stage-(i+1) factor has
#{k<i : |s_k| > |s_i|} letters when s_i > 0, and i+1+#{k<i : |s_k| < |s_i|}
when s_i < 0.  It is near-maximal, one of the two longest in its section,
when i >= 1, s_i < 0 and |s_i| is among the two largest of |s_0..s_i|.  At
the rightmost such i the two near-maximal forms are toggled: the two
largest magnitudes of |s_0..s_i| swap places, each position keeping its
sign.  With none, the fallback takes the first position d whose factor has
two or more letters (a fixed point when there is none) and swaps the two
largest magnitudes among |s_0..s_{d-1}| in the same way; d >= 2 here,
since a negative s_1 is always near-maximal.

Both maps preserve a drop statistic and flip the sign, so all non-fixed
elements cancel out of signed enumerators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .perm_core import (Window, format_window, in_type_d, validate_permutation,
                        validate_signed)
from .reduced_words import evaluate_word


@dataclass(frozen=True)
class InvolutionReport:
    """One application of an involution."""
    input: Window
    output: Window
    fixed: bool
    changed_factor_index: int | None = None
    transposition: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        return {
            "input": format_window(self.input),
            "output": format_window(self.output),
            "fixed": self.fixed,
            "factor_index": self.changed_factor_index,
            "transposition": list(self.transposition) if self.transposition else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _toggle_a(p: Window) -> tuple[int, int, int] | None:
    # (toggled stage, positions of the two largest entries before the first
    # entry with two larger entries to its left), or None at a fixed point
    a = b = 0                                  # two largest so far, a < b
    ia = ib = -1
    for t, v in enumerate(p):
        if v < a:
            return t - 1, ia, ib
        if v > b:
            a, ia, b, ib = b, ib, v, t
        elif v > a:
            a, ia = v, t
    return None


def involution_a(p: Sequence[int]) -> InvolutionReport:
    """
    The type-A sign-reversing involution.

    >>> involution_a((4, 1, 5, 2, 3)).output
    (5, 1, 4, 2, 3)
    >>> involution_a((1, 2, 3)).fixed
    True
    """
    p = validate_permutation(p)
    hit = _toggle_a(p)
    if hit is None:
        return InvolutionReport(p, p, True)
    d, ia, ib = hit
    a, b = p[ia], p[ib]
    out = list(p)
    out[ia], out[ib] = b, a
    return InvolutionReport(p, tuple(out), False, changed_factor_index=d,
                            transposition=(a, b))


def differing_transposition(p: Sequence[int]) -> tuple[int, int]:
    """
    The value pair (a, b) whose swap carries the involution image back to p.
    a and b sit at positions d, d+1 of the intermediate element above the
    toggled stage d, and satisfy a >= d+1, b >= d+2.  Rejects fixed points.

    >>> differing_transposition((4, 1, 5, 2, 3))
    (4, 5)
    """
    p = validate_permutation(p)
    hit = _toggle_a(p)
    if hit is None:
        raise ValueError(f"{format_window(p)} is a fixed point; no transposition")
    return p[hit[1]], p[hit[2]]


def _toggle_b(s: Window) -> tuple[int, int, int] | None:
    # (toggled stage, positions of the two magnitudes to swap), or None at a
    # fixed point
    a = b = 0                                  # two largest magnitudes so far
    ia = ib = -1
    near = fallback = None
    for i, v in enumerate(s):
        m = v if v > 0 else -v
        if fallback is None and (m < a if v > 0 else i > 0):
            fallback = i, ia, ib
        if m > b:
            a, ia, b, ib = b, ib, m, i
        elif m > a:
            a, ia = m, i
        if v < 0 and i > 0 and (ia == i or ib == i):
            near = i + 1, ia, ib
    return near or fallback


def involution_b(s: Sequence[int]) -> InvolutionReport:
    """
    The type-B sign-reversing involution: toggle the leftmost near-maximal
    factor between its two forms, else fall back to the type-A style move.

    >>> involution_b((3, 1, -5, 2, -4)).output
    (3, 1, -4, 2, -5)
    >>> involution_b((-6, 1, 5, 3, 4, -2)).output
    (-5, 1, 6, 3, 4, -2)
    """
    s = validate_signed(s)
    hit = _toggle_b(s)
    if hit is None:
        return InvolutionReport(s, s, True)
    d, ia, ib = hit
    return InvolutionReport(s, _swap_magnitudes(s, ia, ib), False,
                            changed_factor_index=d)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def fixed_points(kind: str, n: int) -> Iterator[Window]:
    """
    The involution's fixed points: elements whose canonical word is a
    strictly decreasing sequence of distinct generator indices.  There are
    2^(n-1) of them in S_n (subsets of s_1..s_{n-1}) and 2^n in B_n
    (subsets of s_0..s_{n-1}).

    >>> sorted(fixed_points("S", 3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)]
    """
    if kind == "S":
        lo, wordkind = 1, "A"
    elif kind == "B":
        lo, wordkind = 0, "B"
    else:
        raise ValueError("fixed_points supports kinds 'S' and 'B'")
    gens = range(n - 1, lo - 1, -1)
    for mask in range(1 << (n - lo)):
        word = tuple(k for k in gens if mask >> (k - lo) & 1)
        yield evaluate_word(word, wordkind, n)


def is_fixed_a(p: Sequence[int]) -> bool:
    return _toggle_a(validate_permutation(p)) is None


def is_fixed_b(s: Sequence[int]) -> bool:
    return _toggle_b(validate_signed(s)) is None


# ---------------------------------------------------------------------------
# type-D pairing maps
# ---------------------------------------------------------------------------

def _top_positions(s: Sequence[int]) -> tuple[int, int]:
    n = len(s)
    ia = next(i for i, x in enumerate(s) if abs(x) == n - 1)
    ib = next(i for i, x in enumerate(s) if abs(x) == n)
    return ia, ib


def _swap_magnitudes(s: Sequence[int], i: int, j: int) -> Window:
    # exchange |s_i| and |s_j|, each position keeping its sign
    out = list(s)
    out[i] = abs(s[j]) if s[i] > 0 else -abs(s[j])
    out[j] = abs(s[i]) if s[j] > 0 else -abs(s[i])
    return tuple(out)


def pair_map_bd(s: Sequence[int]) -> Window:
    """
    The pairing used to cancel the signed zdrops sum over B_n - D_n: swap
    the magnitudes of the entries +-(n-1) and +-n, keeping each position's
    sign.  Defined on windows where +-(n-1) occurs left of +-n; the image
    has them in the opposite order and the type-D length parity flipped.

    >>> pair_map_bd((1, -2))
    (2, -1)
    """
    s = validate_signed(s)
    if len(s) < 2:
        raise ValueError("pairing needs n >= 2")
    ia, ib = _top_positions(s)
    if ia > ib:
        raise ValueError(
            f"{format_window(s)}: the letter +-{len(s) - 1} must occur left of +-{len(s)}")
    return _swap_magnitudes(s, ia, ib)


def pair_map_d(s: Sequence[int]) -> Window:
    """
    The same magnitude swap restricted to D_n, pairing off the signed
    drops_d sum in the inductive step.

    >>> pair_map_d((-1, -2))
    (-2, -1)
    """
    s = validate_signed(s)
    if not in_type_d(s):
        raise ValueError(f"{format_window(s)} has oddly many negatives; not in D_n")
    return pair_map_bd(s)
