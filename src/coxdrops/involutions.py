"""
Sign-reversing involutions on S_n and B_n and the fixed-point generators.

The involutions are defined on canonical reduced words: toggling one
letter of a canonical word multiplies the element by one reflection, and
each stage factor is read off one window position by the rule stated in
``reduced_words``.  So each map is a single scan of the window that finds
the toggled stage and swaps two values.

Type A (1-based positions).  Let t+1 be the leftmost position whose entry
has at least two larger entries to its left; if there is none, p is a fixed
point.  Otherwise let a < b be the two largest of p_1..p_t.  The image is p
with the values a and b swapped: the stage-(t-1) factor is toggled between
empty and its single letter.

Type B (0-based positions).  By that rule the stage-(i+1) factor is
near-maximal, one of the two longest in its section, when i >= 1, s_i < 0
and |s_i| is among the two largest of |s_0..s_i|.  At the rightmost such i
the two near-maximal forms are toggled: the two largest magnitudes of
|s_0..s_i| swap places, each position keeping its sign.  With none, the
fallback takes the first position d whose factor has two or more letters
(a fixed point when there is none) and swaps the two largest magnitudes
among |s_0..s_{d-1}| in the same way; d >= 2 here, since a negative s_1
is always near-maximal.

Both maps preserve a drop statistic and flip the sign, so all non-fixed
elements cancel out of signed enumerators.

Deciding prefixes (type A).  The type-A map reads p only up to p_{t+1} and
swaps two entries before it.  Call p_1..p_{t+1} the deciding prefix: each
entry before p_{t+1} is one of the two largest so far, and p_{t+1} is below
the second largest.  The image, and how inv, drops, depth, iexc and the
Motzkin shape differ between p and it, depend on that prefix alone (the
README's verify section says why), so S_n splits into classes of the
(n - t - 1)! windows that share a deciding prefix.  A window with no deciding entry is a fixed
point and a class of its own; there are 2^(n-1) of them.  toggle_classes
walks these classes in rank order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .perm_core import (Window, check_group, format_window,
                        validate_permutation, validate_signed)
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


def toggle_classes(n: int) -> Iterator[tuple[Window, int]]:
    """
    S_n as the classes of the deciding-prefix rule in the module docstring,
    in rank order: each class comes as its first element in rank order, the
    ascending completion of its prefix, and the number k of trailing
    entries its k! members permute (0 for a fixed point).  A depth-first
    walk tries values in ascending order, keeps a prefix open while each
    entry is one of the two largest so far, and closes it at the first
    entry below the second largest.  It does not consult _toggle_a, so a
    toggle that disagrees with the rule shows up in a check of its classes.

    >>> list(toggle_classes(3))
    [((1, 2, 3), 0), ((1, 3, 2), 0), ((2, 1, 3), 0), ((2, 3, 1), 0), ((3, 1, 2), 0), ((3, 2, 1), 0)]
    >>> next(c for c in toggle_classes(5) if c[1] > 1)     # 2,3,1,4,5 and 2,3,1,5,4
    ((2, 3, 1, 4, 5), 2)
    """
    check_group("S", n)
    window = [0] * n
    unused = list(range(1, n + 1))

    def walk(t: int, a: int, b: int) -> Iterator[tuple[Window, int]]:
        # window[:t] is open and a < b are its two largest entries (0 if
        # fewer); unused holds the values left, in ascending order
        if t == n:
            yield tuple(window), 0
            return
        for i, v in enumerate(unused):
            window[t] = v
            if v < a:
                yield tuple(window[:t + 1]) + tuple(unused[:i] + unused[i + 1:]), n - t - 1
                continue
            del unused[i]
            yield from walk(t + 1, *((b, v) if v > b else (v, b)))
            unused.insert(i, v)

    return walk(0, 0, 0)


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
    return InvolutionReport(p, _swap_positions(p, ia, ib), False,
                            changed_factor_index=d, transposition=(p[ia], p[ib]))


def _toggle_b(s: Window) -> tuple[int, int, int] | None:
    # (toggled stage, positions of the two magnitudes to swap), or None at a
    # fixed point.  The fallback and a near-maximal factor both need a
    # position i >= 1, so s_0 only seeds the two largest magnitudes so far,
    # a < b, and each later entry's sign is tested once
    a, ia = 0, -1
    b, ib = (abs(s[0]), 0) if s else (0, -1)
    near = fallback = None
    for i in range(1, len(s)):
        v = s[i]
        if v > 0:
            if v > b:
                a, ia, b, ib = b, ib, v, i
            elif v > a:
                a, ia = v, i
            elif fallback is None:
                fallback = i, ia, ib
            continue
        # a negative entry opens the fallback, and its factor is
        # near-maximal when |s_i| is one of the two largest so far
        if fallback is None:
            fallback = i, ia, ib
        m = -v
        if m > b:
            a, ia, b, ib = b, ib, m, i
        elif m > a:
            a, ia = m, i
        else:
            continue
        near = i + 1, ia, ib
    return near or fallback


def involution_b(s: Sequence[int]) -> InvolutionReport:
    """
    The type-B sign-reversing involution: toggle the leftmost near-maximal
    factor between its two forms, else fall back to the type-A style move.
    Leftmost in the word means at the rightmost near-maximal position i >= 1.

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
    (subsets of s_0..s_{n-1}).  Element k, counted from 0, takes the
    generators whose bits are set in k, the lowest generator in bit 0, so
    elements 2j and 2j+1 differ by that generator alone.

    >>> sorted(fixed_points("S", 3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)]
    """
    if kind == "S":
        lo, wordkind = 1, "A"
    elif kind == "B":
        lo, wordkind = 0, "B"
    else:
        raise ValueError("fixed_points supports kinds 'S' and 'B'")
    check_group(kind, n)
    gens = range(n - 1, lo - 1, -1)
    return (evaluate_word(tuple(k for k in gens if mask >> (k - lo) & 1), wordkind, n)
            for mask in range(1 << max(n - lo, 0)))


# ---------------------------------------------------------------------------
# the swaps the involutions apply
# ---------------------------------------------------------------------------

def _swap_positions(p: Sequence[int], i: int, j: int) -> Window:
    out = list(p)
    out[i], out[j] = p[j], p[i]
    return tuple(out)


def _swap_magnitudes(s: Sequence[int], i: int, j: int) -> Window:
    # exchange |s_i| and |s_j|, each position keeping its sign: entries of
    # one sign swap, entries of unlike signs each take the other negated
    u, v = s[i], s[j]
    out = list(s)
    if (u > 0) == (v > 0):
        out[i], out[j] = v, u
    else:
        out[i], out[j] = -v, -u
    return tuple(out)
