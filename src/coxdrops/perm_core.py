"""
Group elements of S_n, B_n and D_n in one-line "window" notation, together
with the scalar statistics defined on them.

A window is a tuple of integers.  For S_n it is a permutation of `1..n`;
for B_n and D_n the entries are nonzero, signed, and their absolute values
form a permutation of `1..n`.  Positions are 1-indexed throughout the
documentation; code indexes tuples the usual 0-based way.

>>> inv((4, 1, 5, 2, 3))
5
>>> drops((4, 1, 5, 2, 3)), depth((4, 1, 5, 2, 3))
(6, 5)
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

Window = tuple[int, ...]

GROUPS = ("S", "A", "B", "D")


# ---------------------------------------------------------------------------
# parsing, formatting, validation
# ---------------------------------------------------------------------------

def parse_window(text: str) -> Window:
    """
    Parse a comma-separated window such as ``"3,1,-5,2,-4"``.

    Raises ValueError with a position-specific message on malformed input.

    >>> parse_window("3,1,-5,2,-4")
    (3, 1, -5, 2, -4)
    """
    parts = text.split(",")
    out = []
    for k, part in enumerate(parts, start=1):
        tok = part.strip()
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"position {k}: expected an integer, got {tok!r}") from None
        if v == 0:
            raise ValueError(f"position {k}: entries must be nonzero")
        out.append(v)
    window = tuple(out)
    _validate_window(window)
    return window


def format_window(window: Sequence[int]) -> str:
    """Inverse of :func:`parse_window`: negative entries render as a leading minus."""
    return ",".join(str(v) for v in window)


def _validate_window(window: Sequence[int]) -> None:
    n = len(window)
    seen: dict[int, int] = {}
    for k, v in enumerate(window, start=1):
        a = abs(v)
        if a > n:
            raise ValueError(f"position {k}: entry {v} out of range for n={n}")
        if a in seen:
            raise ValueError(
                f"position {k}: absolute value {a} repeats position {seen[a]}")
        seen[a] = k


def validate_permutation(window: Sequence[int]) -> Window:
    """Check that the window lies in S_n and return it as a tuple."""
    _validate_window(window)
    for k, v in enumerate(window, start=1):
        if v < 0:
            raise ValueError(f"position {k}: negative entry {v} not allowed in S_n")
    return tuple(window)


def validate_signed(window: Sequence[int]) -> Window:
    """Check that the window lies in B_n and return it as a tuple."""
    _validate_window(window)
    return tuple(window)


def is_unsigned(window: Sequence[int]) -> bool:
    return all(v > 0 for v in window)


def in_type_d(window: Sequence[int]) -> bool:
    """D_n membership: evenly many negative entries."""
    return sum(1 for v in window if v < 0) % 2 == 0


def identity(n: int) -> Window:
    return tuple(range(1, n + 1))


def inverse(p: Sequence[int]) -> Window:
    """
    Inverse of an unsigned permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


# ---------------------------------------------------------------------------
# statistics on S_n
# ---------------------------------------------------------------------------

def inv(p: Sequence[int]) -> int:
    """Number of pairs i < j with p_i > p_j."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def desc_set(p: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions i with p_i > p_{i+1}."""
    return tuple(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def des(p: Sequence[int]) -> int:
    return len(desc_set(p))


def drops(p: Sequence[int]) -> int:
    """Sum of descent gaps p_i - p_{i+1} over the descent set."""
    return sum(a - b for a, b in itertools.pairwise(p) if a > b)


def exc_set(p: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions i with p_i > i."""
    return tuple(i + 1 for i, v in enumerate(p) if v > i + 1)


def exc(p: Sequence[int]) -> int:
    return len(exc_set(p))


def depth(p: Sequence[int]) -> int:
    """Sum of excedance displacements p_i - i; half the Spearman disarray."""
    return sum(v - i - 1 for i, v in enumerate(p) if v > i + 1)


def spearman(p: Sequence[int]) -> int:
    """Total displacement sum |p_i - i|; always equals 2 * depth."""
    return sum(abs(v - i - 1) for i, v in enumerate(p))


def iexc(p: Sequence[int]) -> int:
    """Excedance count of the inverse permutation."""
    return exc(inverse(p))


def reverse_complement(p: Sequence[int]) -> Window:
    """
    The window r with r_i = n+1 - p_{n+1-i}.

    An involution on S_n; it carries (iexc, depth, drops) of p to
    (exc, depth, drops) of the image and preserves the parity of inv.

    >>> reverse_complement((4, 1, 5, 2, 3))
    (3, 4, 1, 5, 2)
    """
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


@dataclass(frozen=True)
class StatBundle:
    """All scalar S_n statistics of one permutation."""
    inv: int
    des: int
    exc: int
    iexc: int
    drops: int
    depth: int
    spearman: int

    @classmethod
    def of(cls, p: Sequence[int]) -> "StatBundle":
        d = depth(p)
        return cls(inv=inv(p), des=des(p), exc=exc(p), iexc=iexc(p),
                   drops=drops(p), depth=d, spearman=2 * d)


# ---------------------------------------------------------------------------
# statistics on B_n and D_n
# ---------------------------------------------------------------------------

def negs(s: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions carrying a negative entry."""
    return tuple(i + 1 for i, v in enumerate(s) if v < 0)


def nsum(s: Sequence[int]) -> int:
    """Absolute value of the sum of the negative entries."""
    return -sum(v for v in s if v < 0)


def inv_a(s: Sequence[int]) -> int:
    """Inversions of the signed window under the standard integer order."""
    n = len(s)
    return sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])


def inv_b(s: Sequence[int]) -> int:
    """Type-B length: nsum + inv_a."""
    return nsum(s) + inv_a(s)


def drops_b(s: Sequence[int]) -> int:
    """Descent-gap sum of the window prefixed with a virtual 0."""
    total = 0
    prev = 0
    for v in s:
        if prev > v:
            total += prev - v
        prev = v
    return total


def inv_d(s: Sequence[int]) -> int:
    """Type-D length statistic inv_b - #negatives, defined on all of B_n."""
    return inv_b(s) - len(negs(s))


def drops_d(s: Sequence[int]) -> int:
    """
    Descent-gap sum of the window prefixed with the virtual entry -s_2.

    Needs n >= 2.  The summand is taken as s_i - s_{i+1} >= 0 over descents,
    the convention under which the type-D signed enumerator has nonnegative
    exponents.
    """
    if len(s) < 2:
        raise ValueError("drops_d needs n >= 2 (the prefix entry is -s_2)")
    total = 0
    prev = -s[1]
    for v in s:
        if prev > v:
            total += prev - v
        prev = v
    return total


def zdrops(s: Sequence[int]) -> int:
    """
    Descent-gap sum of the bare window, without any virtual prefix entry.

    Equals drops_b(s) when s_1 > 0 and drops_b(s) + s_1 when s_1 < 0: a
    negative first entry always makes the virtual position a descent of gap
    -s_1, and that contribution is excluded here.
    """
    return sum(a - b for a, b in itertools.pairwise(s) if a > b)


# ---------------------------------------------------------------------------
# exhaustive enumeration with rank/unrank support
# ---------------------------------------------------------------------------
#
# Every group is enumerated in lexicographic window order (standard integer
# order on entries).  Elements are addressed by rank in [0, order), so that
# disjoint rank ranges can be consumed concurrently; ``iter_group`` resumes
# mid-stream without generating the skipped prefix.

def check_group(kind: str, n: int) -> None:
    if kind not in GROUPS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUPS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "D" and n < 2:
        raise ValueError("D_n needs n >= 2")


def group_order(kind: str, n: int) -> int:
    """
    |S_n| = n!, |A_n| = n!/2, |B_n| = 2^n n!, |D_n| = 2^(n-1) n!.

    Orders and ranks are exact arbitrary-precision integers, so the count
    cannot silently overflow at any n.

    >>> [group_order(k, 3) for k in ("S", "A", "B", "D")]
    [6, 3, 48, 24]
    """
    check_group(kind, n)
    f = math.factorial(n)
    if kind == "S":
        return f
    if kind == "A":
        return max(1, f // 2)
    if kind == "B":
        return (1 << n) * f
    return (1 << (n - 1)) * f


def _choices(rem: list[int], signed: bool) -> list[int]:
    # `rem` holds the unused absolute values in ascending order
    if not signed:
        return rem
    return [-v for v in reversed(rem)] + rem


def _place(kind: str, n: int, k: int) -> int:
    # completions below one choice at 0-based position k
    m = n - k - 1
    if kind == "S":
        return math.factorial(m)
    if kind == "A":
        return max(1, math.factorial(m) // 2)
    if kind == "B":
        return (1 << m) * math.factorial(m)
    return max(1, 1 << (m - 1)) * math.factorial(m) if m >= 1 else 1


def _free_positions(kind: str, n: int) -> int:
    # trailing positions are forced: the last two in A_n, the last one in D_n
    if kind == "A":
        return max(0, n - 2)
    if kind == "D":
        return n - 1
    return n


def _forced_tail(kind: str, rem: list[int], parity: int) -> list[int]:
    if kind == "A":
        # remaining two values in ascending order iff the Lehmer parity so far
        # is even; one or zero values are forced as-is
        if len(rem) == 2 and parity % 2 == 1:
            return [rem[1], rem[0]]
        return list(rem)
    # kind == "D": one remaining value, sign forced to keep #negatives even
    v = rem[0]
    return [-v] if parity % 2 == 1 else [v]


def unrank(kind: str, n: int, r: int) -> Window:
    """Window at lexicographic rank r within the group."""
    order = group_order(kind, n)
    if not 0 <= r < order:
        raise ValueError(f"rank {r} out of range [0, {order})")
    signed = kind in ("B", "D")
    rem = list(range(1, n + 1))
    out: list[int] = []
    parity = 0
    for k in range(_free_positions(kind, n)):
        place = _place(kind, n, k)
        d, r = divmod(r, place)
        opts = _choices(rem, signed)
        v = opts[d]
        if kind == "A":
            parity += d
        elif kind == "D" and v < 0:
            parity += 1
        out.append(v)
        rem.remove(abs(v))
    if kind in ("A", "D"):
        out.extend(_forced_tail(kind, rem, parity))
    return tuple(out)


def rank(kind: str, window: Sequence[int]) -> int:
    """Lexicographic rank of the window within the group; inverse of unrank."""
    n = len(window)
    check_group(kind, n)
    signed = kind in ("B", "D")
    try:
        window = validate_signed(window) if signed else validate_permutation(window)
        if kind == "A" and inv(window) % 2:
            raise ValueError("odd permutation")
        if kind == "D" and not in_type_d(window):
            raise ValueError("oddly many negative entries")
    except ValueError as exc:
        raise ValueError(f"{format_window(window)} is not in {kind}_{n}: {exc}") from None
    rem = list(range(1, n + 1))
    r = 0
    for k in range(_free_positions(kind, n)):
        v = window[k]
        d = _choices(rem, signed).index(v)
        r += d * _place(kind, n, k)
        rem.remove(abs(v))
    return r


def iter_group(kind: str, n: int, start: int = 0,
               stop: int | None = None) -> Iterator[Window]:
    """
    Yield group elements in lexicographic order, restricted to the rank
    range [start, stop).  Concatenating disjoint ranges reproduces the full
    stream, which is how parallel consumers split the work.

    >>> list(iter_group("S", 3, 2, 4))
    [(2, 1, 3), (2, 3, 1)]
    """
    order = group_order(kind, n)
    stop = order if stop is None else min(stop, order)
    if not 0 <= start <= order:
        raise ValueError(f"start rank {start} out of range [0, {order}]")
    if start >= stop:
        return
    if kind == "S" and start == 0 and stop == order:
        yield from itertools.permutations(range(1, n + 1))
        return
    yield from _iter_from(kind, n, start, stop - start)


def _iter_from(kind: str, n: int, start: int, count: int) -> Iterator[Window]:
    signed = kind in ("B", "D")
    free = _free_positions(kind, n)
    # digit path of the start rank
    digits = []
    r = start
    for k in range(free):
        d, r = divmod(r, _place(kind, n, k))
        digits.append(d)

    rem = list(range(1, n + 1))
    out: list[int] = []
    remaining = count

    def walk(k: int, on_bound: bool, parity: int) -> Iterator[Window]:
        nonlocal remaining
        if remaining == 0:
            return
        if k == free:
            tail = _forced_tail(kind, rem, parity) if kind in ("A", "D") else []
            yield tuple(out) + tuple(tail)
            remaining -= 1
            return
        opts = _choices(rem, signed)
        lo = digits[k] if on_bound else 0
        for d in range(lo, len(opts)):
            v = opts[d]
            out.append(v)
            rem.remove(abs(v))
            dp = parity + (d if kind == "A" else (1 if v < 0 else 0))
            yield from walk(k + 1, on_bound and d == lo, dp)
            rem.insert(_insert_at(rem, abs(v)), abs(v))
            out.pop()
            if remaining == 0:
                return

    yield from walk(0, True, 0)


def _insert_at(rem: list[int], v: int) -> int:
    return bisect.bisect_left(rem, v)
