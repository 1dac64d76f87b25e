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

import functools
import itertools
import math
import operator
import os
from collections import Counter
from typing import Callable, Hashable, Iterator, Sequence

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
        if not 0 < a <= n:
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
    return sum(itertools.starmap(operator.gt, itertools.combinations(p, 2)))


def desc_set(p: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions i with p_i > p_{i+1}."""
    return tuple(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def des(p: Sequence[int]) -> int:
    return sum(map(operator.gt, p, p[1:]))


def drops(p: Sequence[int]) -> int:
    """Sum of descent gaps p_i - p_{i+1} over the descent set."""
    # the positive gaps are half of |gaps| plus gaps, which telescope
    return (sum(map(abs, map(operator.sub, p, p[1:]))) + p[0] - p[-1]) >> 1 if p else 0


def exc_set(p: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions i with p_i > i."""
    return tuple(i + 1 for i, v in enumerate(p) if v > i + 1)


def exc(p: Sequence[int]) -> int:
    return sum(map(operator.gt, p, itertools.count(1)))


def depth(p: Sequence[int]) -> int:
    """Sum of excedance displacements p_i - i; half the Spearman disarray."""
    return spearman(p) >> 1


def spearman(p: Sequence[int]) -> int:
    """Total displacement sum |p_i - i|; always equals 2 * depth."""
    return sum(map(abs, map(operator.sub, p, itertools.count(1))))


def iexc(p: Sequence[int]) -> int:
    """Excedance count of the inverse permutation: #{i : p_i < i}."""
    return sum(map(operator.lt, p, itertools.count(1)))


def _scan(w: Sequence[int]) -> tuple[int, int, int, int, int, int]:
    # (inv, drops, depth, iexc, exc, des) in one walk; signed windows too
    n = len(w)
    seen = inversions = gaps = disp = below = above = falls = i = 0
    prev = w[0] if w else 0
    for v in w:
        i += 1                                 # cheaper than enumerate
        inversions += (seen >> v + n).bit_count()
        seen |= 1 << v + n                     # value v is bit v + n
        if v > i:
            above += 1
            disp += v - i
        elif v < i:
            below += 1
            disp += i - v
        if prev > v:
            falls += 1
            gaps += prev - v
        prev = v
    return inversions, gaps, disp >> 1, below, above, falls


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
    return sum(itertools.starmap(operator.gt, itertools.combinations(s, 2)))


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


def _scan_b(s: Sequence[int]) -> tuple[int, int]:
    # (inv_b, drops_b) in one left-to-right walk, as _scan does it
    n = len(s)
    seen = length = gaps = prev = 0
    for v in s:
        length += (seen >> v + n).bit_count()
        seen |= 1 << v + n
        if v < 0:
            length -= v
        if prev > v:
            gaps += prev - v
        prev = v
    return length, gaps


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
    return drops(s)


# ---------------------------------------------------------------------------
# exhaustive enumeration with rank/unrank support
# ---------------------------------------------------------------------------
#
# Every group is enumerated in lexicographic window order (standard integer
# order on entries).  Elements are addressed by rank in [0, order), so that
# disjoint rank ranges can be consumed concurrently.  The digits of a rank
# in the mixed radix of ``_place`` are a Lehmer code: digit k picks the
# entry at position k among the unused choices, in ascending order.

def check_group(kind: str, n: int) -> None:
    """
    The one owner of the size rules: S_n, A_n and B_n exist for n >= 0, and
    S_0, A_0 and B_0 hold the empty window alone; D_n needs n >= 2.
    """
    if kind not in GROUPS:
        raise ValueError(f"unknown group kind {kind!r}; expected one of {GROUPS}")
    if n < 0:
        raise ValueError("n must be >= 0")
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


def unrank(kind: str, n: int, r: int) -> Window:
    """Window at lexicographic rank r within the group."""
    order = group_order(kind, n)
    if not 0 <= r < order:
        raise ValueError(f"rank {r} out of range [0, {order})")
    return next(iter_group(kind, n, r, r + 1))


def _prefix(kind: str, n: int, r: int, length: int) -> tuple[Window, list[int], int]:
    # the first `length` entries of the element at rank r, the unused absolute
    # values in ascending order, and the parity its suffix must have: the
    # digit sum so far in A_n, the count of negative entries so far in D_n
    signed = kind in ("B", "D")
    rem = list(range(1, n + 1))
    out = []
    parity = 0
    for k in range(length):
        d, r = divmod(r, _place(kind, n, k))
        v = _choices(rem, signed)[d]
        parity ^= (d if kind == "A" else v < 0) & 1
        out.append(v)
        rem.remove(abs(v))
    return tuple(out), rem, parity


# Positions streamed per block: the most whose arrangements of the unused
# choices number at most 2000 (6! = 720 unsigned, 8*7*6*5 = 1680 signed).
# A signed block keeps 384 of its 1680 in B_n and 192 in D_n, a share that
# falls as blocks grow.
_SUFFIX = {"S": 6, "A": 6, "B": 4, "D": 4}


@functools.cache
def _suffix_masks(kind: str, m: int) -> tuple[bytes, bytes]:
    # For each parity of the prefix, a compress() mask over the lexicographic
    # m-arrangements of the sorted unused choices.  It keeps the arrangements
    # with distinct absolute values (B_n and D_n draw from -v and v) and, in
    # A_n and D_n, those whose parity makes the whole window even.
    masks = (bytearray(), bytearray())
    choices = _choices(list(range(1, m + 1)), kind in ("B", "D"))
    for suffix in itertools.permutations(choices, m):
        member = len({abs(v) for v in suffix}) == m
        if kind == "A":
            parity = inv(suffix) % 2
        elif kind == "D":
            parity = len(negs(suffix)) % 2
        else:
            parity = None                      # every prefix takes every suffix
        for p, mask in enumerate(masks):
            mask.append(member and parity in (None, p))
    return bytes(masks[0]), bytes(masks[1])


def iter_group(kind: str, n: int, start: int = 0,
               stop: int | None = None) -> Iterator[Window]:
    """
    Yield group elements in lexicographic order, restricted to the rank
    range [start, stop).  Concatenating disjoint ranges reproduces the full
    stream, which is how parallel consumers split the work.

    The stream runs in blocks of elements that share all but the last few
    positions.  Each block unranks its prefix once and takes its suffixes
    from itertools.permutations over the unused values, so a range starts
    without generating the ranks before it.

    >>> list(iter_group("S", 3, 2, 4))
    [(2, 1, 3), (2, 3, 1)]
    """
    order = group_order(kind, n)
    stop = order if stop is None else min(stop, order)
    if not 0 <= start <= order:
        raise ValueError(f"start rank {start} out of range [0, {order}]")
    if start >= stop:
        return
    m = min(n, _SUFFIX[kind])
    masks = _suffix_masks(kind, m)
    size = sum(masks[0])                       # elements per block
    for base in range(start - start % size, stop, size):
        prefix, rem, parity = _prefix(kind, n, base, n - m)
        block = itertools.compress(
            itertools.permutations(_choices(rem, kind in ("B", "D")), m), masks[parity])
        if base < start or base + size > stop:
            block = itertools.islice(block, max(start - base, 0), stop - base)
        yield from map(prefix.__add__, block)


# ---------------------------------------------------------------------------
# sweeps: one hook over a whole group, chunked and merged
# ---------------------------------------------------------------------------

_PARALLEL_CUTOFF = 30_000


def pool_size(threads: int, cpus: int | None) -> int:
    """Worker processes for ``threads`` requested on ``cpus`` processors,
    clamped to [1, cpus] so that a mistyped count cannot fork thousands."""
    return max(1, min(threads, cpus or 1))


def sweep(kind: str, n: int, hook: Callable[[Window], Hashable],
          threads: int = 1) -> Counter:
    """
    Count hook(w) over every element w of the group.

    With ``threads`` > 1 and a large enough group, disjoint rank ranges are
    counted in a process pool and merged in rank order, so the result never
    depends on the worker count.  The hook must be a module-level function,
    since workers receive it pickled by name.

    A hook marked with :func:`coxdrops.additive.block_additive` carries the
    block-table path (:func:`coxdrops.additive.count_blocks`): it is called
    once per first suffix value of each block, and a cached table of key
    differences supplies the rest of the block.  Any other hook is called
    on every element; only then is the order of the keys the rank order of
    the first element giving each, and so only such hooks return witnesses.

    >>> dict(sweep("S", 3, des))
    {0: 1, 1: 4, 2: 1}
    """
    total = group_order(kind, n)
    count = getattr(hook, "sweep_count", _count)
    workers = pool_size(threads, os.cpu_count())
    if workers == 1 or total < _PARALLEL_CUTOFF:
        return count(kind, n, hook, 0, total)
    import multiprocessing
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:                         # no fork on this platform
        context = multiprocessing.get_context()
    # a table-path piece builds the tables of nearly every unused set it
    # meets, so it gets one piece per worker
    pieces = min(workers * 4, 128) if count is _count else workers
    with context.Pool(workers) as pool:
        parts = pool.starmap(count, [
            (kind, n, hook, total * i // pieces, total * (i + 1) // pieces)
            for i in range(pieces)])
    counter: Counter = Counter()
    for part in parts:
        counter.update(part)
    return counter


def _count(kind: str, n: int, hook: Callable[[Window], Hashable],
           start: int, stop: int) -> Counter:
    # element-wise: the oracle the block-table path is tested against
    return Counter(map(hook, iter_group(kind, n, start, stop)))
