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


# ---------------------------------------------------------------------------
# statistics on S_n
# ---------------------------------------------------------------------------

def inv(p: Sequence[int]) -> int:
    """Number of pairs i < j with p_i > p_j."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(p, 2)))


def des(p: Sequence[int]) -> int:
    return sum(map(operator.gt, p, p[1:]))


def drops(p: Sequence[int]) -> int:
    """Sum of descent gaps p_i - p_{i+1} over the descent set."""
    total = 0
    prev = p[0] if p else 0
    for v in p:
        if prev > v:
            total += prev - v
        prev = v
    return total


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


# ---------------------------------------------------------------------------
# statistics on B_n and D_n
# ---------------------------------------------------------------------------

def negs(s: Sequence[int]) -> tuple[int, ...]:
    """1-indexed positions carrying a negative entry."""
    return tuple(i + 1 for i, v in enumerate(s) if v < 0)


def nsum(s: Sequence[int]) -> int:
    """Absolute value of the sum of the negative entries."""
    return -sum(v for v in s if v < 0)


# inversions of a signed window under the standard integer order
inv_a = inv


def inv_b(s: Sequence[int]) -> int:
    """Type-B length: nsum + inv_a."""
    return nsum(s) + inv(s)


def drops_b(s: Sequence[int]) -> int:
    """Descent-gap sum of the window prefixed with a virtual 0."""
    return drops((0, *s))


def _scan_b(s: Sequence[int]) -> tuple[int, int, int]:
    # (inv_b, drops_b, #negatives) in one left-to-right walk, as _scan does it
    n = len(s)
    seen = length = gaps = negatives = prev = 0
    for v in s:
        length += (seen >> v + n).bit_count()
        seen |= 1 << v + n
        if v < 0:
            length -= v
            negatives += 1
        if prev > v:
            gaps += prev - v
        prev = v
    return length, gaps, negatives


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
    return drops((-s[1], *s))


def zdrops(s: Sequence[int]) -> int:
    """
    Descent-gap sum of the bare window, without any virtual prefix entry.

    Equals drops_b(s) when s_1 > 0 and drops_b(s) + s_1 when s_1 < 0: a
    negative first entry always makes the virtual position a descent of gap
    -s_1, and that contribution is excluded here.
    """
    return drops(s)


# ---------------------------------------------------------------------------
# exhaustive enumeration by rank
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
    # completions below one choice at 0-based position k; in D_n the parity
    # of the negatives fixes one sign of the other m positions
    m = n - k - 1
    if kind == "D":
        return max(1, group_order("B", m) // 2)
    return group_order(kind, m)


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
    m = min(n, _SUFFIX[kind])
    masks = _suffix_masks(kind, m)
    size = sum(masks[0])                       # elements per block
    for base in range(start - start % size, stop, size):
        prefix, rem, parity = _prefix(kind, n, base, n - m)
        block = itertools.compress(
            itertools.permutations(_choices(rem, kind in ("B", "D")), m), masks[parity])
        if not (start <= base and base + size <= stop):
            block = itertools.islice(block, max(start - base, 0), stop - base)
        yield from map(prefix.__add__, block)


# ---------------------------------------------------------------------------
# sweeps: one hook over a whole group, chunked and merged
# ---------------------------------------------------------------------------

_PARALLEL_CUTOFF = 30_000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, so that taskset and container cpusets count, else
    os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(threads: int, cpus: int | None) -> int:
    """Worker processes for ``threads`` requested on ``cpus`` processors,
    clamped to [1, cpus] so that a mistyped count cannot fork thousands."""
    return max(1, min(threads, cpus or 1))


def sweep(kind: str, n: int, hook: Callable[[Window], Hashable],
          threads: int = 1) -> Counter:
    """
    Count hook(w) over every element w of the group.

    With ``threads`` = K > 1, clamped to :func:`usable_cpus`, and a large
    enough group, the group is cut into disjoint shares.  The process forks
    K - 1 children and process k counts the shares i = k mod K, the parent
    being process 0; it counts its own shares first.  Each child pickles its
    partial counters back through its own pipe, and the parent merges every
    share's counter in share order, so the result never depends on the
    worker count.  A hook that raises in a child raises the same exception
    in the parent once every child is reaped.  Where os.fork does not exist
    the sweep counts in one process.

    A hook marked with :func:`block_additive` for this group is counted a
    block at a time, walking the group by context: the unused values of a
    block's last positions and, in D_n, the parity they must have.
    The first block of a context builds its table of key differences, one
    row per first suffix value.  Every other block is one hook call on the
    first row; cut again before the prefix's last entry, its key on another
    row is offset by an amount set by that entry alone, one call per row
    and entry.  Each distinct key is shifted by the table once.  Workers
    split such a hook by context, one share each, so each table is built
    once.  Any other hook, and a marked hook over a group its mark leaves
    out, is called on every element, and workers split it into 4K rank
    ranges; only then is the order of the keys the rank order
    of the first element giving each, and so only such hooks return
    witnesses.

    >>> dict(sweep("S", 3, des))
    {0: 1, 1: 4, 2: 1}
    """
    total = group_order(kind, n)
    count = _count_blocks if kind in getattr(hook, "table_groups", ()) else _count
    workers = pool_size(threads, usable_cpus())
    if workers == 1 or total < _PARALLEL_CUTOFF or not hasattr(os, "fork"):
        return count(kind, n, hook, 0, 1)
    pieces = workers * 4 if count is _count else workers
    counter: Counter = Counter()
    for part in _fan_out(functools.partial(count, kind, n, hook), pieces, workers):
        counter.update(part)
    return counter


def _fan_out(count: Callable[[int, int], Counter], pieces: int,
             workers: int) -> list[Counter]:
    # count(i, pieces) for i = 0..pieces-1, in that order: forked child k
    # of workers - 1 counts the shares i = k mod workers, the parent those
    # of 0; on any error in the parent the children are killed, and every
    # child is reaped before a child's exception is raised
    import pickle
    import signal
    pids: list[int] = []
    pipes = []                                 # read ends, one per child
    parts: list = [None] * pieces
    done = False
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(count, range(k, pieces, workers), pieces, read, write)
            finally:
                os.close(write)
            pids.append(pid)
        parts[::workers] = [count(i, pieces) for i in range(0, pieces, workers)]
        sent = [pipe.read() for pipe in pipes]
        done = True
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for k, (pid, data) in enumerate(zip(pids, sent), start=1):
        if not data:
            raise RuntimeError(f"sweep worker {pid} ended without sending its counts")
        counted, error = pickle.loads(data)
        if error is not None:
            raise error
        parts[k::workers] = counted
    return parts


def _child(count: Callable[[int, int], Counter], shares: range, pieces: int,
           read: int, write: int) -> None:
    # the body of a forked worker: sends (counters, None) or (None, the
    # exception) and ends with os._exit, so that it never returns into the
    # parent's code nor flushes the parent's buffered streams
    import pickle
    status = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps(([count(i, pieces) for i in shares], None), -1)
        except BaseException as exc:
            try:
                payload = pickle.dumps((None, exc), -1)
                pickle.loads(payload)          # it must come back, too
            except BaseException:
                import traceback
                trace = traceback.format_exception(type(exc), exc, exc.__traceback__)
                payload = pickle.dumps(
                    (None, RuntimeError("sweep worker failed:\n" + "".join(trace))), -1)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _count(kind: str, n: int, hook: Callable[[Window], Hashable],
           share: int, shares: int) -> Counter:
    # element-wise over the share-th of `shares` equal rank ranges: the
    # oracle the block-table path is tested against
    total = group_order(kind, n)
    return Counter(map(hook, iter_group(
        kind, n, total * share // shares, total * (share + 1) // shares)))


# ---------------------------------------------------------------------------
# block tables: additive hooks counted a block at a time
# ---------------------------------------------------------------------------

def block_additive(hook: Callable[[Window], Hashable] | None = None, *,
                   groups: str = "SBD"):
    """
    Mark a sweep hook as additive in the given groups, so that :func:`sweep`
    counts it over them a block at a time: the distinct keys that a
    context's blocks give at one first suffix value are each shifted once by
    that value's key differences.  Over any other group the hook is counted
    element-wise.  Use it bare, ``@block_additive``, for S, B and D, or as
    ``@block_additive(groups="S")``.  A_n is always counted element-wise.

    The hook must return a signed monomial key (a, b, c, d, s): four
    exponents in [0, 2**15) and a parity bit.  Take two windows of a marked
    group that share a prefix of at least two positions and the first entry
    after it.  The difference of their keys (exponents subtracted, parities
    added mod 2) must not depend on that prefix, only on the two suffixes.
    It needs two prefix positions, as drops_d reads the first two entries;
    :func:`sweep` also cuts before a prefix's last entry, so needs three.
    Sums of per-position terms, adjacent-pair terms and inversion counts
    have this property, in every group: inversions between the prefix and
    the suffix change with the suffix only through its negated entries, and
    negating u changes them by the number of unused absolute values below u.
    Counts of the prefix values that lie in an interval set by the suffix
    read the prefix's set, not its order.  genpoly.mad is of this kind: a
    descent from u to v adds u - v and the number of values placed before
    v strictly between v and u.  So is the Motzkin shape's step at a suffix
    position i, which reads whether value i is an excedance value, and so
    whether it sits in the prefix.  In S_n a context fixes the prefix's set
    of values, but in B_n and D_n only their magnitudes: the signs move
    prefix values in and out of such an interval, and in and out of the
    excedance-value set, so the mad and shape hooks are marked for S alone.
    """
    if not groups or set(groups) - set("SBD"):
        raise ValueError(f"block_additive groups {groups!r}: expected letters of SBD")

    def mark(h: Callable[[Window], Hashable]) -> Callable[[Window], Hashable]:
        h.table_groups = tuple(groups)
        return h
    return mark if hook is None else mark(hook)


# Suffix length of a table block, capped at n - 3 (see block_additive).  A
# table costs a call per suffix and a prefix one call: 4 was the fastest
# suffix measured at S_8 and S_9 (S_9: 124 ms against 286 ms for 3), within
# 2 % of 3 at B_7 and D_7, and the cap, 3, is the fastest at B_6 and D_6.
_TABLE_SUFFIX = 4

# A key packs into one int, 15 bits per exponent and the parity above them.
# Adding packed differences adds exponents; the parity field adds too, and
# is read mod 2.
_BITS = 15
_FIELD = (1 << _BITS) - 1
_LOW = (1 << 4 * _BITS) - 1
_PARITY = 1 << 4 * _BITS


def _pack(key) -> int:
    a, b, c, d, s = key
    # a negative exponent or one of 2**15 or more sets bits past the field
    if (a | b | c | d) >> _BITS or s not in (0, 1):
        raise ValueError(f"block-additive hook returned {key!r}, "
                         "not a signed monomial key")
    return a | b << _BITS | c << 2 * _BITS | d << 3 * _BITS | s << 4 * _BITS


def _unpack(k: int) -> tuple[int, ...]:
    return (k & _FIELD, k >> _BITS & _FIELD, k >> 2 * _BITS & _FIELD,
            k >> 3 * _BITS & _FIELD, k >> 4 * _BITS & 1)


def _count_blocks(kind: str, n: int, hook: Callable[[Window], Hashable],
                  share: int, shares: int) -> Counter:
    # The table path of sweep over S_n, B_n or D_n, over the contexts whose
    # index is share mod shares.  A context is m unused values and, in D_n,
    # the parity the suffix must have; every prefix over the other values
    # that leaves that parity takes the same suffixes.  The first prefix's
    # block builds one row per first suffix value (see _delta_table).  Every
    # other prefix costs one call on the first row, and each other row one
    # call per last entry of a prefix (see sweep); each distinct key a row
    # gathers is shifted by each of its differences once.  Groups too small
    # for a suffix of two after a prefix of three go element-wise.
    m = min(_TABLE_SUFFIX, n - 3)
    if m < 2:
        return _count(kind, n, hook, share, shares)
    signed = kind in ("B", "D")
    outer, inner = _suffix_masks(kind, n - m), _suffix_masks(kind, m)
    contexts = itertools.product(itertools.combinations(range(1, n + 1), m),
                                 (0, 1) if kind == "D" else (0,))
    packed: dict[int, int] = {}
    get = packed.get
    for rem, parity in itertools.islice(contexts, share, None, shares):
        used = [v for v in range(1, n + 1) if v not in rem]
        first, *prefixes = itertools.compress(itertools.permutations(
            _choices(used, signed), n - m), outer[parity])
        rows = _delta_table(hook, first, itertools.compress(
            itertools.permutations(_choices(list(rem), signed), m), inner[parity]))
        (ref, key0, _), *others = rows
        # by the prefix's last entry: the keys of prefix + ref, counted, and
        # each row's offset from them
        lasts = {first[-1]: ({key0: 1}, [_diff(key, key0) for _, key, _ in rows])}
        for p in prefixes:
            key = _pack(hook(p + ref))
            last = lasts.get(p[-1])
            if last is None:
                last = lasts[p[-1]] = ({}, [0] + [_diff(_pack(hook(p + r)), key)
                                                  for r, _, _ in others])
            counted = last[0]
            counted[key] = counted.get(key, 0) + 1
        for i, (_, _, shifts) in enumerate(rows):
            bases: dict[int, int] = {}
            for counted, offsets in lasts.values():
                offset = offsets[i]
                for k, c in counted.items():
                    k += offset
                    bases[k] = bases.get(k, 0) + c
            for k0, c0 in bases.items():
                for d, c in shifts:
                    k = k0 + d
                    packed[k] = get(k, 0) + c0 * c
    counter: dict = {}
    for k, c in packed.items():
        key = _unpack(k)
        counter[key] = counter.get(key, 0) + c
    return Counter(counter)


def _diff(key: int, base: int) -> int:
    # key - base, a parity flip as a one: base + it is key, parity mod 2
    return (key & _LOW) - (base & _LOW) + ((key ^ base) & _PARITY)


def _delta_table(hook, prefix: Window, block) -> list[tuple[Window, int, list]]:
    # one row per first suffix value u: a reference suffix starting with u,
    # the packed key of prefix + reference, and the distinct packed key
    # differences from it of the suffixes starting with u (0 included),
    # counted.  The block runs in lexicographic order, so the suffixes
    # starting with u are contiguous and a row ends where suffix[0] changes.
    rows = []
    u = None
    for suffix in block:
        key = _pack(hook(prefix + suffix))
        if suffix[0] != u:
            u, base, low = suffix[0], key, key & _LOW
            diffs: dict[int, int] = {}
            rows.append((suffix, key, diffs))
        d = (key & _LOW) - low + ((key ^ base) & _PARITY)      # _diff(key, base)
        diffs[d] = diffs.get(d, 0) + 1
    return [(ref, base, list(diffs.items())) for ref, base, diffs in rows]
