"""
Block-table counting of additive sweep hooks.

A hook marked with :func:`block_additive` returns a signed monomial key,
and perm_core.sweep counts it through :func:`count_blocks`, which calls the
hook once per first suffix value of each block of the lexicographic stream
and takes the rest of the block from a table of key differences.  Keys are
packed into single ints while they are counted.  The element-wise
perm_core._count stays the oracle the tables are tested against.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from typing import Callable, Hashable

from . import perm_core as pc
from .perm_core import Window


def block_additive(hook: Callable[[Window], Hashable]) -> Callable[[Window], Hashable]:
    """
    Mark a sweep hook as additive, so that :func:`perm_core.sweep` counts
    it a block at a time, with :func:`count_blocks`.

    The hook must return a signed monomial key (a, b, c, d, s): four
    exponents in [0, 2**15) and a parity bit.  Take two windows that share
    a prefix of at least two positions and the first entry after it.  The
    difference of their keys (exponents subtracted, parities added mod 2)
    must not depend on that prefix, only on the two suffixes.  Sums of
    per-position terms, adjacent-pair terms and inversion counts have this
    property, in every group: inversions between the prefix and the suffix
    change with the suffix only through its negated entries, and negating
    u changes them by the number of unused absolute values below u.
    """
    hook.sweep_count = count_blocks
    return hook


# Suffix length of a table block: the most positions whose tables pay for
# themselves at n = 9 (S, A) and n = 7 (B, D), where building a table for
# every unused set costs about as many hook calls as the blocks do.
_TABLE_SUFFIX = {"S": 5, "A": 5, "B": 4, "D": 4}

# A key packs into one int, 15 bits per exponent and the parity above them.
# Adding packed differences adds exponents; the parity field adds too, and
# is read mod 2.
_BITS = 15
_FIELD = (1 << _BITS) - 1
_LOW = (1 << 4 * _BITS) - 1
_PARITY = 1 << 4 * _BITS


def _pack(key) -> int:
    a, b, c, d, s = key
    if not (0 <= a <= _FIELD and 0 <= b <= _FIELD and 0 <= c <= _FIELD
            and 0 <= d <= _FIELD and s in (0, 1)):
        raise ValueError(f"block-additive hook returned {key!r}, "
                         "not a signed monomial key")
    return a | b << _BITS | c << 2 * _BITS | d << 3 * _BITS | s << 4 * _BITS


def _unpack(k: int) -> tuple[int, ...]:
    return (k & _FIELD, k >> _BITS & _FIELD, k >> 2 * _BITS & _FIELD,
            k >> 3 * _BITS & _FIELD, k >> 4 * _BITS & 1)


def count_blocks(kind: str, n: int, hook: Callable[[Window], Hashable],
                 start: int, stop: int) -> Counter:
    """
    Count hook(w) over the rank range [start, stop) of the group, a block
    at a time; the block-table path of :func:`perm_core.sweep`.

    A block is a prefix P followed by the arrangements of the unused values
    (of the parity that completes an even window in A_n and D_n).  For each
    context, the unused values and that parity, one block is swept
    element-wise, and its keys become a table per first suffix value u: a
    reference suffix starting with u, and the distinct key differences of
    the suffixes starting with u, with their counts.  Every block of that
    context is then counted by one hook call on P + reference per u, that
    key shifted by each difference.  Blocks cut by the rank range, and
    groups too small for a suffix of two positions after a prefix of two,
    go element-wise.
    """
    m = min(_TABLE_SUFFIX[kind], n - 2)
    if m < 2:
        return pc._count(kind, n, hook, start, stop)
    size = pc._place(kind, n, n - m - 1)
    first, last = -(-start // size), stop // size
    if first >= last:
        return pc._count(kind, n, hook, start, stop)
    signed = kind in ("B", "D")
    masks = pc._suffix_masks(kind, m)
    tables: dict[tuple, tuple] = {}
    packed: Counter = Counter()
    for b in range(first, last):
        prefix, rem, parity = pc._prefix(kind, n, b * size, n - m)
        # S_n and B_n blocks take the same suffixes at either parity
        context = (*rem, masks[parity])
        table = tables.get(context)
        if table is None:
            table = tables[context] = _delta_table(
                hook, prefix, pc._choices(rem, signed), masks[parity], m)
        rows, diffs, counts = table
        shifts = zip(diffs, counts)
        for ref, width in rows:
            k0 = _pack(hook(prefix + ref))
            for d, c in itertools.islice(shifts, width):
                packed[k0 + d] += c
    counter = pc._count(kind, n, hook, start, first * size)
    for k, c in packed.items():
        counter[_unpack(k)] += c
    counter.update(pc._count(kind, n, hook, last * size, stop))
    return counter


def _delta_table(hook, prefix: Window, choices: list[int], mask: bytes,
                 m: int) -> tuple[list[tuple[Window, int]], memoryview, memoryview]:
    # one row per first suffix value: its reference suffix and the number
    # of distinct packed differences from the reference key (a parity flip
    # adds one to the parity field); the rows' differences, then their
    # counts, follow each other in two int64 sequences
    firsts: dict[int, tuple] = {}
    for suffix in itertools.compress(itertools.permutations(choices, m), mask):
        key = _pack(hook(prefix + suffix))
        if suffix[0] not in firsts:
            firsts[suffix[0]] = (suffix, key, Counter())
        ref, base, diffs = firsts[suffix[0]]
        diffs[(key & _LOW) - (base & _LOW) + ((key ^ base) & _PARITY)] += 1
    tallies = [diffs for _, _, diffs in firsts.values()]
    return ([(ref, len(diffs)) for ref, _, diffs in firsts.values()],
            _int64s(itertools.chain(*tallies)),
            _int64s(itertools.chain(*(t.values() for t in tallies))))


def _int64s(values) -> memoryview:
    # 8 bytes an entry, without the array extension module, whose import
    # alone keeps about 260 KiB more of every process resident
    return memoryview(b"".join(
        v.to_bytes(8, sys.byteorder, signed=True) for v in values)).cast("q")
