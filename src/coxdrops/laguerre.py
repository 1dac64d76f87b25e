"""
Restricted Laguerre histories, 2-Motzkin and Motzkin paths, and the
classical Foata-Zeilberger encoding of permutations.

Paths are strings over the step alphabet ``N S E D``, where ``D`` is the
dotted-east step of a 2-Motzkin path; plain Motzkin paths use only
``N S E``.  The height ``h_i`` of step i is the pre-step height: the number
of N steps minus the number of S steps strictly before i.  A path must stay
at height >= 0 and return to 0.

`fz_history` and `from_history` are the encoding and its inverse; the
private `_round_trip` fuses the two into one walk for the `fz` check and is
held to them by the tests.

>>> fz_history((4, 3, 2, 1))
LaguerreHistory(steps='NNSS', labels=(0, 1, 1, 0))
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .perm_core import Window, validate_permutation

STEPS_2MOTZKIN = "NSED"
STEPS_MOTZKIN = "NSE"


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def heights(steps: str) -> tuple[int, ...]:
    """Pre-step heights h_1..h_n."""
    out = []
    h = 0
    for s in steps:
        out.append(h)
        if s == "N":
            h += 1
        elif s == "S":
            h -= 1
    return tuple(out)


def _path_heights(steps: str, alphabet: str = STEPS_2MOTZKIN) -> tuple[int, ...] | None:
    # the pre-step heights of a valid path, else None.  A path starts at 0,
    # so known letters, no negative pre-step height and a final height of 0
    # (as many S steps as N steps) make it valid.
    hs = heights(steps)
    if (all(s in alphabet for s in steps) and min(hs, default=0) >= 0
            and steps.count("N") == steps.count("S")):
        return hs
    return None


def is_valid_path(steps: str, alphabet: str = STEPS_2MOTZKIN) -> bool:
    """Nonnegative heights throughout, final height zero, known letters."""
    return _path_heights(steps, alphabet) is not None


def _require_path(steps: str, alphabet: str = STEPS_2MOTZKIN) -> tuple[int, ...]:
    hs = _path_heights(steps, alphabet)
    if hs is None:
        raise ValueError(f"{steps!r} is not a valid path over {alphabet!r}")
    return hs


def area(steps: str) -> int:
    """
    Sum of the pre-step heights; equals depth of every permutation whose
    history has this shape.

    >>> area("NNSS")
    4
    """
    return sum(_require_path(steps))


def max_height(steps: str) -> int:
    """Largest height reached after any step."""
    # on a valid path the after-step heights are the pre-step ones past the
    # first, which is 0, and a final 0
    return max(_require_path(steps), default=0)


def motzkin_paths(n: int) -> Iterator[str]:
    """All Motzkin paths of length n (alphabet N S E)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc: list[str] = []

    def rec(k: int, h: int) -> Iterator[str]:
        if h > n - k:
            return
        if k == n:
            yield "".join(acc)
            return
        for s in STEPS_MOTZKIN:
            if s == "S" and h == 0:
                continue
            acc.append(s)
            yield from rec(k + 1, h + (s == "N") - (s == "S"))
            acc.pop()

    return rec(0, 0)


def motzkin_number(n: int) -> int:
    """
    The number of Motzkin paths of length n, by the recurrence
    (k + 2) M_k = (2k + 1) M_(k-1) + 3(k - 1) M_(k-2).

    >>> [motzkin_number(n) for n in range(8)]
    [1, 1, 2, 4, 9, 21, 51, 127]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    before, count = 1, 1
    for k in range(2, n + 1):
        before, count = count, ((2 * k + 1) * count + 3 * (k - 1) * before) // (k + 2)
    return count


# ---------------------------------------------------------------------------
# restricted Laguerre histories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaguerreHistory:
    """A 2-Motzkin path together with a label under each step."""
    steps: str
    labels: tuple[int, ...]

    def is_valid(self) -> bool:
        hs = _path_heights(self.steps)
        if hs is None or len(self.steps) != len(self.labels):
            return False
        for s, h, p in zip(self.steps, hs, self.labels):
            cap = h if s in "NE" else h - 1
            if not 0 <= p <= cap:
                return False
        return True

    @property
    def shape(self) -> str:
        """The underlying Motzkin path: D steps relabelled E."""
        return self.steps.replace("D", "E")

    def to_json(self) -> str:
        return json.dumps({"steps": self.steps, "labels": list(self.labels)})


# ---------------------------------------------------------------------------
# the permutation encoding
# ---------------------------------------------------------------------------

def nest(p: Sequence[int]) -> int:
    """
    Total nesting: the number of pairs of positions (i, j) with
    j < i < p(i) < p(j) or p(j) < p(i) <= i < j, where the arc of the cycle
    diagram at j strictly encloses the arc at i.  The count at i is the
    history label at i, so one pass gives the sum.
    """
    return sum(_history(validate_permutation(p)).labels)


def fz_history(p: Sequence[int]) -> LaguerreHistory:
    """
    The Foata-Zeilberger encoding: step i is determined by the cyclic class
    of i, the label is the nesting count at i.  A bijection from S_n onto
    the restricted Laguerre histories of length n; the area of the shape is
    depth(p), area plus total nesting is inv(p).

    >>> fz_history((2, 1))
    LaguerreHistory(steps='NS', labels=(0, 0))
    """
    return _history(validate_permutation(p))


def _history(p: Window) -> LaguerreHistory:
    # One pass with a bitmask of the values placed so far.  Value i sits
    # left of position i (p^{-1}(i) < i) when its bit is set, and `left`
    # counts the larger values to the left of p_i.  By the nesting condition
    # (see nest), the label at an excedance is `left`, and elsewhere it is
    # the count of smaller values to the right, (p_i - 1) - (i - 1 - left).
    seen = 0
    steps = []
    labels = []
    for i, v in enumerate(p, 1):
        left = (seen >> v).bit_count()
        back = seen >> i & 1
        seen |= 1 << v
        steps.append("NE"[back] if v > i else "E" if v == i else "DS"[back])
        labels.append(left if v > i else left + v - i)
    return LaguerreHistory("".join(steps), tuple(labels))


def from_history(steps: str, labels: Sequence[int]) -> Window:
    """
    The inverse of :func:`fz_history`: the permutation whose history is
    (steps, labels).  Raises ValueError on a history that is not restricted.

    >>> from_history("NNSS", (0, 1, 1, 0))
    (4, 3, 2, 1)
    """
    decoded = _decode(steps, tuple(labels))
    if decoded is None:
        raise ValueError(f"not a restricted Laguerre history: {steps!r} {labels}")
    return decoded[1]


def _decode(steps: str, labels: tuple[int, ...]) -> tuple[int, Window] | None:
    # One insertion walk: None unless the history is restricted, else its
    # area and window.  Before step i, `positions` holds the open positions
    # (value >= i still to come) by increasing future value and `values`
    # the open values (position still to come) in increasing order.
    p = [0] * len(steps)
    positions, values, ar = [], [], 0
    for i, (s, k) in enumerate(zip(steps, labels)):
        h = len(values)
        if s not in STEPS_2MOTZKIN or not 0 <= k <= h - (s in "SD"):
            return None
        ar += h
        if s == "N":
            positions.insert(len(positions) - k, i)
            values.append(i + 1)
        elif s == "S":
            p[positions.pop(0)] = i + 1
            p[i] = values.pop(k)
        elif s == "D":
            p[i] = values.pop(k)
            values.append(i + 1)
        elif k == h:                             # E at full height: p_i = i
            p[i] = i + 1
        else:
            p[positions.pop(0)] = i + 1
            positions.insert(len(positions) - k, i)
    return None if values or len(steps) != len(labels) else (ar, tuple(p))


def _round_trip(p: Sequence[int]) -> tuple[int, int, int, Window] | None:
    # _history and _decode fused into one walk, for the fz check: each
    # (step, label) pair is computed as _history computes it, with the step
    # coded N 0, E 1, D 2, S 3, and fed straight to _decode's insertion
    # state (here with 1-based positions).  The decoder half reads only the
    # pair and its own state, never `seen`, `left` or p, so a decoded window
    # equal to p is a genuine left inverse.  Returns (area, nest, #N + #D,
    # decoded window), or None where _decode rejects the history.
    out = [0] * (len(p) + 1)
    positions, values = [], []
    seen = ar = nest = up = 0
    for i, v in enumerate(p, 1):
        left = (seen >> v).bit_count()
        back = seen >> i & 1
        seen |= 1 << v
        if v > i:
            s, k = back, left
        else:
            s, k = 1 if v == i else 2 + back, left + v - i
        h = len(values)
        if not 0 <= k <= h - (s >> 1):
            return None
        ar += h
        nest += k
        if s == 0:
            positions.insert(len(positions) - k, i)
            values.append(i)
            up += 1
        elif s == 3:
            out[positions.pop(0)] = i
            out[i] = values.pop(k)
        elif s == 2:
            out[i] = values.pop(k)
            values.append(i)
            up += 1
        elif k == h:                             # E at full height: p_i = i
            out[i] = i
        else:
            out[positions.pop(0)] = i
            positions.insert(len(positions) - k, i)
    return None if values else (ar, nest, up, tuple(out[1:]))


def motzkin_shape(p: Sequence[int]) -> str:
    """
    The Motzkin path under the permutation: the history's shape with E and
    D merged.  Surjective onto the Motzkin paths but not injective.

    >>> motzkin_shape((3, 1, 2))
    'NES'
    """
    up, down = _shape(validate_permutation(p))
    return "".join("N" if up >> i & 1 else "S" if down >> i & 1 else "E"
                   for i in range(1, len(p) + 1))


def _shape(p: Window) -> tuple[int, int]:
    # The shape's N and S steps as bit masks over positions 1..n.  Step i
    # is N or E at an excedance p_i > i and D, E or S elsewhere, and takes
    # the second kind of its pair exactly when i is an excedance value, so
    # with `pos` the excedance positions and `val` the excedance values,
    # N = pos - val and S = val - pos (a fixed point lies in neither).
    pos = val = 0
    for i, v in enumerate(p, 1):
        if v > i:
            pos |= 1 << i
            val |= 1 << v
    return pos & ~val, val & ~pos


def _path_key(steps: str) -> tuple[int, int]:
    # a path's N and S masks, as _shape gives them
    return (sum(1 << i for i, s in enumerate(steps, 1) if s == "N"),
            sum(1 << i for i, s in enumerate(steps, 1) if s == "S"))


def path_weight(steps: str) -> int:
    """
    Number of permutations whose Motzkin shape is this path: the product
    over steps of (h+1) for N, h for S and 2h+1 for E at pre-step height h
    (the count of admissible labels, with E counting both merged kinds).

    >>> path_weight("NES")
    3
    """
    w = 1
    for s, h in zip(steps, _require_path(steps, STEPS_MOTZKIN)):
        w *= h + 1 if s == "N" else h if s == "S" else 2 * h + 1
    return w
