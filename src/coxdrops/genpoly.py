"""
Exact sparse polynomials in (t, p, q, x), the signed and unsigned statistic
enumerators, summed by a transfer over subset states rather than over the
elements of a group, and the continued-fraction convergent.

Coefficients are Python ints (arbitrary precision); every identity here is
an exact equality of coefficient dictionaries, never a numeric comparison.
Inside the transfer a state's q-polynomial is one int whose balanced
base-2^w digits are its coefficients, with w wide enough for any of them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from . import perm_core as pc
from .perm_core import _BITS, _unpack
from .laguerre import STEPS_MOTZKIN, _path_heights

VARS = ("t", "p", "q", "x")
Expo = tuple[int, int, int, int]

_ZERO: Expo = (0, 0, 0, 0)


class MultiPoly:
    """
    Sparse polynomial in the fixed variables t, p, q, x with integer
    coefficients; exponent vectors are 4-tuples and zero coefficients are
    never stored.

    >>> (MultiPoly.one() - MultiPoly.term(1, q=1)) ** 2
    MultiPoly('1 - 2*q + q^2')
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Expo, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({_ZERO: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({_ZERO: c})

    @classmethod
    def term(cls, coeff: int, t: int = 0, p: int = 0, q: int = 0, x: int = 0) -> "MultiPoly":
        return cls({(t, p, q, x): coeff})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return _sum_terms(itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "MultiPoly":
        res = MultiPoly()
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return _sum_terms(
            ((e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ------------------------------------------------------------

    def substitute(self, **values: int) -> "MultiPoly":
        """Set some of t, p, q, x to integer values, e.g. ``f.substitute(p=1)``."""
        for name in values:
            if name not in VARS:
                raise ValueError(f"unknown variable {name!r}")
        return _sum_terms(
            (tuple(0 if v in values else k for v, k in zip(VARS, e)),
             c * math.prod(values[v] ** k for v, k in zip(VARS, e) if v in values))
            for e, c in self.terms.items())

    def coefficient(self, t: int = 0, p: int = 0, q: int = 0, x: int = 0) -> int:
        return self.terms.get((t, p, q, x), 0)

    def univariate(self, var: str) -> dict[int, int]:
        """Exponent -> coefficient map, requiring all other variables absent."""
        i = VARS.index(var)
        out = {}
        for e, c in self.terms.items():
            if any(e[j] for j in range(4) if j != i):
                raise ValueError(f"polynomial is not univariate in {var}")
            out[e[i]] = c
        return out

    # -- rendering ----------------------------------------------------------

    def pretty(self) -> str:
        """
        Human-readable form with terms in sorted exponent order.

        >>> signed_trivariate(2).pretty()
        '1 - t*p*q'
        """
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(VARS, e) if k)
            if mono:
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits)

    def to_json_obj(self) -> list[dict]:
        return [{"exponents": list(e), "coeff": str(c)}
                for e, c in sorted(self.terms.items())]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def __repr__(self) -> str:
        return f"MultiPoly({self.pretty()!r})"


def poly_from_counter(counts: Counter) -> MultiPoly:
    """
    Build a polynomial from an accumulation Counter whose keys are signed
    monomials (a, b, c, d, s), each standing for (-1)^s t^a p^b q^c x^d.
    """
    return _sum_terms((key[:4], -c if key[4] else c) for key, c in counts.items())


def _sum_terms(pairs) -> MultiPoly:
    # the one accumulator: (exponent tuple, coefficient) pairs added up and
    # no zero kept; most sums cancel none, so only those that do are copied
    out: dict[Expo, int] = {}
    get = out.get
    for e, c in pairs:
        out[e] = get(e, 0) + c
    res = MultiPoly()
    res.terms = {e: c for e, c in out.items() if c} if 0 in out.values() else out
    return res


def q_integer(k: int) -> MultiPoly:
    """
    The q-integer 1 + q + ... + q^(k-1); zero when k = 0.

    >>> q_integer(3).pretty()
    '1 + q + q^2'
    """
    if k < 0:
        raise ValueError("q_integer needs k >= 0")
    return MultiPoly({(0, 0, j, 0): 1 for j in range(k)})


# ---------------------------------------------------------------------------
# enumerators over full groups: the subset transfer
# ---------------------------------------------------------------------------
#
# An enumerator is a transfer over the subset states of Held and Karp
# (Stanley, EC I, section 4.7): windows grow left to right, and a prefix
# affects the rest of its signed monomial only through the magnitudes it
# uses, its last entry and, in D_n, the parity of its negatives.  The tests
# hold each transfer to an element-wise count of one of verify's key hooks.

# What placing entry v at position i after the entry prev adds to the
# signed monomial (a, b, c, d, s) of poly_from_counter, where `used` has bit
# |u| set for each entry u placed before v and `above` counts those with
# |u| > |v|.  A window starts after the virtual entry 0, drops_b's prefix.
# (-1)^inv_b is the sign of |s| times (-1)^#negatives, (-1)^inv_d the sign
# of |s|, and drops_d's virtual entry -s_2 is charged when s_2 is placed.
# mad is step-local too (see mad): a descent from prev to v adds prev - v
# and the used values strictly between v and prev.
_STEPS = {
    "trivariate": lambda i, prev, v, above, used: (
        v > i, max(v - i, 0), max(prev - v, 0), 0, above),
    "S": lambda i, prev, v, above, used: (0, 0, max(prev - v, 0), 0, above),
    "B": lambda i, prev, v, above, used: (0, 0, max(prev - v, 0), 0, above + (v < 0)),
    "D": lambda i, prev, v, above, used: (
        0, 0, (i > 1) * max(prev - v, 0) + (i == 2) * max(-v - prev, 0), 0, above),
    "unsigned": lambda i, prev, v, above, used: (0, 0, max(prev - v, 0), 0, 0),
    "dep-inv": lambda i, prev, v, above, used: (0, 0, above, max(v - i, 0), 0),
    "drops-mad": lambda i, prev, v, above, used: (0, 0, 0, 0, 0) if prev < v else (
        0, 0, prev - v + (used >> v + 1 & (1 << prev - v - 1) - 1).bit_count(), prev - v, 0),
}

def transitions(kind: str, n: int) -> int:
    """
    An upper bound on the steps of a transfer, the budget's measure: 2^n n
    states times n steps out of each, with both signs of a magnitude
    counted in B_n and D_n.  A step places an unused entry only, so the
    transfer makes about a quarter of these (9,225 at S_9, 5,390 at B_7).

    >>> transitions("S", 9), transitions("B", 7)
    (41472, 25088)
    """
    pc.check_group(kind, n)
    return (2 * n if kind in ("B", "D") else n) ** 2 << n


def _digits(packed: int, w: int) -> dict[int, int]:
    # the exponent -> coefficient map of an int whose base-2^w digits are
    # balanced: a digit of 2^(w-1) or more stands for a negative coefficient
    out, half, e = {}, 1 << w - 1, 0
    while packed:
        c = (packed + half & (1 << w) - 1) - half
        if c:
            out[e] = c
        packed, e = packed - c >> w, e + 1
    return out


def _transfer(kind: str, n: int, stat: str, last: bool = True) -> MultiPoly:
    # the sum over the group of the signed monomials _STEPS[stat] builds,
    # with the sign netted into the coefficients and no zero kept; a step
    # that never reads prev passes last=False.  Each level is emptied as
    # the next one fills.  A state maps its (t, p, x) exponents, packed as
    # perm_core packs keys, to one int whose base-2^w digits are the
    # q-coefficients (Kronecker substitution), so a step adds c << q*w for
    # each key.  A coefficient counts at most the prefixes that reach its
    # state, fewer than 2^(w-1), so the digits never overlap.
    pc.check_group(kind, n)
    step = _STEPS[stat]
    signed = kind in ("B", "D")
    w = pc.group_order("B" if signed else "S", n).bit_length() + 1
    entries = [v for a in range(1, n + 1) for v in ((-a, a) if signed else (a,))]
    level = {(0, 0, 0): {0: 1}}                # (used bits, last entry, odd negatives)
    for i in range(1, n + 1):
        nxt: dict[tuple, dict[int, int]] = {}
        while level:
            (used, prev, odd), poly = level.popitem()
            for v in entries:
                if used >> abs(v) & 1:
                    continue
                t, p, q, x, s = step(i, prev, v, (used >> abs(v)).bit_count(), used)
                shift = t | p << _BITS | x << 3 * _BITS
                qw = q * w
                out = nxt.setdefault((used | 1 << abs(v), v if last else 0,
                                      odd ^ (v < 0) if kind == "D" else 0), {})
                get = out.get
                for e, c in poly.items():
                    e += shift
                    c = get(e, 0) + (-c << qw if s & 1 else c << qw)
                    if c:
                        out[e] = c
                    else:                      # most signed terms cancel
                        del out[e]
        level = nxt
    total: Counter = Counter()
    for (_, _, odd), poly in level.items():
        if not odd:                            # D_n keeps even negatives
            total.update(poly)
    out = MultiPoly()
    for e, packed in total.items():
        t, p, _, x, _ = _unpack(e)
        out.terms.update(((t, p, q, x), c) for q, c in _digits(packed, w).items())
    return out


def signed_trivariate(n: int) -> MultiPoly:
    """
    Sum over S_n of (-1)^inv t^exc p^depth q^drops, which factors as
    (1 - t p q)^(n-1).

    >>> signed_trivariate(2).pretty()
    '1 - t*p*q'
    """
    return _transfer("S", n, "trivariate")


def signed_drops(kind: str, n: int) -> MultiPoly:
    """
    The signed univariate drops enumerator of a group, using its own length
    statistic: sum of (-1)^inv q^drops over S_n, (-1)^inv_b q^drops_b over
    B_n, or (-1)^inv_d q^drops_d over D_n.  Equals (1-q)^(n-1), (1-q)^n and
    (1-q^3)(1-q)^(n-1) respectively.
    """
    if kind not in ("S", "B", "D"):
        raise ValueError("signed_drops kinds: 'S', 'B', 'D'")
    return _transfer(kind, n, kind)


def drops_poly(kind: str, n: int) -> MultiPoly:
    """
    Unsigned drops enumerator over S_n or the even subgroup A_n, which is
    half the sum of the unsigned and the signed enumerators over S_n.
    """
    if kind not in ("S", "A"):
        raise ValueError("drops_poly kinds: 'S', 'A'")
    poly = _transfer("S", n, "unsigned")
    if kind == "A":
        both = poly + _transfer("S", n, "S")
        poly = MultiPoly({e: c // 2 for e, c in both.terms.items()})
    return poly


def dep_inv_poly(n: int) -> MultiPoly:
    """
    Sum over S_n of x^depth q^inv; the empty product gives 1 at n = 0.

    >>> dep_inv_poly(3).pretty()
    '1 + 2*q*x + 2*q^2*x^2 + q^3*x^2'
    """
    return _transfer("S", n, "dep-inv", last=False)


# ---------------------------------------------------------------------------
# Motzkin-path weights and the continued-fraction convergent
# ---------------------------------------------------------------------------

def _step_weight(step: str, h: int) -> MultiPoly:
    # a Motzkin step at pre-step height h weighs x^h q^h times [h+1]_q (N),
    # [h]_q (S) or [h]_q + [h+1]_q (E)
    if step == "N":
        f = q_integer(h + 1)
    elif step == "S":
        f = q_integer(h)
    else:
        f = q_integer(h) + q_integer(h + 1)
    return MultiPoly.term(1, x=h, q=h) * f


class TruncatedSeries:
    """
    Power series in t truncated at order N; the coefficient of t^k is a
    MultiPoly (in practice a polynomial in x and q).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[MultiPoly] | None = None):
        self.order = order
        self.coeffs = [MultiPoly.zero() for _ in range(order + 1)]
        if coeffs is not None:
            for i, c in enumerate(coeffs[:order + 1]):
                self.coeffs[i] = c

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        s = cls(order)
        s.coeffs[0] = MultiPoly.one()
        return s

    def coefficient(self, k: int) -> MultiPoly:
        if not 0 <= k <= self.order:
            raise ValueError(f"order-{self.order} series has no t^{k} coefficient")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncatedSeries) and self.order == other.order
                and self.coeffs == other.coeffs)


def jfraction_convergent(order: int) -> TruncatedSeries:
    """
    The J-fraction 1 / (1 - c_0 t - b_1 t^2 / (1 - c_1 t - ...)) with
    c_k = x^k q^k ([k]_q + [k+1]_q) and b_m = x^(2m-1) q^(2m-1) [m]_q^2,
    truncated at t^order.  By Flajolet's path expansion the coefficient of
    t^n is the sum of per_path_enumerator over the Motzkin paths of length
    n, which is the (depth, inv) enumerator of S_n.  That sum is one
    transfer over (length, height), not a bottom-up evaluation: a vector
    indexed by height, capped at min(k, order - k) since a path must come
    back down, is pushed one step at a time and read at height 0.

    >>> jfraction_convergent(2).coefficient(2).pretty()
    '1 + q*x'
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    weights = [[_step_weight(s, h) for s in "NES"] for h in range(order // 2 + 1)]
    series = TruncatedSeries.one(order)
    row = [MultiPoly.one()]                    # length 0: the empty path
    for k in range(1, order + 1):
        cap = min(k, order - k)
        nxt = [MultiPoly.zero() for _ in range(cap + 1)]
        for h, f in enumerate(row):
            up, across, down = weights[h]
            if h < cap:
                nxt[h + 1] = nxt[h + 1] + f * up
            if h <= cap:
                nxt[h] = nxt[h] + f * across
            if h:
                nxt[h - 1] = nxt[h - 1] + f * down
        row = nxt
        series.coeffs[k] = row[0]
    return series


# ---------------------------------------------------------------------------
# the MAD statistic
# ---------------------------------------------------------------------------

def mad(p: Sequence[int]) -> int:
    """
    The Mahonian statistic drops + total right-embracing count.  A letter is
    right-embraced by each descent block (maximal strictly decreasing run)
    of two or more letters strictly to its right whose first letter exceeds
    it and whose last letter is below it.

    >>> mad((2, 3, 1))
    3
    """
    # One left-to-right walk: a descent from prev to v adds prev - v to the
    # drops and embraces each placed value strictly between v and prev,
    # since the block's own letters so far are all >= prev.  `seen` has bit
    # u + n for each placed value u, so that signed windows work too, and
    # prev starts below every entry.
    n = len(p)
    total, seen, prev = 0, 0, -n - 1
    for v in p:
        if prev > v:
            total += prev - v + (seen >> v + n + 1 & (1 << prev - v - 1) - 1).bit_count()
        seen |= 1 << v + n
        prev = v
    return total


def drops_mad_poly(n: int) -> MultiPoly:
    """
    Sum over S_n of x^drops q^mad; equidistributed with (depth, inv).  A
    transfer, since mad is step-local given the set of values placed.
    """
    return _transfer("S", n, "drops-mad")


# ---------------------------------------------------------------------------
# per-path enumerators
# ---------------------------------------------------------------------------

def per_path_enumerator(steps: str) -> MultiPoly:
    """
    The (depth, inv) enumerator of the permutations whose Motzkin shape is
    this path: the product over steps at pre-step height h of
    x^h q^h [h+1]_q (N), x^h q^h [h]_q (S), x^h q^h ([h]_q + [h+1]_q) (E).

    >>> per_path_enumerator("NES").pretty()
    '2*q^2*x^2 + q^3*x^2'
    """
    hs = _path_heights(steps, STEPS_MOTZKIN)
    if hs is None:
        raise ValueError(f"{steps!r} is not a Motzkin path")
    out = MultiPoly.one()
    for s, h in zip(steps, hs):
        out = out * _step_weight(s, h)
    return out


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def drops_moments(kind: str, n: int) -> tuple[Fraction, Fraction]:
    """
    Exact mean and variance of drops under the uniform distribution on S_n
    or A_n, computed from the drops generating polynomial (a transfer, see
    :func:`drops_poly`).

    >>> drops_moments("S", 3)
    (Fraction(4, 3), Fraction(5, 9))
    """
    return mean_variance(drops_poly(kind, n).univariate("q"))


def mean_variance(dist: dict[int, int]) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of a distribution given as value -> count."""
    total = sum(dist.values())
    mean = Fraction(sum(k * c for k, c in dist.items()), total)
    second = Fraction(sum(k * k * c for k, c in dist.items()), total)
    return mean, second - mean * mean
