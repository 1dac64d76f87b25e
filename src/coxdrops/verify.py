"""
Batch verification suites: one claim per enumerative identity, each checked
by exhaustive computation over the relevant group.

Each claim part in CLAIMS names its group, sizes, hook, route and check.
run_claim counts the hook over the group by the part's route and hands the
counter to the check.  The route "sweep" is perm_core.sweep: it splits
heavy sweeps over forked worker processes and the calling one,
block-additive hooks by table context and element-wise hooks by rank range,
and merges the partial counters in order, so the report content never
depends on the worker count.  The route "quotient" is the prefix quotient,
quotient below: one process counts S_n a deciding-prefix class at a time.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Sequence

from . import genpoly as gp
from . import perm_core as pc
from .genpoly import MultiPoly, jfraction_convergent
from .involutions import (_swap_magnitudes, _swap_positions, _toggle_a,
                          _toggle_b, fixed_points, toggle_classes)
from .laguerre import (_path_key, _round_trip, _shape, max_height,
                       motzkin_paths, path_weight)
from .perm_core import Window, format_window, group_order, sweep


@dataclass
class VerificationReport:
    claim: str
    group: str
    n: int
    status: str                  # "pass" or "fail"
    witness: str | None
    elapsed_ms: float
    count: int                   # the group order, whatever the route visits
    route: str                   # the function that counted the hook

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"elapsed_ms": round(self.elapsed_ms, 3)})


# ---------------------------------------------------------------------------
# per-element hooks
# ---------------------------------------------------------------------------
#
# Each claim part counts its group with one hook, by its route (see
# perm_core.sweep and quotient below).  A hook that checks a property
# returns, in its key, None or a witness string for an element that
# violates it; the first witness in the merged counter is then the first
# violation in rank order, or under the quotient the first failing class.
# Such hooks stay element-wise: a hook marked block-additive returns a
# signed monomial, and its counter's keys come in no set order.

def _witness(keys) -> str | None:
    return next((k for k in keys if k is not None), None)


@pc.block_additive
def trivariate_key(w: Sequence[int]) -> tuple[int, ...]:
    """The signed monomial (-1)^inv t^exc p^depth q^drops of a permutation."""
    inv, drops, depth, _, exc, _ = pc._scan(w)
    return exc, depth, drops, 0, inv % 2


@pc.block_additive
def drops_key_s(w: Sequence[int]) -> tuple[int, ...]:
    """(-1)^inv q^drops."""
    inv, drops = pc._scan(w)[:2]
    return 0, 0, drops, 0, inv % 2


@pc.block_additive
def drops_key_b(s: Sequence[int]) -> tuple[int, ...]:
    """(-1)^inv_b q^drops_b."""
    length, drops, _ = pc._scan_b(s)
    return 0, 0, drops, 0, length % 2


@pc.block_additive
def drops_key_d(s: Sequence[int]) -> tuple[int, ...]:
    """(-1)^inv_d q^drops_d."""
    if len(s) < 2:
        raise ValueError("drops_d needs n >= 2 (the prefix entry is -s_2)")
    # drops_b with the virtual entry -s_2 for 0; inv_d is inv_b - #negatives
    length, drops, negatives = pc._scan_b(s)
    return 0, 0, drops + max(-s[1] - s[0], 0) - max(-s[0], 0), 0, (length + negatives) % 2


@pc.block_additive
def _dep_inv_key(w):
    inv, _, depth = pc._scan(w)[:3]
    return 0, 0, inv, depth, 0


@pc.block_additive
def _bivariate_key(w):
    # t^exc p^depth q^drops x^des
    _, drops, depth, _, exc, des = pc._scan(w)
    return exc, depth, drops, des, 0


@pc.block_additive
def _zdrops_key(s):
    # (-1)^inv_d t^#negatives q^zdrops over all of B_n, zdrops being drops_b
    # less the virtual gap -s_1; an even count of negatives puts s in D_n
    length, drops, negatives = pc._scan_b(s)
    return negatives, 0, (drops + min(s[0], 0)) if s else 0, 0, (length - negatives) % 2


@pc.block_additive(groups="S")
def _mad_key(w):
    # (inv, drops, depth, mad) as a monomial, so S_n is counted by tables
    return pc._scan(w)[:3] + (gp.mad(w), 0)


@pc.block_additive(groups="S")
def _shape_key(w):
    # (inv, depth) and the Motzkin shape's N and S masks (see
    # laguerre._shape) as a monomial, so S_n is counted by tables; a mask of
    # n positions fits a field for n <= 14
    inv, _, depth = pc._scan(w)[:3]
    return (inv, depth) + _shape(w) + (0,)


def _fz_key(w):
    # one walk encodes w and decodes each pair as it is made; _scan stays
    # the independent source of inv, depth and iexc
    trip = _round_trip(w)
    if trip is None:
        return f"{format_window(w)}: image is not a restricted history"
    ar, nest, up, back = trip
    if back != w:
        return f"{format_window(w)}: history does not decode to it"
    inv, _, depth, iexc = pc._scan(w)[:4]
    if depth != ar:
        return f"{format_window(w)}: depth {depth} != area {ar}"
    if inv != ar + nest:
        return f"{format_window(w)}: inv {inv} != area+nest {ar + nest}"
    if iexc != up:
        return f"{format_window(w)}: iexc != #N + #dE"
    return None


# The involution hooks apply the swap found by _toggle_a/_toggle_b directly:
# stream elements are valid by construction, so nothing is re-validated.

def _shape_witness(w):
    hit = _toggle_a(w)
    if hit is None or _shape(w) == _shape(_swap_positions(w, hit[1], hit[2])):
        return None
    return f"{format_window(w)}: shape changes under the involution"


# In _invol_key_s and _invol_key_b, sign reversal and the kept statistics
# belong to a 2-cycle {w, y}: each is compared once, at its member first in
# rank order (tuple order, signed windows too), and skipped at the later one
# once the pair is shown mutual, which saves two scans per pair.  The earlier
# partner then fails any such comparison the later one would, so the first
# witness, merged in share order, is unchanged.

def _invol_key_s(w):
    # (witness or None, whether w is fixed)
    hit = _toggle_a(w)
    if hit is None:
        if len(set(pc._scan(w)[:4])) > 1:
            return f"{format_window(w)}: fixed point without inv=drops=depth=iexc", True
        return None, True
    d, ia, ib = hit
    y = _swap_positions(w, ia, ib)
    back = _toggle_a(y)
    fault = None
    if (y if back is None else _swap_positions(y, back[1], back[2])) != w:
        fault = "map is not involutive"
    elif w <= y:
        sw, sy = pc._scan(w), pc._scan(y)
        if (sw[0] - sy[0]) % 2 == 0:
            fault = "sign not reversed"
        elif sw[1:4] != sy[1:4]:
            fault = "(drops, depth, iexc) not preserved"
    a, b = w[ia], w[ib]
    if fault is None and not (a >= d + 1 and b >= d + 2):
        fault = f"transposition ({a},{b}) violates bounds at stage {d}"
    return fault and f"{format_window(w)}: {fault}", False


def _invol_key_b(s):
    # (witness or None, whether s is fixed)
    hit = _toggle_b(s)
    if hit is None:
        length, drops, _ = pc._scan_b(s)
        if length != drops:
            return f"{format_window(s)}: fixed point without inv_b = drops_b", True
        return None, True
    y = _swap_magnitudes(s, hit[1], hit[2])
    back = _toggle_b(y)
    fault = None
    if (y if back is None else _swap_magnitudes(y, back[1], back[2])) != s:
        fault = "map is not involutive"
    elif s <= y:                               # else y compared the pair
        (ls, ds, _), (ly, dy, _) = pc._scan_b(s), pc._scan_b(y)
        if (ls - ly) % 2 == 0:
            fault = "sign not reversed"
        elif ds != dy:
            fault = "drops_b not preserved"
    return fault and f"{format_window(s)}: {fault}", False


# ---------------------------------------------------------------------------
# the prefix quotient, the route beside perm_core.sweep
# ---------------------------------------------------------------------------

def quotient(kind: str, n: int, hook: Callable[[Window], Hashable],
             threads: int = 1) -> Counter:
    """
    Count hook(w) over S_n a class of involutions.toggle_classes at a time:
    the classes of windows that share a deciding prefix, on which the checks
    of _toggle_a's image are decided.  The hook is called on each class's
    first element, the ascending completion of its prefix, and its key is
    counted once per member.  On a class of more than one member the hook
    is also called on the descending completion, the class's last member,
    to guard locality: if that key differs, the hook reads past the prefix,
    and the class counts the first key for all its members but one and the
    second key for that one, so the fault shows as a real element's witness.
    Where the two keys agree on every class the Counter is the one sweep
    returns, keys in the same order.  Classes come in rank order, so the
    first witness is that of the first failing class.  The quotient counts
    in one process whatever ``threads`` is.

    >>> quotient("S", 5, _shape_witness)
    Counter({None: 120})
    """
    if kind != "S":
        raise ValueError(f"the prefix quotient covers S_n only, not {kind}_n")
    counter: Counter = Counter()
    for w, free in toggle_classes(n):
        key = hook(w)
        if free < 2:
            counter[key] += 1
            continue
        last = hook(w[:n - free] + w[n - free:][::-1])
        if last == key:
            counter[key] += math.factorial(free)
        else:
            counter[key] += math.factorial(free) - 1
            counter[last] += 1
    return counter


# ---------------------------------------------------------------------------
# swept enumerators against their closed forms
# ---------------------------------------------------------------------------

def _binomial(power: int, **monomial: int) -> MultiPoly:
    # (1 - monomial)^power, e.g. _binomial(2, t=1, p=1, q=1) = (1 - tpq)^2
    return (MultiPoly.one() - MultiPoly.term(1, **monomial)) ** power


def _swept_equals(counter: Counter, want: MultiPoly, witness: str):
    # the signed monomials of a key hook summed over the group, against want
    return None if gp.poly_from_counter(counter) == want else witness


# ---------------------------------------------------------------------------
# claim runners: each checks the counter of its part's hook, swept by
# run_claim, and returns a witness string on failure, None on success
# ---------------------------------------------------------------------------

def _run_thm13(n: int, counter: Counter):
    return _swept_equals(counter, _binomial(n - 1, t=1, p=1, q=1),
                         f"trivariate enumerator differs from (1-tpq)^{n - 1}")


def _run_cor14(n: int, counter: Counter):
    return _swept_equals(counter, _binomial(n - 1, q=1),
                         f"signed drops enumerator differs from (1-q)^{n - 1}")


def _run_typeb(n: int, counter: Counter):
    return _swept_equals(counter, _binomial(n, q=1),
                         f"type-B signed drops enumerator differs from (1-q)^{n}")


def _run_typed(n: int, counter: Counter):
    return _swept_equals(counter, _binomial(n - 1, q=1) * _binomial(1, q=3),
                         f"type-D signed drops enumerator differs from (1-q^3)(1-q)^{n - 1}")


def _run_lemma72(n: int, counter: Counter):
    sums: Counter = Counter()
    for (negatives, _, z, _, odd), c in counter.items():
        sums[negatives % 2 == 0, z] += -c if odd else c
    bad = [in_d for (in_d, _), v in sums.items() if v]
    if not bad:
        return None
    side = "D_n" if all(bad) else "B_n - D_n"
    return f"signed zdrops sum over {side} does not vanish"


def _run_thm11(n: int, counter: Counter):
    de: Counter = Counter()
    dd: Counter = Counter()
    for (exc, depth, drops, des, _), c in counter.items():
        de[depth, exc] += c
        dd[drops, des] += c
    if de == dd:
        return None
    diff = next(iter(set(de.items()) ^ set(dd.items())))
    return f"(depth, exc) vs (drops, des) multiset mismatch near {diff[0]}"


def _run_cfrac(n: int, counter: Counter):
    # the path transfer against the exhaustive sweep, not against
    # dep_inv_poly, which is a transfer too
    want = jfraction_convergent(n).coefficient(n)
    return _swept_equals(counter, want,
                         f"t^{n} coefficient of the convergent differs from the enumerator")


def _run_mad(n: int, counter: Counter):
    dm: Counter = Counter()
    di: Counter = Counter()
    for (inv, drops, depth, mad, _), c in counter.items():
        dm[drops, mad] += c
        di[depth, inv] += c
    if dm != di:
        return "(drops, mad) is not equidistributed with (depth, inv)"
    return None


def _run_weights(n: int, counter: Counter):
    if sum(counter.values()) != math.factorial(n):
        return "shape image total is not n!"
    # each shape's (depth, inv) enumerator, as x^depth q^inv monomials
    shapes: dict[tuple[int, int], Counter] = {}
    for (inv, depth, up, down, _), c in counter.items():
        shapes.setdefault((up, down), Counter())[0, 0, inv, depth, 0] += c
    paths = list(motzkin_paths(n))
    for steps in paths:
        by = shapes.get(_path_key(steps), Counter())
        if path_weight(steps) != sum(by.values()):
            return f"weight of {steps} != preimage count"
        if gp.poly_from_counter(by) != gp.per_path_enumerator(steps):
            return f"per-path enumerator mismatch on {steps}"
    low = [steps for steps in paths if max_height(steps) <= 1]
    if len(low) != 2 ** (n - 1):
        return "height<=1 path count is not 2^(n-1)"
    fixed_shapes = set(map(_shape, fixed_points("S", n)))
    if fixed_shapes != set(map(_path_key, low)):
        return "fixed points do not biject onto height<=1 paths"
    return None


def _run_shape(n: int, counter: Counter):
    return _witness(counter)


def _run_moments(n: int, counter: Counter):
    full: Counter = Counter()
    even: Counter = Counter()
    for (_, _, d, _, odd), c in counter.items():
        full[d] += c
        if not odd:
            even[d] += c
    mean_s, var_s = gp.mean_variance(full)
    if mean_s != Fraction(n * n - 1, 6):
        return f"mean over S_{n} is {mean_s}, not (n^2-1)/6"
    if n >= 2 and var_s != Fraction((n + 1) * (2 * n * n + 7), 180):
        return f"variance over S_{n} is {var_s}, not (n+1)(2n^2+7)/180"
    if n >= 4 and gp.mean_variance(even) != (mean_s, var_s):
        return f"A_{n} moments differ from S_{n}"
    return None


def _run_fz(n: int, counter: Counter):
    # each window decodes back from its history: a left inverse, so the map
    # is injective and the counter holds one key; |LH*_n| = n! makes it a
    # bijection
    bad = _witness(counter)
    if bad is not None:
        return bad
    if _history_count(n) != math.factorial(n):
        return "|LH*_n| != n!"
    return None


def _history_count(n: int) -> int:
    # restricted histories of length n: the labels each Motzkin path allows,
    # its E steps standing for both E and D
    return sum(map(path_weight, motzkin_paths(n)))


def _check_invol(counter: Counter, want: int):
    bad = _witness(k[0] for k in counter)
    if bad is not None:
        return bad
    fixed = sum(c for key, c in counter.items() if key[1])
    if fixed != want:
        return f"fixed-point count {fixed} != {want}"
    return None


def _run_invol_s(n: int, counter: Counter):
    return _check_invol(counter, 2 ** (n - 1))


def _run_invol_b(n: int, counter: Counter):
    return _check_invol(counter, 2 ** n)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimDef:
    name: str
    group: str
    default_ns: tuple[int, ...]
    hook: Callable               # counted over the group at each n
    check: Callable              # (n, counter) -> witness or None
    description: str
    route: str = "sweep"         # the verify function that counts the hook


CLAIMS: dict[str, tuple[ClaimDef, ...]] = {
    "thm1.1": (ClaimDef("thm1.1", "S", tuple(range(1, 9)), _bivariate_key, _run_thm11,
               "(depth, exc) and (drops, des) are equidistributed"),),
    "thm1.3": (ClaimDef("thm1.3", "S", tuple(range(1, 9)), trivariate_key, _run_thm13,
               "signed (exc, depth, drops) enumerator factors as (1-tpq)^(n-1)"),),
    "cor1.4": (ClaimDef("cor1.4", "S", tuple(range(1, 9)), drops_key_s, _run_cor14,
               "signed univariate drops enumerator equals (1-q)^(n-1); the "
               "excedance and depth specializations follow from thm1.3"),),
    "thm-typeB": (ClaimDef("thm-typeB", "B", tuple(range(1, 7)), drops_key_b, _run_typeb,
                  "signed type-B drops enumerator equals (1-q)^n"),),
    "thm-typeD": (ClaimDef("thm-typeD", "D", tuple(range(2, 7)), drops_key_d, _run_typed,
                  "signed type-D drops enumerator equals (1-q^3)(1-q)^(n-1)"),),
    "lemma7.2": (ClaimDef("lemma7.2", "B", tuple(range(2, 7)), _zdrops_key, _run_lemma72,
                 "signed zdrops sums over B_n - D_n and over D_n vanish"),),
    "cfrac": (ClaimDef("cfrac", "S", tuple(range(0, 9)), _dep_inv_key, _run_cfrac,
              "continued-fraction convergent matches the (depth, inv) enumerator"),),
    "mad": (ClaimDef("mad", "S", tuple(range(1, 9)), _mad_key, _run_mad,
            "(drops, mad) matches (depth, inv)"),),
    "weights": (ClaimDef("weights", "S", tuple(range(1, 9)), _shape_key, _run_weights,
                "path weights count shape preimages and per-path (depth, inv) "
                "enumerators; height<=1 structure"),),
    "shape": (ClaimDef("shape", "S", tuple(range(1, 9)), _shape_witness, _run_shape,
              "the type-A involution preserves the history shape", route="quotient"),),
    "moments": (ClaimDef("moments", "S", tuple(range(1, 9)), drops_key_s, _run_moments,
                "exact drops mean and variance over S_n; A_n moments agree for n >= 4"),),
    "fz": (ClaimDef("fz", "S", tuple(range(1, 9)), _fz_key, _run_fz,
           "history encoding: a left inverse, |LH*_n| = n!, statistics carried"),),
    "invol": (
        ClaimDef("invol", "S", tuple(range(1, 9)), _invol_key_s, _run_invol_s,
                 "type-A involution: involutive, sign-reversing, statistic-preserving",
                 route="quotient"),
        ClaimDef("invol", "B", tuple(range(1, 7)), _invol_key_b, _run_invol_b,
                 "type-B involution: involutive, sign-reversing, drops_b-preserving"),
    ),
}


def plan(names: list[str], ns: tuple[int, ...] | None = None,
         max_n: int | None = None) -> list[tuple[ClaimDef, int]]:
    """
    The (part, n) pairs a run of the named claims covers, in run order.
    Explicit ``ns`` applies to every part of every claim; otherwise each
    part takes its default sizes, capped at ``max_n``.  No part runs below
    its smallest default size.
    """
    top = max_n if ns is None and max_n is not None else math.inf
    pairs = []
    for name in names:
        if name not in CLAIMS:
            raise ValueError(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
        for part in CLAIMS[name]:
            pairs += [(part, n) for n in (part.default_ns if ns is None else ns)
                      if min(part.default_ns) <= n <= top]
    return pairs


def run_claim(name: str, ns: tuple[int, ...] | None = None, threads: int = 1,
              max_n: int | None = None) -> Iterator[VerificationReport]:
    """
    Run one claim, yielding a report per (group, n) of its :func:`plan`.
    Each part's route is looked up by name at the call, so it is whatever
    this module binds to that name then.
    """
    for part, n in plan([name], ns, max_n):
        t0 = time.perf_counter()
        route = globals()[part.route]
        witness = part.check(n, route(part.group, n, part.hook, threads))
        elapsed = (time.perf_counter() - t0) * 1000.0
        yield VerificationReport(
            claim=name, group=part.group, n=n,
            status="fail" if witness else "pass", witness=witness,
            elapsed_ms=elapsed, count=group_order(part.group, n), route=part.route)
