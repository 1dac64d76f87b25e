"""
Batch verification suites: one claim per enumerative identity, each checked
by exhaustive computation over the relevant group.

Every sweep goes through perm_core.sweep, which splits heavy ones into
disjoint rank ranges for a process pool and merges the partial counters in
rank order, so the report content never depends on the worker count.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import genpoly as gp
from . import perm_core as pc
from .additive import block_additive
from .genpoly import MultiPoly, jfraction_convergent
from .involutions import (_swap_magnitudes, _swap_positions, _toggle_a,
                          _toggle_b, fixed_points)
from .laguerre import (_decode, _history, _shape, max_height, motzkin_paths,
                       path_weight)
from .perm_core import format_window, group_order, sweep


@dataclass
class VerificationReport:
    claim: str
    group: str
    n: int
    status: str                  # "pass" or "fail"
    witness: str | None
    elapsed_ms: float
    count: int

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps({
            "claim": self.claim, "group": self.group, "n": self.n,
            "status": self.status, "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3), "count": self.count,
        })


# ---------------------------------------------------------------------------
# per-element hooks
# ---------------------------------------------------------------------------
#
# Each claim sweeps its group with one hook (see perm_core.sweep).  A hook
# that checks a property returns, in its key, None or a witness string for
# an element that violates it; the first witness in the merged counter is
# then the first violation in rank order.  Such hooks stay element-wise: a
# hook marked block-additive returns a signed monomial, and its counter's
# keys come in no set order.

def _witness(keys) -> str | None:
    return next((k for k in keys if k is not None), None)


@block_additive
def _bivariate_key(w):
    # t^exc p^depth q^drops x^des
    _, drops, depth, _, exc, des = pc._scan(w)
    return exc, depth, drops, des, 0


@block_additive
def _zdrops_key(s):
    # (-1)^inv_d t^#negatives q^zdrops over all of B_n; an even count of
    # negatives puts s in D_n
    return len(pc.negs(s)), 0, pc.zdrops(s), 0, pc.inv_d(s) % 2


def _mad_key(w):
    return pc._scan(w)[:3] + (gp.mad(w),)


def _mad_path_key(w):
    return _mad_key(w) + (_shape(w),)


def _fz_key(w):
    h = _history(w)
    decoded = _decode(h.steps, h.labels)
    if decoded is None:
        return f"{format_window(w)}: image is not a restricted history"
    ar, back = decoded
    if back != w:
        return f"{format_window(w)}: history does not decode to it"
    inv, _, depth, iexc = pc._scan(w)[:4]
    if depth != ar:
        return f"{format_window(w)}: depth {depth} != area {ar}"
    if inv != ar + sum(h.labels):
        return f"{format_window(w)}: inv {inv} != area+nest {ar + sum(h.labels)}"
    if iexc != h.steps.count("N") + h.steps.count("D"):
        return f"{format_window(w)}: iexc != #N + #dE"
    return None


# The involution hooks apply the swap found by _toggle_a/_toggle_b directly:
# stream elements are valid by construction, so nothing is re-validated.

def _image(w, hit, swap):
    return w if hit is None else swap(w, hit[1], hit[2])


def _shape_witness(w):
    y = _image(w, _toggle_a(w), _swap_positions)
    if _shape(w) != _shape(y):
        return f"{format_window(w)}: shape changes under the involution"
    return None


def _invol_key_s(w):
    hit = _toggle_a(w)
    fault = _invol_fault_s(w, hit)
    return fault and f"{format_window(w)}: {fault}", hit is None


def _invol_fault_s(w, hit):
    if hit is None:
        if len(set(pc._scan(w)[:4])) > 1:
            return "fixed point without inv=drops=depth=iexc"
        return None
    y = _image(w, hit, _swap_positions)
    if _image(y, _toggle_a(y), _swap_positions) != w:
        return "map is not involutive"
    sw, sy = pc._scan(w), pc._scan(y)
    if (sw[0] - sy[0]) % 2 == 0:
        return "sign not reversed"
    if sw[1:4] != sy[1:4]:
        return "(drops, depth, iexc) not preserved"
    d, ia, ib = hit
    a, b = w[ia], w[ib]
    if not (a >= d + 1 and b >= d + 2):
        return f"transposition ({a},{b}) violates bounds at stage {d}"
    back = tuple(a if v == b else b if v == a else v for v in y)
    if back != w:
        return f"transposition ({a},{b}) does not recover the input"
    return None


def _invol_key_b(s):
    hit = _toggle_b(s)
    fault = _invol_fault_b(s, hit)
    return fault and f"{format_window(s)}: {fault}", hit is None


def _invol_fault_b(s, hit):
    if hit is None:
        if len(set(pc._scan_b(s))) > 1:
            return "fixed point without inv_b = drops_b"
        return None
    y = _image(s, hit, _swap_magnitudes)
    if _image(y, _toggle_b(y), _swap_magnitudes) != s:
        return "map is not involutive"
    (ls, ds), (ly, dy) = pc._scan_b(s), pc._scan_b(y)
    if (ls - ly) % 2 == 0:
        return "sign not reversed"
    if ds != dy:
        return "drops_b not preserved"
    return None


# ---------------------------------------------------------------------------
# expected polynomials
# ---------------------------------------------------------------------------

def _one_minus(var: str, power: int, cube: bool = False) -> MultiPoly:
    base = MultiPoly.one() - MultiPoly.term(1, **{var: 1})
    out = base ** power
    if cube:
        out = out * (MultiPoly.one() - MultiPoly.term(1, q=3))
    return out


# ---------------------------------------------------------------------------
# claim runners: each returns a witness string on failure, None on success
# ---------------------------------------------------------------------------

def _run_thm13(n: int, threads: int):
    got = gp.poly_from_counter(sweep("S", n, gp.trivariate_key, threads))
    if got != (MultiPoly.one() - MultiPoly.term(1, t=1, p=1, q=1)) ** (n - 1):
        return f"trivariate enumerator differs from (1-tpq)^{n - 1}"
    return None


def _run_cor14(n: int, threads: int):
    if n >= 9:
        got = gp.poly_from_counter(sweep("S", n, gp.drops_key_s, threads))
        if got != _one_minus("q", n - 1):
            return f"signed drops enumerator differs from (1-q)^{n - 1}"
        return None
    tri = gp.poly_from_counter(sweep("S", n, gp.trivariate_key, threads))
    checks = [
        (tri.substitute(t=1, p=1), _one_minus("q", n - 1), "drops"),
        (tri.substitute(p=1, q=1), _one_minus("t", n - 1), "excedance"),
        (tri.substitute(t=1, q=1), _one_minus("p", n - 1), "depth"),
    ]
    for got, want, name in checks:
        if got != want:
            return f"signed {name} specialization differs from the binomial form"
    return None


def _run_typeb(n: int, threads: int):
    got = gp.poly_from_counter(sweep("B", n, gp.drops_key_b, threads))
    if got != _one_minus("q", n):
        return f"type-B signed drops enumerator differs from (1-q)^{n}"
    return None


def _run_typed(n: int, threads: int):
    got = gp.poly_from_counter(sweep("D", n, gp.drops_key_d, threads))
    if got != _one_minus("q", n - 1, cube=True):
        return f"type-D signed drops enumerator differs from (1-q^3)(1-q)^{n - 1}"
    return None


def _run_lemma72(n: int, threads: int):
    sums: Counter = Counter()
    for (negatives, _, z, _, odd), c in sweep("B", n, _zdrops_key, threads).items():
        sums[negatives % 2 == 0, z] += -c if odd else c
    bad = [in_d for (in_d, _), v in sums.items() if v]
    if not bad:
        return None
    side = "D_n" if all(bad) else "B_n - D_n"
    return f"signed zdrops sum over {side} does not vanish"


def _run_thm11(n: int, threads: int):
    de: Counter = Counter()
    dd: Counter = Counter()
    for (exc, depth, drops, des, _), c in sweep("S", n, _bivariate_key, threads).items():
        de[depth, exc] += c
        dd[drops, des] += c
    if de == dd:
        return None
    diff = next(iter(set(de.items()) ^ set(dd.items())))
    return f"(depth, exc) vs (drops, des) multiset mismatch near {diff[0]}"


def _run_cfrac(n: int, threads: int):
    # the path transfer against the exhaustive sweep, not against
    # dep_inv_poly, which is a transfer too
    swept = gp.poly_from_counter(sweep("S", n, gp._dep_inv_key, threads))
    if jfraction_convergent(n).coefficient(n) != swept:
        return f"t^{n} coefficient of the convergent differs from the enumerator"
    return None


def _run_mad(n: int, threads: int):
    paths = n <= 7
    counter = sweep("S", n, _mad_path_key if paths else _mad_key, threads)
    dm: Counter = Counter()
    di: Counter = Counter()
    per_path: dict[str, Counter] = {}
    for key, c in counter.items():
        inv, drops, depth, mad = key[:4]
        dm[drops, mad] += c
        di[depth, inv] += c
        if paths:
            per_path.setdefault(key[4], Counter())[0, 0, inv, depth, 0] += c
    # (drops, mad) pairs up with (depth, inv)
    if dm != di:
        return "(drops, mad) is not equidistributed with (depth, inv)"
    for steps in motzkin_paths(n) if paths else ():
        got = gp.poly_from_counter(per_path.get(steps, Counter()))
        if got != gp.per_path_enumerator(steps):
            return f"per-path enumerator mismatch on {steps}"
    return None


def _run_weights(n: int, threads: int):
    counter = sweep("S", n, _shape, threads)
    paths = list(motzkin_paths(n))
    if sum(counter.values()) != math.factorial(n):
        return "shape image total is not n!"
    for steps in paths:
        if path_weight(steps) != counter.get(steps, 0):
            return f"weight of {steps} != preimage count"
    low = [steps for steps in paths if max_height(steps) <= 1]
    if len(low) != 2 ** (n - 1):
        return "height<=1 path count is not 2^(n-1)"
    fixed_shapes = set(map(_shape, fixed_points("S", n)))
    if len(fixed_shapes) != 2 ** (n - 1) or fixed_shapes != set(low):
        return "fixed points do not biject onto height<=1 paths"
    return None


def _run_shape(n: int, threads: int):
    return _witness(sweep("S", n, _shape_witness, threads))


def _run_moments(n: int, threads: int):
    full: Counter = Counter()
    even: Counter = Counter()
    for (_, _, d, _, odd), c in sweep("S", n, gp.drops_key_s, threads).items():
        full[d] += c
        if not odd:
            even[d] += c
    mean_s, var_s = gp.mean_variance(full)
    if mean_s != Fraction(n * n - 1, 6):
        return f"mean over S_{n} is {mean_s}, not (n^2-1)/6"
    if n >= 4 and gp.mean_variance(even) != (mean_s, var_s):
        return f"A_{n} moments differ from S_{n}"
    return None


def _run_fz(n: int, threads: int):
    # each window decodes back from its history: a left inverse, so the map
    # is injective and the counter holds one key; |LH*_n| = n! makes it a
    # bijection
    bad = _witness(sweep("S", n, _fz_key, threads))
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


def _run_invol_s(n: int, threads: int):
    return _check_invol(sweep("S", n, _invol_key_s, threads), 2 ** (n - 1))


def _run_invol_b(n: int, threads: int):
    return _check_invol(sweep("B", n, _invol_key_b, threads), 2 ** n)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimDef:
    name: str
    group: str
    default_ns: tuple[int, ...]
    runner: Callable
    description: str


CLAIMS: dict[str, tuple[ClaimDef, ...]] = {
    "thm1.1": (ClaimDef("thm1.1", "S", tuple(range(1, 9)), _run_thm11,
               "(depth, exc) and (drops, des) are equidistributed"),),
    "thm1.3": (ClaimDef("thm1.3", "S", tuple(range(1, 9)), _run_thm13,
               "signed (exc, depth, drops) enumerator factors as (1-tpq)^(n-1)"),),
    "cor1.4": (ClaimDef("cor1.4", "S", tuple(range(1, 9)), _run_cor14,
               "signed univariate specializations: drops, excedance, depth"),),
    "thm-typeB": (ClaimDef("thm-typeB", "B", tuple(range(1, 7)), _run_typeb,
                  "signed type-B drops enumerator equals (1-q)^n"),),
    "thm-typeD": (ClaimDef("thm-typeD", "D", tuple(range(2, 7)), _run_typed,
                  "signed type-D drops enumerator equals (1-q^3)(1-q)^(n-1)"),),
    "lemma7.2": (ClaimDef("lemma7.2", "B", tuple(range(2, 7)), _run_lemma72,
                 "signed zdrops sums over B_n - D_n and over D_n vanish"),),
    "cfrac": (ClaimDef("cfrac", "S", tuple(range(0, 9)), _run_cfrac,
              "continued-fraction convergent matches the (depth, inv) enumerator"),),
    "mad": (ClaimDef("mad", "S", tuple(range(1, 9)), _run_mad,
            "(drops, mad) matches (depth, inv); per-path identity for n <= 7"),),
    "weights": (ClaimDef("weights", "S", tuple(range(1, 9)), _run_weights,
                "path weights count shape preimages; height<=1 structure"),),
    "shape": (ClaimDef("shape", "S", tuple(range(1, 9)), _run_shape,
              "the type-A involution preserves the history shape"),),
    "moments": (ClaimDef("moments", "S", tuple(range(1, 9)), _run_moments,
                "exact drops moments over S_n; A_n moments agree for n >= 4"),),
    "fz": (ClaimDef("fz", "S", tuple(range(1, 9)), _run_fz,
           "history encoding: a left inverse, |LH*_n| = n!, statistics carried"),),
    "invol": (
        ClaimDef("invol", "S", tuple(range(1, 9)), _run_invol_s,
                 "type-A involution: involutive, sign-reversing, statistic-preserving"),
        ClaimDef("invol", "B", tuple(range(1, 7)), _run_invol_b,
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
    """Run one claim, yielding a report per (group, n) of its :func:`plan`."""
    for part, n in plan([name], ns, max_n):
        t0 = time.perf_counter()
        witness = part.runner(n, threads)
        elapsed = (time.perf_counter() - t0) * 1000.0
        # every runner sweeps its group once
        yield VerificationReport(
            claim=name, group=part.group, n=n,
            status="fail" if witness else "pass", witness=witness,
            elapsed_ms=elapsed, count=group_order(part.group, n))


def run_claims(names: list[str] | None = None, ns: tuple[int, ...] | None = None,
               threads: int | None = None,
               max_n: int | None = None) -> Iterator[VerificationReport]:
    """Run several claims (all of them when names is empty) in claim order."""
    if threads is None:
        threads = os.cpu_count() or 1
    for name in (names or list(CLAIMS)):
        yield from run_claim(name, ns, threads, max_n)
