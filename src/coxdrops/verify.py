"""
Batch verification suites: one claim per enumerative identity, each checked
by exhaustive computation over the relevant group.

Heavy sweeps are split into disjoint rank ranges and may be fanned out over
a process pool; partial counters merge associatively, so the report content
never depends on the worker count.
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
from .genpoly import MultiPoly, dep_inv_poly, jfraction_convergent
from .involutions import (fixed_points, involution_a, involution_b,
                          is_fixed_a, is_fixed_b)
from .laguerre import (fz_history, heights, max_height, motzkin_paths,
                       path_weight)
from .perm_core import format_window, group_order, iter_group


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
# chunked sweeps
# ---------------------------------------------------------------------------
#
# A sweep visits every element of a group once, feeding two per-claim hooks:
# a key function (accumulated into a Counter) and a predicate returning a
# witness string for a violated element.  Both hooks live in a module-level
# table so chunk workers are picklable.

_PARALLEL_CUTOFF = 30_000


def _chunk_worker(claim: str, kind: str, n: int, start: int, stop: int):
    keyfn, predfn = _SWEEPS[claim]
    counter: Counter = Counter()
    bad = None
    count = 0
    for w in iter_group(kind, n, start, stop):
        count += 1
        if keyfn is not None:
            for k, v in keyfn(w):
                counter[k] += v
        if predfn is not None and bad is None:
            bad = predfn(w)
    return counter, bad, count


def pool_size(threads: int, cpus: int | None) -> int:
    """Worker processes for ``threads`` requested on ``cpus`` processors,
    clamped to [1, cpus] so that a mistyped count cannot fork thousands."""
    return max(1, min(threads, cpus or 1))


def _sweep(claim: str, kind: str, n: int, threads: int):
    """Run a claim's sweep over the whole group, chunked when it pays off."""
    total = group_order(kind, n)
    workers = pool_size(threads, os.cpu_count())
    if workers == 1 or total < _PARALLEL_CUTOFF:
        return _chunk_worker(claim, kind, n, 0, total)
    import multiprocessing
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:                         # no fork on this platform
        context = multiprocessing.get_context()
    pieces = min(workers * 4, 128)
    bounds = [(total * i // pieces, total * (i + 1) // pieces)
              for i in range(pieces)]
    with context.Pool(workers) as pool:
        parts = pool.starmap(
            _chunk_worker, [(claim, kind, n, a, b) for a, b in bounds])
    counter: Counter = Counter()
    bad = None
    count = 0
    for c, b, k in parts:
        counter.update(c)
        if bad is None and b is not None:
            bad = b
        count += k
    return counter, bad, count


# -- per-element hooks -------------------------------------------------------

def _key_trivariate(w):
    yield (pc.exc(w), pc.depth(w), pc.drops(w)), (-1 if pc.inv(w) % 2 else 1)


def _key_drops_s(w):
    yield pc.drops(w), (-1 if pc.inv(w) % 2 else 1)


def _key_drops_b(s):
    yield pc.drops_b(s), (-1 if pc.inv_b(s) % 2 else 1)


def _key_drops_d(s):
    yield pc.drops_d(s), (-1 if pc.inv_d(s) % 2 else 1)


def _key_zdrops(s):
    # over all of B_n, split by D_n membership
    yield (pc.in_type_d(s), pc.zdrops(s)), (-1 if pc.inv_d(s) % 2 else 1)


def _key_bivariate(w):
    yield ("de", pc.depth(w), pc.exc(w)), 1
    yield ("dd", pc.drops(w), pc.des(w)), 1


def _key_mad(w):
    yield ("dm", pc.drops(w), gp.mad(w)), 1
    yield ("di", pc.depth(w), pc.inv(w)), 1


def _key_mad_paths(w):
    yield ("dm", pc.drops(w), gp.mad(w)), 1
    yield ("di", pc.depth(w), pc.inv(w)), 1
    h = fz_history(w)
    yield ("path", h.shape, pc.depth(w), pc.inv(w)), 1


def _key_shape_count(w):
    yield fz_history(w).shape, 1


def _key_moments(w):
    yield (pc.inv(w) % 2, pc.drops(w)), 1


def _key_history(w):
    h = fz_history(w)
    yield (h.steps, h.labels), 1


def _pred_fz(w):
    h = fz_history(w)
    if not h.is_valid():
        return f"{format_window(w)}: image is not a restricted history"
    ar = sum(heights(h.steps))
    if pc.depth(w) != ar:
        return f"{format_window(w)}: depth {pc.depth(w)} != area {ar}"
    if pc.inv(w) != ar + sum(h.labels):
        return f"{format_window(w)}: inv {pc.inv(w)} != area+nest {ar + sum(h.labels)}"
    if pc.iexc(w) != h.steps.count("N") + h.steps.count("D"):
        return f"{format_window(w)}: iexc != #N + #dE"
    return None


def _pred_shape(w):
    y = involution_a(w).output
    if fz_history(w).shape != fz_history(y).shape:
        return f"{format_window(w)}: shape changes under the involution"
    return None


def _pred_invol_s(w):
    rep = involution_a(w)
    y = rep.output
    me = format_window(w)
    if rep.fixed:
        k = pc.inv(w)
        if not (pc.drops(w) == pc.depth(w) == pc.iexc(w) == k):
            return f"{me}: fixed point without inv=drops=depth=iexc"
        return None
    if involution_a(y).output != w:
        return f"{me}: map is not involutive"
    if (pc.inv(w) - pc.inv(y)) % 2 == 0:
        return f"{me}: sign not reversed"
    if (pc.drops(w), pc.depth(w), pc.iexc(w)) != (pc.drops(y), pc.depth(y), pc.iexc(y)):
        return f"{me}: (drops, depth, iexc) not preserved"
    a, b = rep.transposition
    d = rep.changed_factor_index
    if not (a >= d + 1 and b >= d + 2):
        return f"{me}: transposition ({a},{b}) violates bounds at stage {d}"
    back = tuple(a if v == b else b if v == a else v for v in y)
    if back != w:
        return f"{me}: transposition ({a},{b}) does not recover the input"
    return None


def _key_invol_fixed_s(w):
    yield "fixed", (1 if is_fixed_a(w) else 0)


def _pred_invol_b(s):
    rep = involution_b(s)
    y = rep.output
    me = format_window(s)
    if rep.fixed:
        if pc.inv_b(s) != pc.drops_b(s):
            return f"{me}: fixed point without inv_b = drops_b"
        return None
    if involution_b(y).output != s:
        return f"{me}: map is not involutive"
    if (pc.inv_b(s) - pc.inv_b(y)) % 2 == 0:
        return f"{me}: sign not reversed"
    if pc.drops_b(s) != pc.drops_b(y):
        return f"{me}: drops_b not preserved"
    return None


def _key_invol_fixed_b(s):
    yield "fixed", (1 if is_fixed_b(s) else 0)


_SWEEPS: dict[str, tuple[Callable | None, Callable | None]] = {
    "thm1.3": (_key_trivariate, None),
    "cor1.4:univariate": (_key_drops_s, None),
    "thm-typeB": (_key_drops_b, None),
    "thm-typeD": (_key_drops_d, None),
    "lemma7.2": (_key_zdrops, None),
    "thm1.1": (_key_bivariate, None),
    "mad": (_key_mad, None),
    "mad:paths": (_key_mad_paths, None),
    "weights": (_key_shape_count, None),
    "shape": (None, _pred_shape),
    "moments": (_key_moments, None),
    "fz": (_key_history, _pred_fz),
    "invol:S": (_key_invol_fixed_s, _pred_invol_s),
    "invol:B": (_key_invol_fixed_b, _pred_invol_b),
}


# ---------------------------------------------------------------------------
# expected polynomials
# ---------------------------------------------------------------------------

def _one_minus(var: str, power: int, cube: bool = False) -> MultiPoly:
    base = MultiPoly.one() - MultiPoly.term(1, **{var: 1})
    out = base ** power
    if cube:
        out = out * (MultiPoly.one() - MultiPoly.term(1, q=3))
    return out


def _counter_poly(counter: Counter, expo) -> MultiPoly:
    return gp.poly_from_counter(counter, expo)


# ---------------------------------------------------------------------------
# claim runners: each returns (ok, witness, count)
# ---------------------------------------------------------------------------

def _run_thm13(n: int, threads: int):
    counter, _, count = _sweep("thm1.3", "S", n, threads)
    got = _counter_poly(counter, lambda k: (k[0], k[1], k[2], 0))
    want = (MultiPoly.one() - MultiPoly.term(1, t=1, p=1, q=1)) ** (n - 1)
    if got == want:
        return True, None, count
    return False, f"trivariate enumerator differs from (1-tpq)^{n - 1}", count


def _run_cor14(n: int, threads: int):
    if n >= 9:
        counter, _, count = _sweep("cor1.4:univariate", "S", n, threads)
        got = _counter_poly(counter, lambda k: (0, 0, k, 0))
        if got == _one_minus("q", n - 1):
            return True, None, count
        return False, f"signed drops enumerator differs from (1-q)^{n - 1}", count
    counter, _, count = _sweep("thm1.3", "S", n, threads)
    tri = _counter_poly(counter, lambda k: (k[0], k[1], k[2], 0))
    checks = [
        (tri.substitute(t=1, p=1), _one_minus("q", n - 1), "drops"),
        (tri.substitute(p=1, q=1), _one_minus("t", n - 1), "excedance"),
        (tri.substitute(t=1, q=1), _one_minus("p", n - 1), "depth"),
    ]
    for got, want, name in checks:
        if got != want:
            return False, f"signed {name} specialization differs from the binomial form", count
    return True, None, count


def _run_typeb(n: int, threads: int):
    counter, _, count = _sweep("thm-typeB", "B", n, threads)
    got = _counter_poly(counter, lambda k: (0, 0, k, 0))
    if got == _one_minus("q", n):
        return True, None, count
    return False, f"type-B signed drops enumerator differs from (1-q)^{n}", count


def _run_typed(n: int, threads: int):
    counter, _, count = _sweep("thm-typeD", "D", n, threads)
    got = _counter_poly(counter, lambda k: (0, 0, k, 0))
    if got == _one_minus("q", n - 1, cube=True):
        return True, None, count
    return False, f"type-D signed drops enumerator differs from (1-q^3)(1-q)^{n - 1}", count


def _run_lemma72(n: int, threads: int):
    counter, _, count = _sweep("lemma7.2", "B", n, threads)
    bad_out = [k for (ind, k), v in counter.items() if not ind and v]
    bad_in = [k for (ind, k), v in counter.items() if ind and v]
    if not bad_out and not bad_in:
        return True, None, count
    side = "B_n - D_n" if bad_out else "D_n"
    return False, f"signed zdrops sum over {side} does not vanish", count


def _run_thm11(n: int, threads: int):
    counter, _, count = _sweep("thm1.1", "S", n, threads)
    de = {k[1:]: v for k, v in counter.items() if k[0] == "de"}
    dd = {k[1:]: v for k, v in counter.items() if k[0] == "dd"}
    if de == dd:
        return True, None, count
    diff = next(iter(set(de.items()) ^ set(dd.items())))
    return False, f"(depth, exc) vs (drops, des) multiset mismatch near {diff[0]}", count


def _run_cfrac(n: int, threads: int, _cache: dict = {}):
    # one convergent serves the whole sweep; the cache key is the max order
    order = _cache.get("order")
    if order is None or order < n:
        _cache["order"] = order = max(n, 8)
        _cache["series"] = jfraction_convergent(order)
    series = _cache["series"]
    got = series.coefficient(n)
    want = dep_inv_poly(n)
    count = math.factorial(n)
    if got == want:
        return True, None, count
    return False, f"t^{n} coefficient of the convergent differs from the enumerator", count


def _run_mad(n: int, threads: int):
    claim = "mad:paths" if n <= 7 else "mad"
    counter, _, count = _sweep(claim, "S", n, threads)
    dm = {k[1:]: v for k, v in counter.items() if k[0] == "dm"}
    di = {k[1:]: v for k, v in counter.items() if k[0] == "di"}
    # (drops, mad) pairs up with (depth, inv)
    if dm != di:
        return False, "(drops, mad) is not equidistributed with (depth, inv)", count
    if n <= 7:
        per_path: dict[str, Counter] = {}
        for k, v in counter.items():
            if k[0] == "path":
                per_path.setdefault(k[1], Counter())[(k[2], k[3])] = v
        for steps in motzkin_paths(n):
            got = _counter_poly(per_path.get(steps, Counter()),
                                lambda k: (0, 0, k[1], k[0]))
            if got != gp.per_path_enumerator(steps):
                return False, f"per-path enumerator mismatch on {steps}", count
    return True, None, count


def _run_weights(n: int, threads: int):
    counter, _, count = _sweep("weights", "S", n, threads)
    paths = list(motzkin_paths(n))
    if sum(counter.values()) != math.factorial(n):
        return False, "shape image total is not n!", count
    for steps in paths:
        if path_weight(steps) != counter.get(steps, 0):
            return False, f"weight of {steps} != preimage count", count
    low = [steps for steps in paths if max_height(steps) <= 1]
    if len(low) != 2 ** (n - 1):
        return False, "height<=1 path count is not 2^(n-1)", count
    fixed_shapes = {fz_history(w).shape for w in fixed_points("S", n)}
    if len(fixed_shapes) != 2 ** (n - 1) or fixed_shapes != set(low):
        return False, "fixed points do not biject onto height<=1 paths", count
    return True, None, count


def _run_shape(n: int, threads: int):
    _, bad, count = _sweep("shape", "S", n, threads)
    return (bad is None), bad, count


def _run_moments(n: int, threads: int):
    counter, _, count = _sweep("moments", "S", n, threads)
    full = Counter()
    even = Counter()
    for (par, d), v in counter.items():
        full[d] += v
        if par == 0:
            even[d] += v

    def mv(c: Counter):
        tot = sum(c.values())
        mean = Fraction(sum(k * v for k, v in c.items()), tot)
        second = Fraction(sum(k * k * v for k, v in c.items()), tot)
        return mean, second - mean * mean

    mean_s, var_s = mv(full)
    if mean_s != Fraction(n * n - 1, 6):
        return False, f"mean over S_{n} is {mean_s}, not (n^2-1)/6", count
    if n >= 4:
        mean_a, var_a = mv(even)
        if (mean_a, var_a) != (mean_s, var_s):
            return False, f"A_{n} moments differ from S_{n}", count
    return True, None, count


def _run_fz(n: int, threads: int):
    counter, bad, count = _sweep("fz", "S", n, threads)
    if bad is not None:
        return False, bad, count
    if len(counter) != math.factorial(n):
        return False, "history map is not injective", count
    if _history_count(n) != math.factorial(n):
        return False, "|LH*_n| != n!", count
    return True, None, count


def _history_count(n: int) -> int:
    # weighted path count: number of restricted histories of length n
    def rec(k: int, h: int) -> int:
        if k == n:
            return 1 if h == 0 else 0
        if h > n - k:
            return 0
        ways = (h + 1) * rec(k + 1, h + 1) + (h + 1) * rec(k + 1, h)
        if h > 0:
            ways += h * rec(k + 1, h - 1) + h * rec(k + 1, h)
        return ways
    return rec(0, 0)


def _run_invol(n: int, threads: int, kind: str):
    counter, bad, count = _sweep(f"invol:{kind}", "S" if kind == "S" else "B",
                                 n, threads)
    if bad is not None:
        return False, bad, count
    want = 2 ** (n - 1) if kind == "S" else 2 ** n
    if counter.get("fixed", 0) != want:
        return False, f"fixed-point count {counter.get('fixed', 0)} != {want}", count
    return True, None, count


def _run_invol_s(n: int, threads: int):
    return _run_invol(n, threads, "S")


def _run_invol_b(n: int, threads: int):
    return _run_invol(n, threads, "B")


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
           "the history encoding is a bijection transporting the statistics"),),
    "invol": (
        ClaimDef("invol", "S", tuple(range(1, 9)), _run_invol_s,
                 "type-A involution: involutive, sign-reversing, statistic-preserving"),
        ClaimDef("invol", "B", tuple(range(1, 7)), _run_invol_b,
                 "type-B involution: involutive, sign-reversing, drops_b-preserving"),
    ),
}


def claim_names() -> tuple[str, ...]:
    return tuple(CLAIMS)


def run_claim(name: str, ns: tuple[int, ...] | None = None, threads: int = 1,
              max_n: int | None = None) -> Iterator[VerificationReport]:
    """
    Run one claim, yielding a report per (group, n).  Explicit ``ns`` applies
    to every part of the claim; ``max_n`` sweeps each part's default range
    capped at max_n.
    """
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
    for part in CLAIMS[name]:
        if ns is not None:
            eff = ns
        elif max_n is not None:
            eff = tuple(range(min(part.default_ns),
                              min(max_n, max(part.default_ns)) + 1))
        else:
            eff = part.default_ns
        for n in eff:
            if part.group == "D" and n < 2:
                continue
            t0 = time.perf_counter()
            ok, witness, count = part.runner(n, threads)
            elapsed = (time.perf_counter() - t0) * 1000.0
            yield VerificationReport(
                claim=name, group=part.group, n=n,
                status="pass" if ok else "fail",
                witness=witness, elapsed_ms=elapsed, count=count)


def run_claims(names: list[str] | None = None, ns: tuple[int, ...] | None = None,
               threads: int | None = None,
               max_n: int | None = None) -> Iterator[VerificationReport]:
    """Run several claims (all of them when names is empty) in claim order."""
    if threads is None:
        threads = os.cpu_count() or 1
    for name in (names or list(CLAIMS)):
        yield from run_claim(name, ns, threads, max_n)
