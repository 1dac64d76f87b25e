"""
Output checks of the benchmark, computed apart from coxdrops.

Every expected value here is built from the standard library alone (math,
itertools, fractions); nothing calls into the package.  Each check returns a
list of problems, empty when the output is right, so that one bad report or
coefficient is named instead of stopping the run.  The checks run outside
the timed regions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# group orders and lengths
# ---------------------------------------------------------------------------

def group_order(kind: str, n: int) -> int:
    """n! for S, n!/2 for A, 2^n n! for B, 2^(n-1) n! for D."""
    f = math.factorial(n)
    if kind == "S":
        return f
    if kind == "A":
        return max(1, f // 2)
    if kind == "B":
        return 2 ** n * f
    if kind == "D":
        return 2 ** (n - 1) * f
    raise ValueError(f"unknown group {kind!r}")


def elements_s(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def elements_b(n: int) -> list[tuple[int, ...]]:
    return [tuple(s * v for s, v in zip(signs, p))
            for p in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)]


def length_s(w) -> int:
    """Inversions: pairs i < j with w_i > w_j."""
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2)
               if w[i] > w[j])


def length_b(w) -> int:
    """Type-B length: pairs i < j with w_i > w_j, plus pairs i <= j with
    w_i + w_j < 0 (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    Prop. 8.1.1)."""
    n = len(w)
    return length_s(w) + sum(1 for i in range(n) for j in range(i, n)
                             if w[i] + w[j] < 0)


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------

def check_reports(reports: list[dict], expected: list[tuple[str, str, int]]) -> list[str]:
    """Every report passes, the (claim, group, n) list is the expected one,
    and each count is the group order."""
    problems = []
    got = [(r["claim"], r["group"], r["n"]) for r in reports]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append(f"report scales differ: missing {missing}, extra {extra}")
    for r in reports:
        me = f"{r['claim']} {r['group']} n={r['n']}"
        if r["status"] != "pass":
            problems.append(f"{me}: status {r['status']}: {r['witness']}")
        want = group_order(r["group"], r["n"])
        if r["count"] != want:
            problems.append(f"{me}: count {r['count']} != group order {want}")
    return problems


def report_content(report: dict) -> dict:
    """Every field except the timing."""
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def check_same_content(serial: list[dict], parallel: list[dict]) -> list[str]:
    """Report content does not depend on the worker count."""
    a = [report_content(r) for r in serial]
    b = [report_content(r) for r in parallel]
    if a == b:
        return []
    return [f"one worker gives {x}, two give {y}" for x, y in zip(a, b) if x != y] \
        or [f"one worker gives {len(a)} reports, two give {len(b)}"]


# ---------------------------------------------------------------------------
# Bruhat matchings
# ---------------------------------------------------------------------------

def check_matching(edges: list[tuple[tuple, tuple]], kind: str, n: int) -> list[str]:
    """The edges (lower, upper) cover the whole group exactly once, and the
    lengths of the two ends differ by exactly 1."""
    elems = elements_s(n) if kind == "S" else elements_b(n)
    length = length_s if kind == "S" else length_b
    problems = []
    ends = [w for e in edges for w in e]
    if len(ends) != len(set(ends)) or set(ends) != set(elems):
        problems.append(f"{kind}{n}: {len(ends)} edge ends, {len(set(ends))} distinct, "
                        f"group of {len(elems)} not covered exactly once")
    for lower, upper in edges:
        gap = length(upper) - length(lower)
        if gap != 1:
            problems.append(f"{kind}{n}: edge {lower} -- {upper} has length gap {gap}")
    return problems


# ---------------------------------------------------------------------------
# enumerator polynomials
# ---------------------------------------------------------------------------
#
# A polynomial is compared as its coefficient dictionary over exponent
# vectors (t, p, q, x), the representation MultiPoly.terms exposes.

def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _q_terms(coeffs: list[int]) -> dict:
    return {(0, 0, k, 0): c for k, c in enumerate(coeffs) if c}


def _diff(name: str, got: dict, want: dict) -> list[str]:
    if got == want:
        return []
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k, 0) != want.get(k, 0)]
    k = bad[0]
    return [f"{name}: coefficient at {k} is {got.get(k, 0)}, expected {want.get(k, 0)}"
            f" ({len(bad)} differ)"]


def trivariate_terms(n: int) -> dict:
    """Sum_k (-1)^k C(n-1, k) (tpq)^k."""
    return {(k, k, k, 0): (-1) ** k * math.comb(n - 1, k) for k in range(n)}


def check_trivariate(terms: dict, n: int) -> list[str]:
    return _diff(f"signed_trivariate({n})", terms, trivariate_terms(n))


def check_signed_drops_b(terms: dict, n: int) -> list[str]:
    """(1 - q)^n."""
    want = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    return _diff(f"signed_drops(B, {n})", terms, _q_terms(want))


def check_signed_drops_d(terms: dict, n: int) -> list[str]:
    """(1 - q^3)(1 - q)^(n-1)."""
    want = _mul([1, 0, 0, -1], [(-1) ** k * math.comb(n - 1, k) for k in range(n)])
    return _diff(f"signed_drops(D, {n})", terms, _q_terms(want))


def check_drops_moments(mean: Fraction, var: Fraction, n: int) -> list[str]:
    """Mean (n^2 - 1)/6 and variance (n + 1)(2n^2 + 7)/180."""
    want = (Fraction(n * n - 1, 6), Fraction((n + 1) * (2 * n * n + 7), 180))
    if (mean, var) == want:
        return []
    return [f"drops_moments(A, {n}) = {(mean, var)}, expected {want}"]


def check_dep_inv_at_x1(terms: dict, n: int) -> list[str]:
    """Setting x = 1 leaves the Mahonian product [1]_q [2]_q ... [n]_q."""
    want = [1]
    for k in range(1, n + 1):
        want = _mul(want, [1] * k)
    got: dict = {}
    for (t, p, q, x), c in terms.items():
        if t or p:
            return [f"dep_inv_poly({n}) has a t or p exponent in {(t, p, q, x)}"]
        got[(0, 0, q, 0)] = got.get((0, 0, q, 0), 0) + c
    return _diff(f"dep_inv_poly({n}) at x = 1", {k: c for k, c in got.items() if c},
                 _q_terms(want))


def check_jfraction(coefficient_terms: dict, dep_inv_terms: dict, n: int) -> list[str]:
    """The t^n coefficient of the convergent is the (depth, inv) enumerator."""
    return _diff(f"t^{n} coefficient of the J-fraction", coefficient_terms, dep_inv_terms)
