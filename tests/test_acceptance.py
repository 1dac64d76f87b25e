"""
Acceptance suite: every numbered criterion at its stated scale, one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).

All checks are exact integer/polynomial equalities except criterion 12c, a
ratio window checked by exact rational comparison against its interval
bounds. Criterion 12d is an exact equality plus a strict bound: the variance
ratio equals its closed form and exceeds 1.
"""

import os
from contextlib import contextmanager
from fractions import Fraction

from coxdrops import perm_core as pc
from coxdrops.bruhat import bruhat_leq, build_matching, validate_matching
from coxdrops.genpoly import (MultiPoly, dep_inv_poly, drops_moments,
                              jfraction_convergent)
from coxdrops.verify import run_claim
from oracles import subword_leq

THREADS = os.cpu_count() or 1


@contextmanager
def criterion(ident, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {ident}: FAIL - {desc}")
        raise
    print(f"criterion {ident}: PASS - {desc}")


def _claim_passes(name, ns=None):
    reports = list(run_claim(name, ns=ns, threads=THREADS))
    bad = [r for r in reports if not r.ok]
    assert not bad, "; ".join(
        f"{r.claim} {r.group} n={r.n}: {r.witness}" for r in bad)
    return reports


def test_criterion_01_signed_trivariate():
    with criterion(1, "signed (exc, depth, drops) enumerator = (1-tpq)^(n-1), n <= 8"):
        reports = _claim_passes("thm1.3", ns=tuple(range(1, 9)))
        assert [r.count for r in reports][-1] == 40320


def test_criterion_02_signed_drops_and_specializations():
    with criterion(2, "signed drops enumerator = (1-q)^(n-1), n <= 9; the excedance "
                      "and depth forms are specializations of criterion 1"):
        _claim_passes("thm1.3", ns=tuple(range(1, 9)))
        _claim_passes("cor1.4", ns=tuple(range(1, 9)))
        reports = _claim_passes("cor1.4", ns=(9,))
        assert reports[0].count == 362880


def test_criterion_03_type_b():
    with criterion(3, "signed type-B drops enumerator = (1-q)^n, n <= 6"):
        reports = _claim_passes("thm-typeB", ns=tuple(range(1, 7)))
        assert reports[-1].count == 46080


def test_criterion_04_type_d_and_zero_sums():
    with criterion(4, "type-D enumerator = (1-q^3)(1-q)^(n-1) and zdrops zero sums, n <= 6"):
        _claim_passes("thm-typeD", ns=tuple(range(2, 7)))
        _claim_passes("lemma7.2", ns=tuple(range(2, 7)))


def test_criterion_05_bivariate_equidistribution():
    with criterion(5, "(depth, exc) and (drops, des) coincide over S_n, n <= 8"):
        _claim_passes("thm1.1", ns=tuple(range(1, 9)))


def test_criterion_06_continued_fraction():
    with criterion(6, "continued-fraction coefficients equal the (depth, inv) enumerators, n <= 8"):
        _claim_passes("cfrac", ns=tuple(range(0, 9)))
        t3 = jfraction_convergent(8).coefficient(3)
        want = (MultiPoly.one() + MultiPoly.term(2, x=1, q=1)
                + MultiPoly.term(2, x=2, q=2) + MultiPoly.term(1, x=2, q=3))
        assert t3 == want == dep_inv_poly(3)


def test_criterion_07_history_bijection():
    with criterion(7, "history encoding bijective; depth = area, inv = area + nest, "
                      "iexc = #N + #dE, n <= 8"):
        _claim_passes("fz", ns=tuple(range(1, 9)))


def test_criterion_08_shape_preservation():
    with criterion(8, "the involution preserves the Motzkin shape, n <= 8"):
        _claim_passes("shape", ns=tuple(range(1, 9)))


def test_criterion_09_path_weights():
    with criterion(9, "weights count preimages; per-path (depth, inv) enumerators; "
                      "totals n!; 2^(n-1) low paths carry the fixed points, n <= 8"):
        _claim_passes("weights", ns=tuple(range(1, 9)))


def test_criterion_10_involution_suites():
    with criterion(10, "involutions: involutive, sign-reversing, statistic-"
                       "preserving, fixed counts, transposition bounds (S_8, B_6)"):
        _claim_passes("invol")         # defaults: S_n n <= 8, B_n n <= 6


def test_criterion_11_mad():
    with criterion(11, "(drops, mad) matches (depth, inv) for n <= 8"):
        _claim_passes("mad", ns=tuple(range(1, 9)))


def test_criterion_12a_exact_means():
    with criterion("12a", "exact drops mean over S_n equals (n^2-1)/6, n <= 8"):
        for n in range(1, 9):
            mean, _ = drops_moments("S", n)
            assert mean == Fraction(n * n - 1, 6)


def test_criterion_12b_even_subgroup_moments():
    with criterion("12b", "drops mean and variance over A_n equal those over S_n, 4 <= n <= 8"):
        for n in range(4, 9):
            assert drops_moments("A", n) == drops_moments("S", n)


def test_criterion_12c_mean_ratio_window():
    with criterion("12c", "mean/(n^2/6) lies in [0.9, 1.0] at n = 8"):
        mean, _ = drops_moments("S", 8)
        ratio = mean / Fraction(8 * 8, 6)
        assert Fraction(9, 10) <= ratio <= 1, f"exact ratio {ratio}"


def test_criterion_12d_variance_ratio_window():
    # Var(drops) = Var(D)/4 = (n+1)(2n^2+7)/180 for n >= 2, from Diaconis and
    # Graham's moments of the Spearman footrule D (depth = D/2, and drops has
    # the distribution of depth). So var/(n^3/90) = (n+1)(2n^2+7)/(2n^3)
    # = 1 + 1/n + 7/(2n^2) + 7/(2n^3): n^3/90 is only the leading term and
    # the ratio approaches 1 from above, strictly falling in n.
    with criterion("12d", "variance over S_8 and A_8 equals (n+1)(2n^2+7)/180 = 27/4; "
                          "variance/(n^3/90) = 1215/1024 > 1, strictly falling for n = 2..8"):
        _, var = drops_moments("S", 8)
        assert var == drops_moments("A", 8)[1] == Fraction(9 * 135, 180)
        ratio = var / Fraction(8 ** 3, 90)
        assert ratio == Fraction(9 * 135, 2 * 8 ** 3), f"exact ratio {ratio}"
        assert ratio > 1
        ratios = [drops_moments("S", n)[1] / Fraction(n ** 3, 90)
                  for n in range(2, 9)]
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


def test_criterion_13_bruhat_matching():
    with criterion(13, "perfect matchings with unit length gaps (S_n n <= 6, "
                       "B_n n <= 4); comparability matches the subword rule on S_4"):
        for n in range(2, 7):
            edges = build_matching("S", n)
            report = validate_matching(edges, "S", n)
            assert report.ok, report.violations
        for n in range(2, 5):
            edges = build_matching("B", n)
            report = validate_matching(edges, "B", n)
            assert report.ok, report.violations
        s4 = list(pc.iter_group("S", 4))
        for u in s4:
            for v in s4:
                assert bruhat_leq(u, v, "S") == subword_leq(u, v, "S")
