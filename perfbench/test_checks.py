"""
Tests of the benchmark's own output checks: each accepts the right output
and rejects a wrong one.

    python3 -m unittest discover -s perfbench

Positive cases use real coxdrops outputs, imported from the checkout's src/.
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks                                               # noqa: E402
from coxdrops import bruhat, genpoly, perm_core, verify    # noqa: E402


def _reports(claim: str, ns: tuple[int, ...], threads: int = 1) -> list[dict]:
    return [{"claim": r.claim, "group": r.group, "n": r.n, "status": r.status,
             "witness": r.witness, "elapsed_ms": r.elapsed_ms, "count": r.count}
            for r in verify.run_claim(claim, ns, threads)]


class GroupsAndLengths(unittest.TestCase):
    def test_orders(self):
        self.assertEqual([checks.group_order(k, 3) for k in "SABD"], [6, 3, 48, 24])

    def test_elements(self):
        self.assertEqual(checks.elements_s(4), list(perm_core.iter_group("S", 4)))
        self.assertEqual(sorted(checks.elements_b(3)), sorted(perm_core.iter_group("B", 3)))

    def test_type_b_length_matches_the_package(self):
        for w in checks.elements_b(4):
            self.assertEqual(checks.length_b(w), perm_core.inv_b(w), w)


class Reports(unittest.TestCase):
    def setUp(self):
        self.reports = _reports("thm-typeD", (2, 3, 4))
        self.expected = [("thm-typeD", "D", n) for n in (2, 3, 4)]

    def test_passing_reports(self):
        self.assertEqual(checks.check_reports(self.reports, self.expected), [])

    def test_status_fail(self):
        self.reports[1]["status"] = "fail"
        problems = checks.check_reports(self.reports, self.expected)
        self.assertTrue(any("status fail" in p for p in problems), problems)

    def test_count_one_short(self):
        self.reports[2]["count"] -= 1
        problems = checks.check_reports(self.reports, self.expected)
        self.assertTrue(any("count 191 != group order 192" in p for p in problems), problems)

    def test_missing_scale(self):
        problems = checks.check_reports(self.reports[:2], self.expected)
        self.assertTrue(any("missing" in p for p in problems), problems)

    def test_content_same_for_one_and_two_workers(self):
        serial = _reports("thm-typeB", (6,), 1)
        parallel = _reports("thm-typeB", (6,), 2)
        self.assertEqual(checks.check_same_content(serial, parallel), [])

    def test_content_differs_between_workers(self):
        serial = _reports("thm-typeB", (4,), 1)
        parallel = [dict(r, witness="x") for r in serial]
        self.assertNotEqual(checks.check_same_content(serial, parallel), [])
        self.assertNotEqual(checks.check_same_content(serial, parallel[:0]), [])

    def test_timing_is_not_content(self):
        serial = _reports("thm-typeB", (4,), 1)
        parallel = [dict(r, elapsed_ms=r["elapsed_ms"] + 1) for r in serial]
        self.assertEqual(checks.check_same_content(serial, parallel), [])


class Matchings(unittest.TestCase):
    def test_real_matchings(self):
        for kind, n in (("S", 4), ("B", 3)):
            edges = [(e.lower, e.upper) for e in bruhat.build_matching(kind, n)]
            self.assertEqual(checks.check_matching(edges, kind, n), [])

    def test_length_gap_of_two(self):
        edges = [((1, 2, 3), (2, 3, 1)), ((2, 1, 3), (1, 3, 2)), ((3, 1, 2), (3, 2, 1))]
        problems = checks.check_matching(edges, "S", 3)
        self.assertTrue(any("length gap 2" in p for p in problems), problems)

    def test_element_left_out(self):
        edges = [(e.lower, e.upper) for e in bruhat.build_matching("S", 4)][1:]
        problems = checks.check_matching(edges, "S", 4)
        self.assertTrue(any("not covered exactly once" in p for p in problems), problems)


class Enumerators(unittest.TestCase):
    def test_real_enumerators(self):
        n = 5
        self.assertEqual(checks.check_trivariate(genpoly.signed_trivariate(n).terms, n), [])
        self.assertEqual(checks.check_signed_drops_b(genpoly.signed_drops("B", n).terms, n), [])
        self.assertEqual(checks.check_signed_drops_d(genpoly.signed_drops("D", n).terms, n), [])
        self.assertEqual(checks.check_drops_moments(*genpoly.drops_moments("A", n), n), [])
        dep_inv = genpoly.dep_inv_poly(n).terms
        self.assertEqual(checks.check_dep_inv_at_x1(dep_inv, n), [])
        coefficient = genpoly.jfraction_convergent(n).coefficient(n).terms
        self.assertEqual(checks.check_jfraction(coefficient, dep_inv, n), [])

    def test_binomial_off_by_one(self):
        n = 6
        terms = dict(checks.trivariate_terms(n))
        terms[(2, 2, 2, 0)] += 1
        self.assertNotEqual(checks.check_trivariate(terms, n), [])
        terms = dict(genpoly.signed_drops("B", n).terms)
        terms[(0, 0, 3, 0)] -= 1
        self.assertNotEqual(checks.check_signed_drops_b(terms, n), [])
        terms = dict(genpoly.signed_drops("D", n).terms)
        terms[(0, 0, 1, 0)] += 1
        self.assertNotEqual(checks.check_signed_drops_d(terms, n), [])

    def test_wrong_moments(self):
        mean, var = genpoly.drops_moments("A", 6)
        self.assertNotEqual(checks.check_drops_moments(mean, var + Fraction(1, 10**9), 6), [])

    def test_wrong_dep_inv(self):
        terms = dict(genpoly.dep_inv_poly(5).terms)
        terms[(0, 0, 4, 2)] = terms.get((0, 0, 4, 2), 0) + 1
        self.assertNotEqual(checks.check_dep_inv_at_x1(terms, 5), [])
        self.assertNotEqual(
            checks.check_jfraction(genpoly.jfraction_convergent(5).coefficient(5).terms,
                                   terms, 5), [])


if __name__ == "__main__":
    unittest.main()
