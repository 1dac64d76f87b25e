import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import perm_core as pc
from coxdrops.genpoly import (MultiPoly, TruncatedSeries, _step_weight,
                              dep_inv_poly, drops_mad_poly, drops_moments,
                              drops_poly, jfraction_convergent, mad,
                              per_path_enumerator, poly_from_counter,
                              q_integer, signed_drops, signed_trivariate)
from coxdrops.laguerre import fz_history, motzkin_paths
from coxdrops.verify import run_claim
from oracles import descent_blocks, right_embracings


def one_minus(var, power):
    return (MultiPoly.one() - MultiPoly.term(1, **{var: 1})) ** power


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_q_integer():
    assert q_integer(0) == MultiPoly.zero()
    assert q_integer(1) == MultiPoly.one()
    assert q_integer(3).pretty() == "1 + q + q^2"
    with pytest.raises(ValueError):
        q_integer(-1)


def test_pretty_and_json():
    f = MultiPoly.one() - MultiPoly.term(1, t=1, p=1, q=1)
    assert f.pretty() == "1 - t*p*q"
    assert f.to_json_obj() == [
        {"exponents": [0, 0, 0, 0], "coeff": "1"},
        {"exponents": [1, 1, 1, 0], "coeff": "-1"},
    ]
    assert MultiPoly.zero().pretty() == "0"


def test_substitute():
    f = MultiPoly.term(2, t=1, q=2) + MultiPoly.term(1, x=1)
    assert f.substitute(t=1, q=1) == MultiPoly.term(2) + MultiPoly.term(1, x=1)
    assert f.substitute(q=0) == MultiPoly.term(1, x=1)
    with pytest.raises(ValueError):
        f.substitute(y=1)


def test_univariate_extraction():
    assert signed_drops("S", 3).univariate("q") == {0: 1, 1: -2, 2: 1}
    with pytest.raises(ValueError):
        signed_trivariate(3).univariate("q")


small_polys = st.builds(
    MultiPoly,
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 4), st.integers(-4, 4), max_size=5))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.one() == a
    assert a - a == MultiPoly.zero()


exponents = st.tuples(*[st.integers(0, 2)] * 4)
sparse_terms = st.dictionaries(exponents, st.integers(-3, 3), max_size=6)


@given(sparse_terms, sparse_terms,
       st.dictionaries(st.sampled_from("tpqx"), st.integers(-2, 2)),
       st.dictionaries(st.tuples(exponents, st.integers(0, 1)), st.integers(-3, 3),
                       max_size=6))
@settings(max_examples=80)
def test_arithmetic_equals_a_naive_counter(f, g, values, signed):
    # coefficients in -3..3 so that terms cancel; a result keeps no zero
    total, diff, prod, sub, net = Counter(), Counter(), Counter(), Counter(), Counter()
    for e, c in f.items():
        total[e] += c
        diff[e] += c
        sub[tuple(0 if v in values else k for v, k in zip("tpqx", e))] += c * math.prod(
            values[v] ** k for v, k in zip("tpqx", e) if v in values)
        for e2, c2 in g.items():
            prod[tuple(a + b for a, b in zip(e, e2))] += c * c2
    for e, c in g.items():
        total[e] += c
        diff[e] -= c
    for (e, sign), c in signed.items():
        net[e] += -c if sign else c
    a, b = MultiPoly(f), MultiPoly(g)
    for got, want in [(a + b, total), (a - b, diff), (a * b, prod),
                      (a.substitute(**values), sub),
                      (poly_from_counter(Counter({(*e, s): c for (e, s), c in signed.items()})),
                       net)]:
        assert got.terms == {e: c for e, c in want.items() if c}
        assert 0 not in got.terms.values()


@given(small_polys, st.integers(0, 4))
@settings(max_examples=40)
def test_power_is_iterated_product(a, k):
    expect = MultiPoly.one()
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect


@given(st.integers(0, 12))
def test_q_integer_recurrence(k):
    assert q_integer(k + 1) == q_integer(k) + MultiPoly.term(1, q=k)


# ---------------------------------------------------------------------------
# signed enumerators (small; full scale in acceptance)
# ---------------------------------------------------------------------------

def test_signed_trivariate_small():
    assert signed_trivariate(1) == MultiPoly.one()
    assert signed_trivariate(2).pretty() == "1 - t*p*q"
    want = (MultiPoly.one() - MultiPoly.term(1, t=1, p=1, q=1)) ** 3
    assert signed_trivariate(4) == want


def test_signed_drops_small():
    assert signed_drops("S", 3) == one_minus("q", 2)
    assert signed_drops("B", 2) == one_minus("q", 2)
    got = signed_drops("D", 2)
    assert got.pretty() == "1 - q - q^3 + q^4"
    assert got == (MultiPoly.one() - MultiPoly.term(1, q=3)) * one_minus("q", 1)
    with pytest.raises(ValueError):
        signed_drops("A", 3)


@pytest.mark.parametrize("enumerate_, args, message", [
    (signed_drops, ("D", 0), "D_n needs n >= 2"),
    (signed_drops, ("D", 1), "D_n needs n >= 2"),
    (signed_drops, ("D", -1), "n must be >= 0"),
    (signed_drops, ("B", -1), "n must be >= 0"),
    (signed_trivariate, (-1,), "n must be >= 0"),
    (drops_poly, ("A", -2), "n must be >= 0"),
    (dep_inv_poly, (-1,), "n must be >= 0"),
])
def test_enumerators_refuse_sizes_out_of_range(enumerate_, args, message):
    with pytest.raises(ValueError) as exc:
        enumerate_(*args)
    assert str(exc.value) == message


def test_enumerators_accept_n_zero():
    for poly in (signed_trivariate(0), signed_drops("B", 0), drops_poly("A", 0)):
        assert poly == MultiPoly.one()


def test_dep_inv_poly_small():
    assert dep_inv_poly(0) == MultiPoly.one()
    assert dep_inv_poly(1) == MultiPoly.one()
    assert dep_inv_poly(2) == MultiPoly.one() + MultiPoly.term(1, x=1, q=1)
    assert dep_inv_poly(3).pretty() == "1 + 2*q*x + 2*q^2*x^2 + q^3*x^2"


def test_bivariate_identity_small():
    # sum q^depth t^exc == sum q^drops t^des over S_n
    assert all(r.ok for r in run_claim("thm1.1", ns=(1, 3, 5), threads=1))


# ---------------------------------------------------------------------------
# continued fraction
# ---------------------------------------------------------------------------
#
# The oracle: truncated-series arithmetic and the literal bottom-up
# evaluation of the J-fraction, against which the path transfer in
# jfraction_convergent is checked.

class OracleSeries(TruncatedSeries):
    __slots__ = ()

    def __add__(self, other):
        out = OracleSeries(self.order)
        for i in range(self.order + 1):
            out.coeffs[i] = self.coeffs[i] + other.coeffs[i]
        return out

    def __sub__(self, other):
        out = OracleSeries(self.order)
        for i in range(self.order + 1):
            out.coeffs[i] = self.coeffs[i] - other.coeffs[i]
        return out

    def __mul__(self, other):
        out = OracleSeries(self.order)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out.coeffs[i + j] = out.coeffs[i + j] + a * b
        return out

    def shift(self, k):
        """Multiply by t^k."""
        out = OracleSeries(self.order)
        for i in range(self.order + 1 - k):
            out.coeffs[i + k] = self.coeffs[i]
        return out

    def scale_poly(self, f):
        out = OracleSeries(self.order)
        for i, a in enumerate(self.coeffs):
            if a:
                out.coeffs[i] = a * f
        return out

    def inverse(self):
        """Multiplicative inverse; the constant term must be 1."""
        if self.coeffs[0] != MultiPoly.one():
            raise ValueError("series inverse needs constant term 1")
        out = OracleSeries.one(self.order)
        for k in range(1, self.order + 1):
            acc = MultiPoly.zero()
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out.coeffs[k - j]
            out.coeffs[k] = -acc
        return out


def _cfrac_c(k):
    return MultiPoly.term(1, x=k, q=k) * (q_integer(k) + q_integer(k + 1))


def _cfrac_b(m):
    return MultiPoly.term(1, x=2 * m - 1, q=2 * m - 1) * (q_integer(m) ** 2)


def bottom_up_convergent(order):
    """1 / (1 - c_0 t - b_1 t^2 / (1 - c_1 t - ...)) from depth order + 1 up."""
    tail = OracleSeries.one(order)
    for k in range(order, -1, -1):
        den = OracleSeries(order, [MultiPoly.one(), -_cfrac_c(k)])
        den = den - tail.scale_poly(_cfrac_b(k + 1)).shift(2)
        tail = den.inverse()
    return tail


def test_jfraction_low_coefficients():
    series = jfraction_convergent(3)
    assert series.coefficient(0) == MultiPoly.one()
    assert series.coefficient(2) == dep_inv_poly(2)
    t3 = series.coefficient(3)
    want = (MultiPoly.one()
            + MultiPoly.term(2, x=1, q=1)
            + MultiPoly.term(2, x=2, q=2)
            + MultiPoly.term(1, x=2, q=3))
    assert t3 == want


def test_jfraction_order_zero_is_one():
    assert jfraction_convergent(0) == TruncatedSeries.one(0)


def test_jfraction_refuses_negative_order():
    with pytest.raises(ValueError):
        jfraction_convergent(-1)


def test_jfraction_matches_enumeration_to_6():
    series = jfraction_convergent(6)
    for n in range(7):
        assert series.coefficient(n) == dep_inv_poly(n)


@pytest.mark.parametrize("order", [
    *range(10), pytest.param(10, marks=pytest.mark.slow)])
def test_jfraction_equals_the_bottom_up_oracle(order):
    got = jfraction_convergent(order)
    want = bottom_up_convergent(order)
    for k in range(order + 1):
        assert got.coefficient(k) == want.coefficient(k), k


def test_path_sums_equal_the_convergent_to_8():
    series = jfraction_convergent(8)
    for n in range(9):
        total = MultiPoly.zero()
        for steps in motzkin_paths(n):
            total = total + per_path_enumerator(steps)
        assert total == series.coefficient(n), n


def test_step_weight():
    assert _step_weight("N", 0) == MultiPoly.one()
    assert _step_weight("S", 0) == MultiPoly.zero()
    assert _step_weight("E", 0) == MultiPoly.one()
    assert _step_weight("E", 1).pretty() == "2*q*x + q^2*x"
    assert _step_weight("S", 2) == MultiPoly.term(1, x=2, q=2) * q_integer(2)


# Beyond the exhaustive range: expected values from plain integer lists,
# with no package code.

def _q_factorial(n):
    # coefficient list of [1]_q [2]_q ... [n]_q
    out = [1]
    for k in range(1, n + 1):
        nxt = [0] * (len(out) + k - 1)
        for i, c in enumerate(out):
            for j in range(k):
                nxt[i + j] += c
        out = nxt
    return out


@pytest.fixture(scope="module")
def convergent_20():
    return jfraction_convergent(20)


def test_convergent_at_x1_is_the_q_factorial_to_20(convergent_20):
    for n in range(21):
        got = convergent_20.coefficient(n).substitute(x=1).univariate("q")
        want = {k: c for k, c in enumerate(_q_factorial(n)) if c}
        assert got == want, n


def test_depth_moments_at_q1_to_20(convergent_20):
    # the criterion-12d closed form for depth, beyond the sweeps of S_n
    for n in range(9, 21):
        dist = convergent_20.coefficient(n).substitute(q=1).univariate("x")
        total = sum(dist.values())
        assert total == math.factorial(n)
        mean = Fraction(sum(k * c for k, c in dist.items()), total)
        second = Fraction(sum(k * k * c for k, c in dist.items()), total)
        assert mean == Fraction(n * n - 1, 6), n
        assert second - mean * mean == Fraction((n + 1) * (2 * n * n + 7), 180), n


def test_series_arithmetic():
    one = OracleSeries.one(4)
    t = OracleSeries(4, [MultiPoly.zero(), MultiPoly.one()])
    geom = (one - t).inverse()
    for k in range(5):
        assert geom.coefficient(k) == MultiPoly.one()
    assert (one - t) * geom == TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        t.inverse()
    with pytest.raises(ValueError):
        geom.coefficient(5)


def test_series_mul_is_truncated_convolution():
    a = OracleSeries(2, [MultiPoly.one(), MultiPoly.term(1, q=1)])
    b = OracleSeries(2, [MultiPoly.one(), MultiPoly.term(1, x=1)])
    c = a * b
    assert c.coefficient(1) == MultiPoly.term(1, q=1) + MultiPoly.term(1, x=1)
    assert c.coefficient(2) == MultiPoly.term(1, q=1, x=1)


# ---------------------------------------------------------------------------
# descent blocks and MAD
# ---------------------------------------------------------------------------

def test_descent_blocks():
    assert descent_blocks((2, 3, 1)) == [(2,), (3, 1)]
    assert descent_blocks((3, 2, 1)) == [(3, 2, 1)]
    assert descent_blocks((1, 2, 3)) == [(1,), (2,), (3,)]


def test_right_embracings():
    # the letter 2 is embraced by the later block (3,1)
    assert right_embracings((2, 3, 1)) == (1, 0, 0)
    assert right_embracings((3, 2, 1)) == (0, 0, 0)


@pytest.mark.parametrize("w, want", [
    ((1, 2, 3), 0),
    ((2, 3, 1), 3),
    ((3, 2, 1), 2),
    ((4, 1, 5, 2, 3), 7),
])
def test_mad(w, want):
    assert mad(w) == want


def _mad_oracle(w):
    return pc.drops(w) + sum(right_embracings(w))


def test_mad_equals_drops_plus_embracings_on_s1_to_s8(groups):
    for n in range(1, 9):
        for w in groups["S"](n):
            assert mad(w) == _mad_oracle(w), w


@given(st.integers(9, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_mad_equals_drops_plus_embracings_up_to_n20(lst):
    assert mad(tuple(lst)) == _mad_oracle(tuple(lst))


def test_mad_and_blocks_of_the_empty_window():
    assert descent_blocks(()) == []
    assert right_embracings(()) == ()
    assert mad(()) == 0
    assert drops_mad_poly(0) == MultiPoly.one()


def test_drops_mad_equidistribution_small():
    # two transfers with unrelated steps: (drops, mad) and (depth, inv)
    for n in range(1, 9):
        assert drops_mad_poly(n) == dep_inv_poly(n)


# ---------------------------------------------------------------------------
# per-path enumerators
# ---------------------------------------------------------------------------

def test_per_path_examples():
    assert per_path_enumerator("EEE") == MultiPoly.one()
    assert per_path_enumerator("NS") == MultiPoly.term(1, x=1, q=1)
    got = per_path_enumerator("NES")
    want = MultiPoly.term(2, x=2, q=2) + MultiPoly.term(1, x=2, q=3)
    assert got == want
    with pytest.raises(ValueError):
        per_path_enumerator("NEDS")


def test_per_path_matches_preimages(groups):
    for n in range(1, 6):
        agg = {}
        for w in groups["S"](n):
            key = fz_history(w).shape
            agg.setdefault(key, Counter())[0, 0, pc.inv(w), pc.depth(w), 0] += 1
        for steps in motzkin_paths(n):
            want = poly_from_counter(agg.get(steps, Counter()))
            assert per_path_enumerator(steps) == want


# ---------------------------------------------------------------------------
# moments and the even subgroup
# ---------------------------------------------------------------------------

def test_moments_examples():
    assert drops_moments("S", 1) == (Fraction(0), Fraction(0))
    assert drops_moments("S", 3) == (Fraction(4, 3), Fraction(5, 9))
    for n in range(1, 8):
        mean, _ = drops_moments("S", n)
        assert mean == Fraction(n * n - 1, 6)


def test_even_subgroup_moments_match():
    for n in (4, 5, 6):
        assert drops_moments("A", n) == drops_moments("S", n)
    # at n = 2, 3 the even subgroup is too small for the moments to agree
    assert drops_moments("A", 3) != drops_moments("S", 3)


def test_even_subgroup_drops_identity():
    # 2 * (drops enumerator of A_n) = (enumerator of S_n) + (1-q)^(n-1)
    for n in range(1, 9):
        poly = drops_poly("A", n)
        lhs = poly + poly
        rhs = drops_poly("S", n) + one_minus("q", n - 1)
        assert lhs == rhs


def test_total_mass():
    for n in (1, 3, 5):
        dist = drops_poly("S", n).univariate("q")
        assert sum(dist.values()) == math.factorial(n)
