"""
The subset-transfer enumerators of genpoly against exhaustive sweeps of
their key hooks, and against the closed forms past the sweep range.

Every route is held to perm_core._count, the element-wise count, on every
group small enough to sweep here; beyond that its closed form is built from
binomial coefficients in plain ints, with no MultiPoly arithmetic.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxdrops import genpoly as gp
from coxdrops import perm_core as pc
from coxdrops import verify
from oracles import right_embracings

SWEPT = {"S": range(0, 9), "A": range(0, 9), "B": range(0, 7), "D": range(2, 7)}


def unsigned_drops_key(w):
    return 0, 0, pc.drops(w), 0, 0


def drops_mad_key(w):
    # mad from its definition: drops plus the right embracings
    return 0, 0, pc.drops(w) + sum(right_embracings(w)), pc.drops(w), 0


# (name, route, key hook, groups)
ROUTES = (
    ("signed_trivariate", lambda kind, n: gp.signed_trivariate(n),
     verify.trivariate_key, "S"),
    ("signed_drops", gp.signed_drops, verify.drops_key_s, "S"),
    ("signed_drops", gp.signed_drops, verify.drops_key_b, "B"),
    ("signed_drops", gp.signed_drops, verify.drops_key_d, "D"),
    ("drops_poly", gp.drops_poly, unsigned_drops_key, "SA"),
    ("dep_inv_poly", lambda kind, n: gp.dep_inv_poly(n), verify._dep_inv_key, "S"),
    ("drops_mad_poly", lambda kind, n: gp.drops_mad_poly(n), drops_mad_key, "S"),
)


@functools.lru_cache(maxsize=None)
def swept(kind, n, hook):
    return gp.poly_from_counter(pc._count(kind, n, hook, 0, 1))


def _cases():
    for name, route, hook, kinds in ROUTES:
        for kind in kinds:
            for n in SWEPT[kind]:
                yield pytest.param(route, hook, kind, n, id=f"{name}-{kind}{n}")


@pytest.mark.parametrize("route, hook, kind, n", _cases())
def test_transfer_equals_the_element_wise_sweep(route, hook, kind, n):
    assert route(kind, n) == swept(kind, n, hook)


@pytest.mark.parametrize("kind, n", [(k, n) for k in "SA" for n in SWEPT[k]])
def test_drops_moments_equal_those_of_the_sweep(kind, n):
    want = gp.mean_variance(swept(kind, n, unsigned_drops_key).univariate("q"))
    assert gp.drops_moments(kind, n) == want


def _no_sweep(*args, **kwargs):
    raise AssertionError("an element-wise route ran")


def test_enumerators_visit_no_element(monkeypatch):
    monkeypatch.setattr(pc, "sweep", _no_sweep)
    monkeypatch.setattr(pc, "_count", _no_sweep)
    monkeypatch.setattr(pc, "iter_group", _no_sweep)
    assert gp.signed_trivariate(5).terms == trivariate_terms(5)
    assert gp.signed_drops("S", 5).terms == q_terms(binomial_q(4))
    assert gp.signed_drops("B", 4).terms == q_terms(binomial_q(4))
    assert gp.signed_drops("D", 4).terms == q_terms(type_d_q(4))
    # A_3 is 123, 231 and 312
    assert gp.drops_poly("A", 3).terms == {(0, 0, 0, 0): 1, (0, 0, 2, 0): 2}
    assert gp.drops_moments("A", 5) == moments(5)
    assert sum(gp.dep_inv_poly(5).terms.values()) == 120
    assert sum(gp.drops_mad_poly(5).terms.values()) == 120


def test_cfrac_sweeps_the_hook_with_the_thread_count(monkeypatch):
    calls = []

    def sweep(kind, n, hook, threads=1):
        calls.append((kind, n, hook, threads))
        return pc.sweep(kind, n, hook)

    monkeypatch.setattr(verify, "sweep", sweep)
    monkeypatch.setattr(gp, "_transfer", _no_sweep)
    (report,) = verify.run_claim("cfrac", ns=(5,), threads=3)
    assert report.ok
    assert calls == [("S", 5, verify._dep_inv_key, 3)]


# ---------------------------------------------------------------------------
# past the sweep range: closed forms in plain ints
# ---------------------------------------------------------------------------

def binomial_q(power):
    # (1 - q)^power as exponent -> coefficient
    return {k: (-1) ** k * math.comb(power, k) for k in range(power + 1)}


def type_d_q(n):
    # (1 - q^3)(1 - q)^(n-1)
    out = binomial_q(n - 1)
    for k, c in binomial_q(n - 1).items():
        out[k + 3] = out.get(k + 3, 0) - c
    return {k: c for k, c in out.items() if c}


def q_terms(dist):
    return {(0, 0, k, 0): c for k, c in dist.items()}


def trivariate_terms(n):
    # (1 - tpq)^(n-1)
    return {(k, k, k, 0): c for k, c in binomial_q(n - 1).items()}


def moments(n):
    return Fraction(n * n - 1, 6), Fraction((n + 1) * (2 * n * n + 7), 180)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_signed_trivariate_past_the_sweep_range(n):
    assert gp.signed_trivariate(n).terms == trivariate_terms(n)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_signed_drops_s_past_the_sweep_range(n):
    assert gp.signed_drops("S", n).terms == q_terms(binomial_q(n - 1))


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_signed_drops_b_past_the_sweep_range(n):
    assert gp.signed_drops("B", n).terms == q_terms(binomial_q(n))


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_signed_drops_d_past_the_sweep_range(n):
    assert gp.signed_drops("D", n).terms == q_terms(type_d_q(n))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_drops_moments_a_past_the_sweep_range(n):
    assert gp.drops_moments("A", n) == moments(n)


# ---------------------------------------------------------------------------
# the widest coefficients: what a too-narrow q-digit would corrupt
# ---------------------------------------------------------------------------

def mahonian(n):
    # the product of [k]_q over k = 1..n, by list convolution
    out = [1]
    for k in range(1, n + 1):
        out = [sum(out[j - i] for i in range(k) if 0 <= j - i < len(out))
               for j in range(len(out) + k - 1)]
    return {e: c for e, c in enumerate(out) if c}


@pytest.mark.parametrize("n", [9, 10, 11])
def test_dep_inv_at_x1_is_the_mahonian_product_past_the_sweep_range(n):
    assert gp.dep_inv_poly(n).substitute(x=1).terms == q_terms(mahonian(n))


@pytest.mark.parametrize("n", [9, 10, 11])
def test_drops_mad_is_the_jfraction_coefficient_past_the_sweep_range(n):
    # (drops, mad) by the subset transfer against (depth, inv) by the path
    # transfer, two unrelated routes
    assert gp.drops_mad_poly(n) == gp.jfraction_convergent(n).coefficient(n)


def fold(w):
    # the (q, x) exponents that the drops-mad step adds up over the window
    # w, with prev and used as _transfer keeps them
    q = x = prev = used = 0
    for i, v in enumerate(w, 1):
        _, _, dq, dx, _ = gp._STEPS["drops-mad"](i, prev, v, (used >> abs(v)).bit_count(), used)
        q, x, prev, used = q + dq, x + dx, v, used | 1 << abs(v)
    return q, x


@given(st.integers(9, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_the_drops_mad_step_folds_to_mad_and_drops_up_to_n30(w):
    assert fold(w) == (gp.mad(w), pc.drops(w))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_drops_poly_s_past_the_sweep_range(n):
    dist = gp.drops_poly("S", n).univariate("q")
    assert sum(dist.values()) == math.factorial(n)
    assert gp.mean_variance(dist) == moments(n)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_drops_poly_a_past_the_sweep_range(n):
    # A_n holds the even half of S_n: half the sum of the unsigned and the
    # signed S_n distributions, the latter (1 - q)^(n-1)
    both = gp.drops_poly("S", n).univariate("q")
    for k, c in binomial_q(n - 1).items():
        both[k] = both.get(k, 0) + c
    doubled = {k: 2 * c for k, c in gp.drops_poly("A", n).univariate("q").items()}
    assert doubled == {k: c for k, c in both.items() if c}


@pytest.mark.parametrize("w", [2, 5, 21])
def test_digits_decode_balanced_digits(w):
    top = (1 << w - 1) - 1                     # the widest coefficient allowed
    for poly in ({}, {0: top}, {0: -top}, {0: top, 3: -top}, {1: 1, 4: -top},
                 {0: -1, 2: top, 5: -1}, {3: -top}):
        packed = sum(c << e * w for e, c in poly.items())
        assert gp._digits(packed, w) == poly


@pytest.mark.parametrize("kind, n", [(k, n) for k in "SA" for n in range(1, 10)]
                         + [(k, n) for k in "BD" for n in range(2, 7)])
def test_transfer_holds_the_whole_group_on_one_coefficient(kind, n, monkeypatch):
    # every element gets (-1)^n q^3, so one coefficient is +-|group|, the
    # largest a state can hold
    monkeypatch.setitem(gp._STEPS, "flat", lambda i, prev, v, above, used: (0, 0, 3 * (i == 1), 0, 1))
    order = pc.group_order(kind, n)
    assert gp._transfer(kind, n, "flat").terms == {(0, 0, 3, 0): (-1) ** n * order}


# ---------------------------------------------------------------------------
# the even halves ride in the key: A_n and D_n cost what S_n and B_n do
# ---------------------------------------------------------------------------

def count_steps(monkeypatch, *stats):
    calls = []
    for stat in stats:
        step = gp._STEPS[stat]
        monkeypatch.setitem(gp._STEPS, stat,
                            lambda *args, step=step: calls.append(args) or step(*args))
    return calls


def test_d_n_makes_the_steps_of_b_n(monkeypatch):
    steps = count_steps(monkeypatch, "D")
    assert gp.signed_drops("D", 7).terms == q_terms(type_d_q(7))
    assert len(steps) == 5390                 # B_7's count


def test_drops_poly_a_is_one_transfer(monkeypatch):
    steps = count_steps(monkeypatch, "unsigned", "S")
    transfers = []
    transfer = gp._transfer
    monkeypatch.setattr(gp, "_transfer",
                        lambda *args, **kwargs: transfers.append(args) or transfer(*args, **kwargs))
    assert gp.drops_moments("A", 9) == moments(9)
    assert len(transfers) == 1 and len(steps) == 9225
