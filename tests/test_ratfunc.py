"""Canonical-form rational functions: field axioms and normalization."""

import random
import re

import pytest

from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.poly import PolyRing, poly_gcd
from drinfeld.ratfunc import FractionField


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_field_axioms_random(q):
    F = rational_function_field(q)
    rng = random.Random(111)
    for _ in range(60):
        a = F.random_element(rng, 3)
        b = F.random_element(rng, 3)
        c = F.random_element(rng, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == F.zero
        if not a.is_zero:
            assert a * a.inverse() == F.one
            assert (b / a) * a == b


def test_canonical_form():
    F = rational_function_field(3)
    A = F.ring
    t = A.gen()
    x = F.make(t**2 - A.one, t + A.one)
    # reduced: (t-1)(t+1)/(t+1) = t-1
    assert x.den == A.one
    assert x.num == t - A.one
    # monic denominator
    y = F.make(A.one, A.monomial(F.base_field(2), 1))
    assert y.den.is_monic


def test_pow_and_structure():
    F = rational_function_field(2)
    t = F.t
    x = (t + 1) / (t**2 + t + 1)
    assert x**0 == F.one
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    assert x.deg_infinity() == -1


@pytest.mark.parametrize("q_ring, q_field", [(2, 3), (2, 4), (4, 2)])
def test_make_and_from_poly_refuse_another_ring(q_ring, q_field):
    A, F = poly_ring_A(q_ring), rational_function_field(q_field)
    t = A.gen()
    message = re.escape(f"element of {A!r}, not of {F.ring!r}")
    with pytest.raises(ValueError, match=message):
        F.make(t, t + A.one)
    with pytest.raises(ValueError, match=message):
        F.make(F.ring.gen(), t)
    with pytest.raises(ValueError, match=message):
        F.from_poly(t)


@pytest.mark.parametrize("q", [2, 9])
def test_fraction_field_of_a_ring_not_over_F_q_is_refused(q):
    """F's arithmetic runs on the codes of F_q[t], so a fraction field of
    F[x] or A[x] is refused when it is built, naming the ring."""
    for ring in (
        PolyRing(rational_function_field(q), "x"),
        PolyRing(poly_ring_A(q), "x"),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(ring))):
            FractionField(ring)
    F = FractionField(poly_ring_A(q))
    assert (F.t * F.t).num == poly_ring_A(q).gen() ** 2


def test_zero_division():
    F = rational_function_field(2)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        F.make(F.ring.one, F.ring.zero)


def _elements(F, rng, count):
    """Random elements of F: zero, polynomials and proper fractions."""
    A = F.ring
    out = [F.zero, F.one]
    for i in range(count):
        if i % 3 == 0:
            out.append(F.from_poly(A.random_element(rng, 3)))
        else:
            out.append(F.random_element(rng, 3))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_mul_matches_make_of_products(q):
    """The cross-cancelling product (which skips gcds against constant
    denominators) agrees with canonicalizing the plain products."""
    F = rational_function_field(q)
    xs = _elements(F, random.Random(200 + q), 24)
    for x in xs:
        for y in xs[::3]:
            assert x * y == F.make(x.num * y.num, x.den * y.den)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_clear_denominators_matches_multiplication(q):
    F = rational_function_field(q)
    A = F.ring
    rng = random.Random(300 + q)
    assert F.clear_denominators([]) == ([], A.one)
    for _ in range(15):
        xs = _elements(F, rng, rng.randint(0, 5))
        rng.shuffle(xs)
        polys, den = F.clear_denominators(xs)
        assert den.is_monic
        assert all(F.from_poly(p) == x * F.from_poly(den) for p, x in zip(polys, xs))
        # den is the lcm: every denominator divides it, and it is the least
        lcm = A.one
        for x in xs:
            lcm = (lcm * x.den).exact_div(poly_gcd(lcm, x.den))
        assert den == lcm


def test_clear_denominators_skips_gcd_on_repeated_denominator(monkeypatch):
    import drinfeld.ratfunc as ratfunc

    F = rational_function_field(3)
    t = F.t
    d = t**2 + F.one
    xs = [F.one / d, t / d, (t + F.one) / d]
    calls = []
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda a, b: calls.append(1) or poly_gcd(a, b))
    polys, den = F.clear_denominators(xs)
    # one gcd for the first denominator; the repeats leave the lcm as it is
    assert len(calls) == 1
    assert den == d.num and polys == [x.num for x in xs]
