"""Differential tests of the F{tau} fast paths over prime and extension
fields: powers by a power of the characteristic (computed by substitution
in ``Poly.__pow__``) against square-and-multiply, and Horner phi_of
against the sum of powers of phi_t."""

import random

import pytest

from drinfeld.base import rational_function_field
from drinfeld.poly import PolyRing
from drinfeld.dmod import random_module

QS = (2, 3, 4, 9)


def _ref_pow(x, n, one):
    """x**n by square-and-multiply, using only ``*``."""
    result, base = one, x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _samples(F, rng):
    A = F.ring
    base = F.base_field
    xs = [F.zero, F.one, F.t, F(base.random_element(rng, nonzero=True))]
    xs += [F.random_element(rng, 2) for _ in range(4)]
    if F.q > 2:
        # numerator with a leading coefficient other than 1
        lead = base.random_element(rng, nonzero=True)
        while lead == base.one:
            lead = base.random_element(rng, nonzero=True)
        num = A.from_coeffs([base.one, base.zero, lead])
        den = A.random_element(rng, 2, nonzero=True, monic=True)
        xs.append(F.make(num, den))
    return xs


@pytest.mark.parametrize("q", QS)
def test_ratfunc_power_matches_reference(q):
    F = rational_function_field(q)
    rng = random.Random(100 + q)
    for x in _samples(F, rng):
        for k in range(4):
            n = q**k
            xn = x**n
            assert xn == _ref_pow(x, n, F.one)
            # canonical without a gcd: monic denominator
            assert xn.is_zero or xn.den.is_monic


@pytest.mark.parametrize("q", QS)
def test_poly_power_matches_reference(q):
    F = rational_function_field(q)
    A = F.ring
    Fx = PolyRing(rational_function_field(q), "x")
    rng = random.Random(200 + q)
    p = A.characteristic
    # p-powers take the substitution path, the others square-and-multiply;
    # over F the reference products need gcds, so b stops at n = p
    exponents = (0, 1, 2, 3, 5, p, p * p, q**2)
    for _ in range(4):
        a = A.random_element(rng, 4)
        b = Fx.from_coeffs([F.random_element(rng, 1) for _ in range(3)])
        for n in exponents:
            assert a**n == _ref_pow(a, n, A.one)
            if n <= p:
                assert b**n == _ref_pow(b, n, Fx.one)


# Horner phi_of against sum_k c_k phi_t^k.  q = 9 stops at deg a = 2 to
# keep the Frobenius powers in the reference (9^4 at deg 3) small.
@pytest.mark.parametrize("q,max_deg", [(2, 3), (3, 3), (4, 3), (9, 2)])
def test_phi_of_matches_power_sum(q, max_deg):
    F = rational_function_field(q)
    A = F.ring
    rng = random.Random(300 + q)
    phi = random_module(F, q, 2, rng, max_degree=1)
    phit = phi.phi_t
    powers = [phi.skew.one]
    for _ in range(max_deg):
        powers.append(powers[-1] * phit)
    for deg in range(max_deg + 1):
        for _ in range(2):
            a = A.random_element(rng, deg)
            ref = phi.skew.zero
            for k, c in enumerate(a.coeffs):
                ref = ref + phi.skew.constant(F(c)) * powers[k]
            assert phi.phi_of(a) == ref
