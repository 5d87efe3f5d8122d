"""Quotient fields and the irreducibility / rational-root machinery."""

import random

import pytest

from drinfeld import QuotientField
from drinfeld.base import rational_function_field, x_ring_over_A, x_ring_over_F
from drinfeld.errors import IrreducibilityUncertain, RootExtractionFailure
from drinfeld.extfield import irreducible_over_F, rational_roots, to_A_x
from drinfeld.poly import content


def _L(q, build):
    F = rational_function_field(q)
    Fx = x_ring_over_F(q)
    return F, QuotientField(F, build(F, Fx))


def test_quotient_field_arithmetic():
    F, L = _L(2, lambda F, Fx: Fx.gen() ** 2 + Fx.gen() + Fx.constant(F.t))
    x = L.gen()
    assert x * x + x + L.t == L.zero
    rng = random.Random(101)
    for _ in range(20):
        a = L.random_element(rng, 2, nonzero=True)
        assert a * a.inverse() == L.one
        b = L.random_element(rng, 2)
        assert (a + b) * (a + b) == a * a + a * b + b * a + b * b


def test_quotient_field_rejects_reducible():
    F = rational_function_field(2)
    Fx = x_ring_over_F(2)
    with pytest.raises(ValueError):
        QuotientField(F, Fx.gen() ** 2 + Fx.constant(F.t**2))


def test_quotient_field_qth_root_unsupported():
    F, L = _L(2, lambda F, Fx: Fx.gen() ** 2 + Fx.gen() + Fx.constant(F.t))
    with pytest.raises(RootExtractionFailure):
        L.gen().qth_root()


def test_rational_roots():
    F = rational_function_field(2)
    Ax = x_ring_over_A(2)
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    f = (Ax.monomial(t, 1) - Ax.one) * (x - Ax.constant(t + A.one))
    roots = set(rational_roots(f, F))
    assert roots == {F.one / F.t, F.from_poly(t + A.one)}
    assert rational_roots(x**2 + Ax.constant(t), F) == []


@pytest.mark.parametrize("q", [2, 4])
def test_rational_roots_ignore_content(q):
    """The rational root test needs no primitive input: scaling g by a
    nonconstant c in A leaves the root set unchanged."""
    F = rational_function_field(q)
    Ax = x_ring_over_A(q)
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    c = t**2 + A.one
    g = (Ax.monomial(t, 1) - Ax.one) * (x - Ax.constant(t + A.one)) * x
    cg = g.scale(c)
    assert content(cg) == c
    assert set(rational_roots(cg, F)) == set(rational_roots(g, F))
    assert set(rational_roots(g, F)) == {F.zero, F.one / F.t, F.from_poly(t + A.one)}
    assert rational_roots((x**2 + Ax.constant(t)).scale(c), F) == []


def test_rational_roots_of_cleared_product_q4():
    """Over F_4(t): clear the denominators of a product of linear factors
    with rational roots, then recover exactly those roots."""
    F = rational_function_field(4)
    A = F.ring
    t = A.gen()
    u = F.base_field.generator_u()
    Fx = x_ring_over_F(4)
    roots = [
        F.make(t.scale(u), t + A.one),
        F.from_poly(t + A.constant(u)),
        F.one / F.t,
        F.zero,
    ]
    f = Fx.one
    for y in roots:
        f = f * (Fx.gen() - Fx.constant(y))
    f = f.scale(F.make(A.one, t**2 + A.constant(u)))
    g = to_A_x(f)
    assert g.ring.base is A and content(g) == A.one
    assert set(rational_roots(g, F)) == set(roots)
    assert len(rational_roots(g, F)) == len(roots)


def test_irreducibility_certificates():
    F = rational_function_field(2)
    Ax = x_ring_over_A(2)
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    # linear in x
    assert irreducible_over_F(x - Ax.constant(t))
    # degree <= 3 without rational roots
    assert irreducible_over_F(x**2 + Ax.monomial(t, 1) + Ax.constant(t))
    assert not irreducible_over_F((x - Ax.constant(t)) * (x - Ax.one))
    # linear in t with coprime t-coefficients (Gauss certificate)
    assert irreducible_over_F(x**7 + x - Ax.constant(t))
    # Eisenstein at the prime t
    assert irreducible_over_F(x**5 - Ax.constant(t))
    # content not 1 is rejected
    assert not irreducible_over_F(Ax.monomial(t, 1) + Ax.constant(t))


def test_irreducibility_uncertain():
    Ax = x_ring_over_A(2)
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    # degree 4 in x, quadratic in t, neither Gauss nor Eisenstein applies
    f = x**4 + Ax.constant(t**2) * x + Ax.constant(t**2 + A.one)
    with pytest.raises(IrreducibilityUncertain):
        irreducible_over_F(f)


@pytest.mark.parametrize("q", [2, 4])
def test_to_A_x_lands_in_the_shared_ring(q):
    F = rational_function_field(q)
    Fx = x_ring_over_F(q)
    Ax = x_ring_over_A(q)
    f = to_A_x(Fx.gen() ** 2 + Fx.constant(F.t))
    assert f.ring is Ax
    assert f == Ax.gen() ** 2 + Ax.constant(Ax.base.gen())
