"""Exhaustive field-axiom checks for the small coefficient fields."""

import pytest

from drinfeld import GF, ff
from drinfeld.errors import InvariantViolation


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_field_axioms_exhaustive(q):
    k = GF(q)
    elems = list(k.elements())
    assert len(elems) == q
    for a in elems:
        assert a + k.zero == a
        assert a * k.one == a
        assert a - a == k.zero
        if not a.is_zero:
            assert a * a.inverse() == k.one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_frobenius_is_additive(q):
    k = GF(q)
    p = k.p
    for a in k.elements():
        for b in k.elements():
            assert (a + b) ** p == a**p + b**p


def test_characteristic():
    assert GF(4).p == 2
    assert GF(4).e == 2
    assert GF(9).p == 3
    total = GF(3).zero
    for _ in range(3):
        total = total + GF(3).one
    assert total.is_zero


def test_generator_u_spans():
    k = GF(4)
    u = k.generator_u()
    seen = {k.zero, k.one, u, u * u}
    assert len(seen) == 4
    # u satisfies its defining quadratic: u^2 + u + 1 = 0 over F_2
    assert (u * u + u + k.one).is_zero


def test_element_codes_roundtrip():
    for q in (2, 3, 4):
        k = GF(q)
        for a in k.elements():
            assert k.element_from_code(a.code) == a


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        GF(6)


def test_no_irreducible_raises_domain_error(monkeypatch):
    """The "cannot happen" branch of the modulus search raises a
    DrinfeldError, which python -O keeps, not an AssertionError."""
    monkeypatch.setattr(ff, "_is_irreducible_mod_p", lambda m, p: False)
    with pytest.raises(InvariantViolation):
        ff._smallest_irreducible(2, 3)
