"""Twisted polynomial rings: commutation, composition, right division."""

import random

import pytest

from drinfeld import skew_ring
from drinfeld.base import rational_function_field


def _setup(q):
    F = rational_function_field(q)
    return F, skew_ring(F, q)


def test_commutation_rule():
    F, S = _setup(2)
    t = F.t
    tau = S.tau()
    c = S.constant(t)
    assert tau * c == S.monomial(t**2, 1)


def test_product_example():
    F, S = _setup(2)
    t = F.t
    a = S([F.one, F.one])  # tau + 1
    b = S([t, F.one])  # tau + t
    ab = a * b
    assert ab == S([t, t**2 + 1, F.one])
    assert S.one * b == b
    assert b * S.one == b


# q = 9 is left out: it evaluates x^(9^4) on rational functions, which
# takes minutes
@pytest.mark.parametrize("q", [2, 3, 4])
def test_multiplication_is_composition(q):
    """a*b acts on points as the composite additive polynomial."""
    F, S = _setup(q)
    rng = random.Random(51)
    for _ in range(25):
        a = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        b = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        x = F.random_element(rng, 2)
        assert (a * b).evaluate(x) == a.evaluate(b.evaluate(x))


@pytest.mark.parametrize("q", [2, 3])
def test_additive_action(q):
    F, S = _setup(q)
    rng = random.Random(52)
    for _ in range(25):
        f = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        x = F.random_element(rng, 2)
        y = F.random_element(rng, 2)
        assert f.evaluate(x + y) == f.evaluate(x) + f.evaluate(y)


def test_right_divmod_cases():
    F, S = _setup(2)
    t = F.t
    a = S([t, t**2 + 1, F.one])
    b = S([t, F.one])
    quo, rem = a.right_divmod(b)
    assert quo == S([F.one, F.one])
    assert rem.is_zero
    # deg a < deg b
    quo, rem = b.right_divmod(a)
    assert quo.is_zero and rem == b
    # a = b
    quo, rem = a.right_divmod(a)
    assert quo == S.one and rem.is_zero


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_right_divmod_random(q):
    F, S = _setup(q)
    rng = random.Random(53)
    for _ in range(40):
        a = S([F.random_element(rng, 2) for _ in range(rng.randrange(1, 5))])
        b = S([F.random_element(rng, 2) for _ in range(rng.randrange(1, 4))])
        if b.is_zero:
            continue
        quo, rem = a.right_divmod(b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.tau_degree < b.tau_degree


@pytest.mark.parametrize("q, field_q", [(3, 2), (2, 3), (2, 4), (4, 2)])
def test_ring_rejects_a_q_other_than_the_field_q(q, field_q):
    # tau = x^3 over F_2(t) is not additive: tau (t + 1) != tau t + tau 1
    with pytest.raises(ValueError, match="q"):
        skew_ring(rational_function_field(field_q), q)


def test_zero_division_raises():
    F, S = _setup(2)
    with pytest.raises(ZeroDivisionError):
        S.one.right_divmod(S.zero)
