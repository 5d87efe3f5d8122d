"""Places of F_q(t): valuations, the product formula, Weil heights."""

import random
from fractions import Fraction

import pytest

from drinfeld import (
    Place,
    log_abs,
    parse_element,
    rational_function_field,
    valuation,
    weil_height,
)
from drinfeld.places import valuations
from drinfeld.base import poly_ring_A
from drinfeld.factor import factor


def test_log_abs_examples():
    F = rational_function_field(2)
    A = F.ring
    t = F.t
    assert log_abs(t, Place.infinity()) == 1
    assert log_abs(t, Place.finite(A.gen())) == -1

    F3 = rational_function_field(3)
    x = (F3.t + 1) / F3.t**2
    assert log_abs(x, Place.infinity()) == -1
    assert log_abs(x, Place.finite(F3.ring.gen())) == 2


def test_valuation_additivity():
    F = rational_function_field(3)
    A = F.ring
    rng = random.Random(31)
    prime = A.gen() + A.one
    for _ in range(50):
        a = F.random_element(rng, 3, nonzero=True)
        b = F.random_element(rng, 3, nonzero=True)
        assert valuation(a * b, prime) == valuation(a, prime) + valuation(b, prime)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_product_formula(q):
    F = rational_function_field(q)
    rng = random.Random(32)
    for _ in range(100):
        x = F.random_element(rng, 4, nonzero=True)
        places = [Place.infinity()] + list(valuations([x]))
        assert sum(log_abs(x, v) for v in places) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_valuations_match_valuation(q):
    """The table read off one factorization agrees with repeated division
    by each prime, p-th-power factors included."""
    F = rational_function_field(q)
    powers = {2: "(t+1)^2/t", 3: "t/(t+1)^3", 4: "t^4+u", 9: "(t^3+u)^3/(t^2+1)"}
    rng = random.Random(35 + q)
    for _ in range(20):
        xs = [F.random_element(rng, 4, nonzero=True) for _ in range(rng.randint(1, 3))]
        xs.append(parse_element(powers[q], F))
        table = valuations(xs)
        for v, vals in table.items():
            assert v == Place.finite(v.prime)
            assert vals == [valuation(x, v.prime) for x in xs]
            assert any(vals)
        # every prime of a numerator or denominator has a row
        for x in xs:
            for f in (x.num, x.den):
                for p, _ in factor(f)[1]:
                    assert Place(p) in table
    assert valuations([]) == {}
    with pytest.raises(ValueError):
        valuations([F.one, F.zero])


def test_place_keying():
    A = poly_ring_A(2)
    t = A.gen()
    with pytest.raises(ValueError):
        Place.finite(t**2)  # reducible
    with pytest.raises(ValueError):
        Place.finite(t + t)  # zero / nonmonic
    v = Place.finite(t**2 + t + A.one)
    assert v.degree == 2
    assert v == Place.finite(t**2 + t + A.one)
    assert v != Place.infinity()


def test_weil_height_examples():
    F = rational_function_field(2)
    t = F.t
    assert weil_height([F.one, t**3]) == 3
    a = t**2 + 1
    b = t**3 + t + 1
    assert weil_height([F.one, a / b]) == 3
    assert weil_height([t, t**2, F.one]) == 2
    # scaling invariance
    assert weil_height([F.one, t, F.one / t]) == 2


def test_weil_height_scaling_invariance_random():
    F = rational_function_field(3)
    rng = random.Random(33)
    for _ in range(30):
        coords = [F.random_element(rng, 2) for _ in range(3)]
        if all(c.is_zero for c in coords):
            continue
        c = F.random_element(rng, 2, nonzero=True)
        assert weil_height(coords) == weil_height([x * c for x in coords])


def _place_sum_height(coords):
    """The Weil height as a sum over places: max_i log|x_i|_v at infinity
    and at every finite place in the support of the tuple."""
    nonzero = [x for x in coords if not x.is_zero]
    total = Fraction(0)
    for v in [Place.infinity()] + list(valuations(nonzero)):
        total += max(log_abs(x, v) for x in nonzero)
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_weil_height_matches_place_sum(q):
    F = rational_function_field(q)
    rng = random.Random(34 + q)
    t = F.t
    cases = [[F.one, F.zero], [F.zero, t**2 / (t + 1)], [t, t**2, F.one / t]]
    for _ in range(25):
        coords = [F.random_element(rng, 3) for _ in range(rng.randint(1, 4))]
        if any(not x.is_zero for x in coords):
            cases.append(coords)
    for coords in cases:
        assert weil_height(coords) == _place_sum_height(coords)
    with pytest.raises(ValueError):
        weil_height([F.zero, F.zero])
