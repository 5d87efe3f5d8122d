"""Places of F_q(t): coprime bases, valuations, the product formula,
Weil heights."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Place,
    log_abs,
    parse_element,
    rational_function_field,
    valuation,
    weil_height,
)
from drinfeld.places import coprime_base, newton_slopes, valuation_base
from drinfeld.base import poly_ring_A
from drinfeld.factor import factor
from drinfeld.poly import PolyRing, poly_gcd

QS = (2, 3, 4, 9)

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


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


def _support(xs):
    """Infinity and every prime of a numerator or denominator of the
    nonzero xs, found by factoring each one."""
    primes = {p: True for x in xs for f in (x.num, x.den) for p, _ in factor(f)[1]}
    return [Place.infinity()] + [Place(p) for p in primes]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_product_formula(q):
    F = rational_function_field(q)
    rng = random.Random(32)
    for _ in range(100):
        x = F.random_element(rng, 4, nonzero=True)
        assert sum(log_abs(x, v) for v in _support([x])) == 0


@st.composite
def _refinement_inputs(draw):
    """(A, pieces, the same pieces reordered): each f is a unit times a
    product of powers of a few shared atoms, one atom a p-th power (so
    in A[t^p]); an exponent of 0 everywhere gives a unit, and the first
    f may come twice with another vector."""
    q = draw(st.sampled_from(QS))
    A = poly_ring_A(q)
    atom_codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=4)
    atoms = [A.from_codes(cs) or A.one for cs in draw(st.lists(atom_codes, min_size=1, max_size=3))]
    atoms.append(atoms[-1] ** A.characteristic)
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        f = A.constant(A.base.element_from_code(draw(st.integers(1, q - 1))))
        for atom in atoms:
            for _ in range(draw(st.integers(0, 2))):
                f = f * atom
        pieces.append((f, draw(vector)))
    if draw(st.booleans()):
        pieces.append((pieces[0][0], draw(vector)))
    order = draw(st.permutations(range(len(pieces))))
    return A, pieces, [pieces[k] for k in order]


def _power_products(A, pairs, j):
    """(prod of f^e_j over e_j > 0, prod of f^-e_j over e_j < 0), monic."""
    num = den = A.one
    for f, e in pairs:
        for _ in range(abs(e[j])):
            if e[j] > 0:
                num = num * f
            else:
                den = den * f
    return num.monic(), den.monic()


@settings(PROPERTY)
@given(_refinement_inputs())
def test_coprime_base_refines(inputs):
    A, pieces, reordered = inputs
    base = coprime_base(pieces)
    for k, (b, v) in enumerate(base):
        assert b.is_monic and b.degree > 0 and any(v)
        assert all(poly_gcd(b, c).degree == 0 for c, _ in base[k + 1:])
    for j in range(len(pieces[0][1])):
        num, den = _power_products(A, pieces, j)
        bnum, bden = _power_products(A, base, j)
        assert num * bden == bnum * den
    assert coprime_base(reordered) == base


def test_coprime_base_examples():
    A = poly_ring_A(2)
    t, one = A.gen(), A.one
    P, Q, R = t, t + one, t**2 + t + one
    # refinement merges a shared factor and keeps the vectors summed
    assert coprime_base([(P**2 * Q, [1]), (P, [1])]) == [(P, [3]), (Q, [1])]
    # a factor whose vector sums to zero still splits its neighbours, so
    # the result does not depend on the order in which it meets them
    pieces = [(P * Q, [1, 0]), (P, [-1, 0]), (P * R, [0, 1])]
    want = [(P, [0, 1]), (Q, [1, 0]), (R, [0, 1])]
    assert coprime_base(pieces) == want
    assert coprime_base(pieces[::-1]) == want
    # units and equal inputs; a square in A[t^2] stays whole
    assert coprime_base([(one, [5]), (Q**2, [1]), (Q**2, [2])]) == [(Q**2, [3])]
    assert coprime_base([]) == []


def test_coprime_base_skips_proved_pairs(monkeypatch):
    """A piece split off at base[k] is coprime to base[:k] and is not
    tested against it again: 7 gcds here, where retesting takes 9."""
    import drinfeld.places as places

    A = poly_ring_A(2)
    t, one = A.gen(), A.one
    P, Q, R = t, t + one, t**2 + t + one
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(places, "poly_gcd", counted)
    base = coprime_base([(R, [1]), (Q * R, [1]), (P * Q, [1])])
    assert base == [(P, [1]), (Q, [2]), (R, [2])]
    assert len(calls) == 7


def test_valuation_base_cancels_across_coefficients():
    """A numerator of one element that is a denominator of another shares
    its base element, with one exponent per element; (t+1)^3 stays whole,
    since both elements are powers of it."""
    F = rational_function_field(3)
    x = parse_element("t^2/(t+1)^3", F)
    y = parse_element("(t+1)^6*(t^2+1)/t", F)
    t, one = F.ring.gen(), F.ring.one
    cube = (t + one) ** 3
    assert valuation_base([x, y]) == [(t, [2, -1]), (t**2 + one, [0, 1]), (cube, [-1, 2])]
    assert valuation_base([]) == []
    with pytest.raises(ValueError):
        valuation_base([F.one, F.zero])


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
    for v in _support(nonzero):
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


def test_newton_slopes_examples():
    """Hand cases: a polynomial in x^2 at q = 2, a repeated root and the
    root 0 at q = 3; the slopes are log_abs of the roots, at infinity and
    at a finite P."""
    Ax = PolyRing(poly_ring_A(2), "x")
    A = Ax.base
    t, x = A.gen(), Ax.gen()
    inf, at_t, at_t1 = Place.infinity(), Place(t), Place(t + A.one)
    # x^2 + t^3 has zero interior coefficient and roots t^(3/2)
    f = x**2 + Ax.constant(t**3)
    assert newton_slopes(f, inf) == [(Fraction(3, 2), 2)]
    assert newton_slopes(f, at_t) == [(Fraction(-3, 2), 2)]
    assert newton_slopes(f, at_t1) == [(0, 2)]
    # (t x + 1)^2 (x^2 + t) lies in A[x^2]: roots 1/t twice and sqrt(t)
    # twice, of sizes -1 and 1/2 at infinity
    g = (Ax.monomial(t, 1) + Ax.one) ** 2 * (x**2 + Ax.constant(t))
    assert all(c.is_zero for c in g.coeffs[1::2])
    assert newton_slopes(g, inf) == [(-1, 2), (Fraction(1, 2), 2)]
    assert newton_slopes(g, at_t) == [(Fraction(-1, 2), 2), (1, 2)]

    Ax = PolyRing(poly_ring_A(3), "x")
    A = Ax.base
    t, x = A.gen(), Ax.gen()
    inf, at_t, at_t1 = Place.infinity(), Place(t), Place(t + A.one)
    # (x - t)^2 (t x - 1) x: t twice and 1/t; the root 0 has no slope
    h = (x - Ax.constant(t)) ** 2 * (Ax.monomial(t, 1) - Ax.one) * x
    assert newton_slopes(h, inf) == [(-1, 1), (1, 2)]
    assert newton_slopes(h, at_t) == [(-1, 2), (1, 1)]
    assert newton_slopes(h, at_t1) == [(0, 3)]
    # a nonzero constant has no roots; at P^2 | c the slopes scale by deg P
    assert newton_slopes(Ax.constant(t), inf) == []
    P = t**2 + A.one
    assert newton_slopes(x - Ax.constant(P**3), Place(P)) == [(-6, 1)]


@pytest.mark.parametrize("q", QS)
def test_newton_slopes_are_the_sizes_of_the_roots(q):
    """For f = prod (b_i x - a_i), the slopes with multiplicity are the
    multiset of log_abs(a_i / b_i) at infinity and at every prime of
    f(0) lead(f), with repeated factors and p-th powers among the f."""
    F = rational_function_field(q)
    A = F.ring
    Ax = PolyRing(poly_ring_A(q), "x")
    rng = random.Random(250 + q)
    for _ in range(20):
        pairs = [
            (A.random_element(rng, 3, nonzero=True), A.random_element(rng, 2, nonzero=True))
            for _ in range(rng.randint(1, 3))
        ]
        pairs += pairs[:1] * rng.choice([0, 1, F.characteristic - 1])
        f = Ax.one
        for a, b in pairs:
            f = f * (Ax.monomial(b, 1) - Ax.constant(a))
        places = [Place.infinity()] + [Place(P) for P, _ in factor(f.constant * f.lead)[1]]
        for place in places:
            slopes = [s for s, m in newton_slopes(f, place) for _ in range(m)]
            assert slopes == sorted(log_abs(F.make(a, b), place) for a, b in pairs), (f, place)
