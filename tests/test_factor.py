"""Factorization over F_q: round-trips, counting formulas, determinism."""

import functools
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import factor, is_irreducible, poly_ring_A
from drinfeld.factor import monic_polys_of_degree, squarefree_decomposition


# -- test-only oracle: trial division by the enumerated irreducibles --------


@functools.lru_cache(maxsize=None)
def enumerate_irreducibles(ring, d):
    """Ordered list of all monic irreducibles of degree <= d over F_q."""
    found = []
    for k in range(1, d + 1):
        for f in monic_polys_of_degree(ring, k):
            if all(not divmod(f, p)[1].is_zero for p in found if 2 * int(p.degree) <= k):
                found.append(f)
    return found


def trial_factor(f):
    """(unit, [(irreducible, multiplicity), ...]) by trial division."""
    unit, f = f.lead, f.monic()
    out = []
    for p in enumerate_irreducibles(f.ring, int(f.degree)):
        mult = 0
        while True:
            quot, rem = divmod(f, p)
            if not rem.is_zero:
                break
            f = quot
            mult += 1
        if mult:
            out.append((p, mult))
        if f.degree == 0:
            break
    return unit, out


def trial_is_irreducible(f):
    if f.degree < 1:
        return False
    half = int(f.degree) // 2
    return half == 0 or all(
        not divmod(f, p)[1].is_zero for p in enumerate_irreducibles(f.ring, half)
    )


def _necklace_count(q, d):
    """Number of monic irreducibles of degree d over F_q (Moebius sum)."""
    def mobius(n):
        result, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                result = -result
            k += 1
        if n > 1:
            result = -result
        return result

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(d // e) * q**e
    return total // d


@pytest.mark.parametrize(
    "q,d",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (8, 2), (9, 2)],
)
def test_irreducible_counts(q, d):
    A = poly_ring_A(q)
    irr = [f for f in monic_polys_of_degree(A, d) if is_irreducible(f)]
    assert len(irr) == _necklace_count(q, d)


def _differential_inputs(q):
    """Every monic polynomial of degree <= 3 for q <= 4, which includes
    the inputs with vanishing derivative (t^2 + 1 at q = 2, (t + u)^2 at
    q = 4, (t + 1)^3 at q = 3); otherwise a seeded sample of 40 degree-3
    inputs, with (t + 1)^3 and a nonmonic scalar multiple added."""
    A = poly_ring_A(q)
    if q <= 4:
        return [f for d in range(1, 4) for f in monic_polys_of_degree(A, d)]
    rng = random.Random(q)
    cubics = list(monic_polys_of_degree(A, 3))
    sample = rng.sample(cubics, 40)
    t = A.gen()
    sample.append((t + A.one) ** 3)
    sample.append(A.constant(A.base.element_from_code(2)) * sample[0])
    return sample


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_factor_matches_trial_division(q):
    for f in _differential_inputs(q):
        assert factor(f) == trial_factor(f), f
        assert is_irreducible(f) == trial_is_irreducible(f), f


def test_known_splits():
    A2 = poly_ring_A(2)
    t = A2.gen()
    _, facs = factor(t**2 + t)
    assert facs == [(t, 1), (t + A2.one, 1)]
    _, facs = factor(t**2 + t + A2.one)
    assert facs == [(t**2 + t + A2.one, 1)]

    A3 = poly_ring_A(3)
    t = A3.gen()
    _, facs = factor(t**3 - t)
    assert [p for p, _ in facs] == [t, t + A3.one, t + A3(2)]
    assert all(m == 1 for _, m in facs)

    # vanishing derivative: the squarefree stage takes a p-th root
    assert factor((t + A3.one) ** 3)[1] == [(t + A3.one, 3)]
    t = A2.gen()
    assert factor(t**2 + A2.one)[1] == [(t + A2.one, 2)]
    A4 = poly_ring_A(4)
    t, u = A4.gen(), A4.constant(A4.base.generator_u())
    assert factor((t + u) ** 2)[1] == [(t + u, 2)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_factor_roundtrip(q):
    A = poly_ring_A(q)
    rng = random.Random(21)
    for _ in range(60):
        f = A.random_element(rng, rng.randrange(1, 9), nonzero=True)
        if f.degree < 1:
            continue
        unit, facs = factor(f)
        prod = A.constant(unit)
        for p, mult in facs:
            assert p.is_monic and is_irreducible(p)
            prod = prod * p**mult
        assert prod == f


@st.composite
def _products(draw):
    """(q, f): a unit times powers of up to three random polynomials, one
    of them possibly raised to the p-th power (so in A[t^p]); the total
    degree stays small enough for the trial-division oracle at q = 9."""
    q = draw(st.sampled_from((2, 3, 4, 9)))
    A = poly_ring_A(q)
    top = 3 if q == 9 else 4
    f = A.constant(A.base.element_from_code(draw(st.integers(1, q - 1))))
    for _ in range(draw(st.integers(1, 3))):
        g = A.from_codes(draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=top)))
        if g.degree < 1:
            continue
        if draw(st.booleans()) and g.degree * A.characteristic <= 2 * top:
            g = g**A.characteristic
        for _ in range(draw(st.integers(1, 2))):
            f = f * g
    return q, f


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_products())
def test_factor_roundtrip_property(case):
    """unit * prod p^m == f, and every p is monic and irreducible under
    Ben-Or and under trial division."""
    q, f = case
    A = poly_ring_A(q)
    unit, facs = factor(f)
    prod = A.constant(unit)
    for p, mult in facs:
        assert p.is_monic and mult >= 1
        assert is_irreducible(p) and trial_is_irreducible(p)
        prod = prod * p**mult
    assert prod == f


def test_factor_deterministic():
    A = poly_ring_A(2)
    rng = random.Random(22)
    for _ in range(20):
        f = A.random_element(rng, 10, nonzero=True)
        if f.degree < 1:
            continue
        assert factor(f) == factor(f)


def test_squarefree_decomposition():
    A = poly_ring_A(2)
    t = A.gen()
    f = t**2 * (t + A.one) ** 3 * (t**2 + t + A.one)
    parts = squarefree_decomposition(f)
    rebuilt = A.one
    for g, m in parts:
        rebuilt = rebuilt * g**m
    assert rebuilt == f
    assert dict(parts)[t] == 2
    assert dict(parts)[t + A.one] == 3


def test_squarefree_decomposition_leaves_no_cycles():
    """(t+1)^3 at q = 3 takes the p-th-root branch; no call may leave a
    reference cycle for the cyclic collector."""
    A = poly_ring_A(3)
    t = A.gen()
    f = t * (t + A.one) ** 3 * (t**2 + A.one) ** 2
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            parts = squarefree_decomposition(f)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert dict(parts) == {t: 1, t + A.one: 3, t**2 + A.one: 2}
    assert leaked == 0


def test_enumerate_irreducibles_ordering():
    A = poly_ring_A(2)
    t = A.gen()
    out = enumerate_irreducibles(A, 2)
    assert out == [t, t + A.one, t**2 + t + A.one]


def test_monic_enumeration_size():
    A = poly_ring_A(3)
    assert len(list(monic_polys_of_degree(A, 2))) == 9
    assert len(set(monic_polys_of_degree(A, 2))) == 9
