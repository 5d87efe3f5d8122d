"""Property tests of the residue fields A/l = QuotientField(GF(q), l).

A/l is a field with q^deg l elements: the field axioms hold on random
elements, every element satisfies x^(q^deg l) = x, and reduction
F -> A/l is a ring map on the elements whose denominator l does not
divide, with BadReduction on the others.  The fields are the first
monic irreducibles of each degree 1, 2, 3 over F_q, q in {2, 3, 4, 9}.
Hypothesis runs derandomized (no example database), so the suite stays
deterministic.
"""

from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import GF, QuotientField
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.errors import BadReduction
from drinfeld.factor import is_irreducible, monic_polys_of_degree

QS = (2, 3, 4, 9)
DEGREES = (1, 2, 3)

PROPERTY = settings(max_examples=120, derandomize=True, database=None, deadline=None)


@lru_cache(maxsize=None)
def _residue_fields(q, d):
    """A/l for the first two monic irreducibles l of degree d over F_q."""
    primes = (ell for ell in monic_polys_of_degree(poly_ring_A(q), d) if is_irreducible(ell))
    return tuple(QuotientField(GF(q), ell) for ell in islice(primes, 2))


@st.composite
def residue_fields(draw):
    q, d = draw(st.sampled_from(QS)), draw(st.sampled_from(DEGREES))
    return draw(st.sampled_from(_residue_fields(q, d)))


def _polys(A, max_size=7):
    """Polynomials of A from codes, of degree up to max_size - 1."""
    return st.lists(st.integers(0, A.q - 1), max_size=max_size).map(A.from_codes)


@given(st.data())
@settings(PROPERTY)
def test_residue_field_axioms(data):
    L = data.draw(residue_fields())
    # representatives of degree up to 6, so building an element reduces mod l
    a, b, c = (L(data.draw(_polys(L.xring))) for _ in range(3))
    zero, one = L.zero, L.one
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    assert sum([a] * L.characteristic, zero) == zero
    assert a ** (L.q**L.degree) == a
    if b:
        assert a / b * b == a and b * b.inverse() == one
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


@given(st.data())
@settings(PROPERTY)
def test_reduction_from_F_is_a_ring_map_where_l_is_not_in_the_denominator(data):
    """f = n / (1 + l h) is l-integral and reduces to n mod l; g with l in
    its denominator and not in its numerator raises BadReduction."""
    L = data.draw(residue_fields())
    F, A, ell = rational_function_field(L.q), L.xring, L.modulus
    polys = _polys(A)
    (n1, h1), (n2, h2) = [(data.draw(polys), data.draw(polys)) for _ in range(2)]
    f, g = F.make(n1, A.one + ell * h1), F.make(n2, A.one + ell * h2)
    assert L(f) == L(n1) and L(g) == L(n2)
    assert L(f + g) == L(f) + L(g)
    assert L(f * g) == L(f) * L(g)
    assert L(f - g) == L(f) - L(g)
    r = data.draw(polys.filter(lambda p: not (p % ell).is_zero))
    bad = F.make(ell * h1 + r, ell * (A.one + ell * h2))
    for x in (bad, bad + f, bad * F.make(A.one + ell * h1, A.one)):
        with pytest.raises(BadReduction):
            L(x)
