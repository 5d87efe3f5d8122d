"""Differential tests of A = F_q[t] on integer codes.

Every ``FqPoly`` operation runs on coefficient codes through the field
tables.  Each one is checked here against a reference that works on the
field elements of ``coeffs`` instead: the schoolbook product and long
division of ``test_poly``, coefficientwise sums, and an element-level
Euclid.  Hypothesis runs derandomized (no example database), so the
suite stays deterministic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_poly import _schoolbook_divmod, _schoolbook_mul

from drinfeld.base import poly_ring_A
from drinfeld.parsing import parse_element
from drinfeld.poly import _KRONECKER_PAIRS_PER_COEFF, poly_gcd

QS = (2, 3, 4, 9)

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

codes = st.lists(st.integers(0, 8), max_size=9)
long_codes = st.lists(st.integers(0, 8), max_size=40)


def _poly(A, cs):
    """The polynomial of A with coefficient codes cs (reduced mod q)."""
    F_q = A.base
    return A.from_coeffs([F_q.element_from_code(c % F_q.q) for c in cs])


def _padded(a, b):
    zero = a.ring.base.zero
    x, y = list(a.coeffs), list(b.coeffs)
    n = max(len(x), len(y))
    return x + [zero] * (n - len(x)), y + [zero] * (n - len(y))


def _ref_add(a, b):
    x, y = _padded(a, b)
    return a.ring.from_coeffs([u + v for u, v in zip(x, y)])


def _ref_sub(a, b):
    x, y = _padded(a, b)
    return a.ring.from_coeffs([u - v for u, v in zip(x, y)])


def _ref_monic(a):
    lead = a.coeffs[-1]
    return a.ring.from_coeffs([c / lead for c in a.coeffs])


def _ref_gcd(a, b):
    """Monic gcd by Euclid on field elements, the oracle for poly_gcd."""
    A = a.ring
    while b.coeffs:
        a, b = b, _schoolbook_divmod(A, a, b)[1]
    return _ref_monic(a) if a.coeffs else a


def _check_canonical(p):
    """codes are trimmed ints in [0, q), and coeffs is a faithful view."""
    q = p.ring.base.q
    assert type(p.codes) is tuple
    assert all(type(c) is int and 0 <= c < q for c in p.codes)
    assert not p.codes or p.codes[-1] != 0
    assert [c.code for c in p.coeffs] == list(p.codes)
    assert p.ring.from_coeffs(p.coeffs) == p


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes)
@example(3, [1, 2, 0, 1], [2, 1, 0, 2])  # the leading terms cancel
@example(9, [5], [0, 7, 3])
def test_ring_ops_match_elementwise(q, ca, cb):
    A = poly_ring_A(q)
    a, b = _poly(A, ca), _poly(A, cb)
    for x, y in ((a, b), (b, a)):
        for result, ref in (
            (x + y, _ref_add(x, y)),
            (x - y, _ref_sub(x, y)),
            (x * y, _schoolbook_mul(A, x, y)),
            (-x, _ref_sub(A.zero, x)),
        ):
            _check_canonical(result)
            assert result == ref
    for c in A.base.elements():
        scaled = a.scale(c)
        _check_canonical(scaled)
        assert scaled == A.from_coeffs([u * c for u in a.coeffs])
    if a:
        _check_canonical(a.monic())
        assert a.monic() == _ref_monic(a)


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes)
@example(2, [1, 1, 0, 1], [1, 0, 1])
@example(4, [], [3])
def test_division_and_gcd_match_elementwise(q, ca, cb):
    A = poly_ring_A(q)
    a, b = _poly(A, ca), _poly(A, cb)
    if b:
        quo, rem = divmod(a, b)
        _check_canonical(quo)
        _check_canonical(rem)
        assert (quo, rem) == _schoolbook_divmod(A, a, b)
        assert a % b == rem
        assert a // b == quo
    g = poly_gcd(a, b)
    _check_canonical(g)
    assert g == _ref_gcd(a, b)
    assert g == poly_gcd(b, a)


@settings(PROPERTY)
@given(st.sampled_from((2, 3)), long_codes, st.lists(st.integers(0, 8), min_size=1, max_size=20))
# a 31-term dividend by an 11-term divisor: the 21 x 11 product q * b
# packs into big integers; 7 by 4 terms: it runs the code loop
@example(3, [1] * 30 + [2], [2] * 10 + [1])
@example(2, [1, 0, 1, 1, 0, 0, 1], [1, 1, 0, 1])
def test_divmod_reconstructs_across_kronecker_crossover(q, ca, cb):
    A = poly_ring_A(q)
    a, b = _poly(A, ca), _poly(A, cb)
    if not b:
        return
    quo, rem = divmod(a, b)
    assert rem.degree < b.degree
    assert quo * b == _schoolbook_mul(A, quo, b)
    assert quo * b + rem == a


def test_kronecker_examples_straddle_crossover():
    """The two explicit examples above fall on either side of the packing
    threshold for the product quotient * divisor."""

    def packs(len_a, len_b):
        return len_a * len_b > _KRONECKER_PAIRS_PER_COEFF * (len_a + len_b)

    assert packs(31 - 11 + 1, 11)
    assert not packs(7 - 4 + 1, 4)


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, st.integers(1, 3))
@example(4, [2, 0, 3], 1)
@example(9, [0, 5, 7], 2)
def test_p_power_matches_repeated_product(q, ca, k):
    A = poly_ring_A(q)
    a = _poly(A, ca)
    n = A.characteristic**k
    power = a**n
    _check_canonical(power)
    ref = A.one
    for _ in range(n):
        ref = _schoolbook_mul(A, ref, a)
    assert power == ref


@settings(PROPERTY)
@given(st.sampled_from(QS), codes)
@example(4, [0, 2, 0, 3])
@example(9, [8, 0, 1])
def test_repr_parses_back(q, ca):
    A = poly_ring_A(q)
    a = _poly(A, ca)
    assert parse_element(repr(a), A) == a
