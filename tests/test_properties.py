"""Property tests for subtraction and for sums in F = F_q(t).

Hypothesis runs derandomized (no example database), so the suite stays
deterministic.  Subtraction is checked against negate-then-add over A,
F and A[Z]; every sum in F is checked to be canonical and equal to the
reduction by ``FractionField.make`` of the plain cross-multiplied sum,
which is what the constant-denominator fast path of ``RatFunc.__add__``
skips.  The residue fields A/l at q = 4 and 9 satisfy the field axioms.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from drinfeld import GF, QuotientField
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.poly import PolyRing, poly_gcd

QS = (2, 3, 4, 9)

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

codes = st.lists(st.integers(0, 8), max_size=7)


def _poly(A, cs):
    """The polynomial of A with coefficient codes cs (reduced mod q)."""
    F_q = A.base
    return A.from_coeffs([F_q.element_from_code(c % F_q.q) for c in cs])


def _ratfunc(F, num, den):
    """num/den in F, or the polynomial num when den is zero."""
    d = _poly(F.ring, den)
    return F.make(_poly(F.ring, num), d) if d else F.from_poly(_poly(F.ring, num))


def _check_sub(a, b):
    # both operand orders, so unequal lengths run both ways
    for x, y in ((a, b), (b, a)):
        assert x - y == x + (-y)
        assert (x + y) - y == x
        assert (x - x).is_zero


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes)
@example(3, [1, 2, 0, 1], [2])
@example(9, [5], [0, 7, 3])
def test_poly_sub_over_A(q, ca, cb):
    A = poly_ring_A(q)
    _check_sub(_poly(A, ca), _poly(A, cb))


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes, codes, codes)
def test_ratfunc_sub_over_F(q, na, da, nb, db):
    F = rational_function_field(q)
    _check_sub(_ratfunc(F, na, da), _ratfunc(F, nb, db))


@settings(PROPERTY)
@given(
    st.sampled_from(QS),
    st.lists(codes, max_size=4),
    st.lists(codes, max_size=4),
)
@example(3, [[1], [0, 2]], [[2, 1]])
def test_poly_sub_over_A_Z(q, ca, cb):
    A = poly_ring_A(q)
    AZ = PolyRing(A, "Z")
    a = AZ.from_coeffs([_poly(A, c) for c in ca])
    b = AZ.from_coeffs([_poly(A, c) for c in cb])
    _check_sub(a, b)


def _assert_canonical(x):
    A = x.field.ring
    assert x.den.is_monic
    assert poly_gcd(x.num, x.den) == A.one
    if x.is_zero:
        assert x.den == A.one


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes, codes, codes)
@example(3, [1, 1], [], [2], [1, 1])  # 1 denominator on the left
@example(3, [2], [1, 1], [1, 1], [])  # 1 denominator on the right
@example(2, [1], [], [1], [])  # two polynomials cancelling to 0/1
@example(3, [1], [1, 1], [2], [1, 1])  # equal denominators cancelling to 0/1
def test_ratfunc_sum_is_canonical(q, na, da, nb, db):
    F = rational_function_field(q)
    x, y = _ratfunc(F, na, da), _ratfunc(F, nb, db)
    expected = F.make(x.num * y.den + y.num * x.den, x.den * y.den)
    with_poly = F.make(x.num + y.num * x.den, x.den)
    cases = [
        (x + y, expected),
        (y + x, expected),
        # a polynomial operand, coerced on the right or lifted on the left
        (x + y.num, with_poly),
        (F.from_poly(y.num) + x, with_poly),
    ]
    for total, ref in cases:
        _assert_canonical(total)
        assert total == ref


# primes l of A = F_q[t] by coefficient codes: t^2 + t + u over F_4 and
# t^3 + t + u over F_9 (u the generator of F_q)
RESIDUE_PRIMES = {4: [2, 1, 1], 9: [3, 1, 0, 1]}


@settings(PROPERTY)
@given(st.sampled_from(sorted(RESIDUE_PRIMES)), codes, codes, codes)
@example(4, [2, 1, 1], [1], [])  # l itself reduces to 0
def test_residue_field_axioms(q, ca, cb, cc):
    A = poly_ring_A(q)
    L = QuotientField(GF(q), A.from_codes(RESIDUE_PRIMES[q]))
    a, b, c = (L(_poly(A, cs)) for cs in (ca, cb, cc))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + L.zero == a and a * L.one == a and (a - a).is_zero
    if a:
        assert a * a.inverse() == L.one
    assert a**q * b**q == (a * b) ** q and (a + b) ** q == a**q + b**q
