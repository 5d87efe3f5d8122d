"""Differential tests of F = F_q(t) on the codes of num and den.

``RatFunc``'s products, sums, inverses, powers and ``FractionField.make``
run on the code lists of the numerator and denominator.  Each one is
checked here against a reference that never calls ``make``: it works on
``FqPoly``s alone, with the plain cross-multiplied fraction, canonicalized
by ``poly_gcd``, ``exact_div`` and ``monic``, and powers by
square-and-multiply.  The operands are built by the same reference, so
the code path under test only sees canonical inputs it did not make.
Hypothesis runs derandomized (no example database), so the suite stays
deterministic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from drinfeld.base import rational_function_field
from drinfeld.ff import power
from drinfeld.poly import FqPoly, poly_gcd
from drinfeld.ratfunc import RatFunc

QS = (2, 3, 4, 8, 9)

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

codes = st.lists(st.integers(0, 8), max_size=4)


def _poly(A, cs):
    """The polynomial of A with coefficient codes cs (reduced mod q)."""
    F_q = A.base
    return A.from_coeffs([F_q.element_from_code(c % F_q.q) for c in cs])


def _canonical(num, den):
    """(num, den) reduced, with a monic denominator, on FqPolys alone."""
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num.scale(den.lead.inverse()), den.monic()


def _ref(F, num, den):
    return RatFunc(F, *_canonical(num, den))


def _same(x, ref):
    assert x.field is ref.field
    for got, want in ((x.num, ref.num), (x.den, ref.den)):
        assert got.__class__ is FqPoly and got.ring is ref.field.ring
        assert got.codes == want.codes


def _ref_pow(x, n):
    F = x.field
    if n < 0:
        x, n = _ref(F, x.den, x.num), -n
    return _ref(F, power(x.num, n, F.ring.one), power(x.den, n, F.ring.one))


@settings(PROPERTY)
@given(st.sampled_from(QS), codes, codes, codes, codes, codes, st.integers(1, 8))
@example(2, [], [1], [1, 1], [0, 1], [1, 1], 1)  # zero
@example(3, [2], [], [1], [2], [], 2)  # constants
@example(3, [1], [1, 1], [2], [1, 1], [0, 1], 2)  # equal denominators summing to 0
@example(2, [0, 1], [1, 1], [1], [1, 1], [1, 0, 1], 1)  # a sum cancelling to 1
@example(9, [0, 5, 7], [3, 0, 1], [1, 2], [0, 0, 4], [6, 1], 5)
def test_ratfunc_matches_the_fqpoly_reference(q, na, da, nb, db, ck, unit):
    F = rational_function_field(q)
    A = F.ring
    one = A.one
    a, b = _poly(A, na), _poly(A, da) or one
    c, d = _poly(A, nb), _poly(A, db) or one
    x, y = _ref(F, a, b), _ref(F, c, d)
    _same(x * y, _ref(F, a * c, b * d))
    _same(x + y, _ref(F, a * d + c * b, b * d))
    _same(x - y, _ref(F, a * d - c * b, b * d))
    # make on a non-monic, unreduced fraction: a common factor k and a unit
    k = (_poly(A, ck) or one).scale(F.base_field.element_from_code(unit % q or 1))
    _same(F.make(a * k, b * k), x)
    if not y.is_zero:
        _same(x / y, _ref(F, a * d, b * c))
        _same(y.inverse(), _ref(F, d, c))
    p = F.characteristic
    for n in (-2, -1, 0, 1, 2, 3, p, q, q * q, 2 * q):
        if n >= 0 or not x.is_zero:
            _same(x**n, _ref_pow(x, n))
