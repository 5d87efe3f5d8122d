"""Mixed-level arithmetic on the tower F_q -> A = F_q[t] -> F = F_q(t),
on the nested polynomial rings A -> A[x] -> A[x][y], and on the levels
built over a field: F[x], L = F[x]/(m), A/l and L[y].

A binary operation on a lower level returns NotImplemented for an
operand from a higher level, so the higher level's reflected method
runs: every level pair, in both orders, gives the result computed
after lifting both operands to the higher level.  The elements of A are
``FqPoly``s, the ``Poly`` subclass of every ring over a finite field.
"""

import operator

import pytest

from drinfeld import GF
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.extfield import ExtElem, QuotientField
from drinfeld.factor import is_irreducible, monic_polys_of_degree
from drinfeld.ff import FFElem
from drinfeld.poly import FqPoly, Poly, PolyRing
from drinfeld.ratfunc import RatFunc

QS = (2, 3, 4, 9)
LEVELS = ("F_q", "A", "F")
OPS = (operator.add, operator.sub, operator.mul)
FIELD_OPS = OPS + (operator.truediv,)


def _elements(q):
    k = GF(q)
    A = poly_ring_A(q)
    F = rational_function_field(q)
    c = k.elements()[-1]
    t = A.gen()
    return {
        "F_q": (c, FFElem, lambda v: v),
        "A": (t * t + A(c), FqPoly, A),
        "F": (F.make(t + A.one, t * t + A(c)), RatFunc, F),
    }


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("left", LEVELS)
@pytest.mark.parametrize("right", LEVELS)
def test_mixed_level_operands(q, op, left, right):
    elems = _elements(q)
    top = max(left, right, key=LEVELS.index)
    _, top_type, lift = elems[top]
    a, b = elems[left][0], elems[right][0]
    result = op(a, b)
    assert type(result) is top_type
    assert result == op(lift(a), lift(b))


def _nested(q):
    """(t, A), (P, A[x]) and (Y, A[x][y]): each element with its ring."""
    A = poly_ring_A(q)
    Ax = PolyRing(poly_ring_A(q), "x")
    Axy = PolyRing(Ax, "y")
    t = A.gen()
    c = A.base.elements()[-1]
    P = Ax.gen() * Ax.gen() + Ax(t + A(c))
    Y = Axy.gen() + Axy(P)
    return [(t, A), (P, Ax), (Y, Axy)]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize(
    "pair",
    [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)],
    ids=lambda p: "-".join(["A", "Ax", "Axy"][i] for i in p),
)
def test_mixed_nested_operands(q, op, pair):
    """A polynomial and one from a polynomial ring over its ring, in either
    order: the result is computed in the higher ring."""
    levels = _nested(q)
    (a, _), (b, _) = levels[pair[0]], levels[pair[1]]
    top = levels[max(pair)][1]
    result = op(a, b)
    assert result.ring is top
    assert result == op(top(a), top(b))


def _over_fields(q):
    """Level name -> (element, element type, lift into the level) for F,
    F[x], L = F[x]/(x^2 - t), A/l with l the first monic irreducible of
    degree 2, and L[y]."""
    k, A = GF(q), poly_ring_A(q)
    F, Fx = rational_function_field(q), PolyRing(rational_function_field(q), "x")
    L = QuotientField(F, Fx.gen() ** 2 - Fx(F.t))
    ell = next(m for m in monic_polys_of_degree(A, 2) if is_irreducible(m))
    R = QuotientField(k, ell)
    Ly = PolyRing(L, "y")
    c = k.elements()[-1]
    return {
        "F": (F.make(A.gen() + A.one, A.gen()), RatFunc, F),
        "F[x]": (Fx.gen() * Fx(F.t) + Fx(c), Poly, Fx),
        "L": (L.gen() + L(F.t), ExtElem, L),
        "A/l": (R.gen() + R(c), ExtElem, R),
        "L[y]": (Ly.gen() * Ly(L.gen()) + Ly.one, Poly, Ly),
    }


# (lower level, higher level, op): / only where the higher level is a field
_FIELD_CASES = [
    (low, high, op)
    for low, high, ops in [("F", "F[x]", OPS), ("F", "L", FIELD_OPS), ("F", "A/l", FIELD_OPS), ("L", "L[y]", OPS)]
    for op in ops
]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("case", _FIELD_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2].__name__}")
@pytest.mark.parametrize("reverse", (False, True), ids=("low-first", "high-first"))
def test_mixed_levels_over_fields(q, case, reverse):
    """An element of a field and one of a polynomial ring or a quotient
    field built on it, in either order: the result has the higher level's
    type and is the op on both operands lifted there."""
    low, high, op = case
    elems = _over_fields(q)
    _, top_type, lift = elems[high]
    a, b = elems[low][0], elems[high][0]
    if reverse:
        a, b = b, a
    result = op(a, b)
    assert type(result) is top_type
    assert result == op(lift(a), lift(b))


@pytest.mark.parametrize("q", QS)
def test_division_of_fq_polys_by_constants(q):
    """divmod, %, // and exact_div of an element of A by an integer or an
    element of F_q equal those by its constant polynomial, and raise
    ZeroDivisionError, as by A's zero, for an operand that is 0 in F_q.
    ``exact_div``, a method with no reflected op, raises TypeError for an
    operand A cannot coerce."""
    k, A = GF(q), poly_ring_A(q)
    t = A.gen()
    f = t**3 + A(k.elements()[-1]) * t + A.one
    ops = (divmod, operator.mod, operator.floordiv, lambda a, b: a.exact_div(b))
    for n in (-1, 0, 1, k.p, k.p + 1) + tuple(k.elements()):
        for op in ops:
            if A(n).is_zero:
                with pytest.raises(ZeroDivisionError):
                    op(f, n)
            else:
                assert op(f, n) == op(f, A(n))
    for other in (rational_function_field(q).t, poly_ring_A(2 if q != 2 else 3).gen()):
        with pytest.raises(TypeError):
            f.exact_div(other)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
def test_unrelated_polynomial_rings_raise(q, op):
    A = poly_ring_A(q)
    other = poly_ring_A(2 if q != 2 else 3)
    Ax, Ay = PolyRing(poly_ring_A(q), "x"), PolyRing(A, "y")
    F, F_other = rational_function_field(q), rational_function_field(other.q)
    for a, b in (
        (A.gen(), other.gen()),
        (Ax.gen(), Ay.gen()),
        (Ax.gen(), PolyRing(other, "x").gen()),
        (A.gen(), PolyRing(other, "x").gen()),
        # the rational function fields, on the fast path of RatFunc's ops
        (F.t / (F.t + 1), F_other.t),
        (F.t / (F.t + 1), other.gen()),
    ):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                op(x, y)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("op", (operator.sub, operator.truediv), ids=lambda op: op.__name__)
def test_integer_minus_and_over_field_element(q, op):
    """n - c and n / c for an integer n, nonzero mod p, and c in F_q: the
    element's reflected op coerces n into F_q and returns one of the
    field's elements."""
    k = GF(q)
    for c in k.elements()[1:]:
        for n in (-1, 1, k.p + 1, 2 * k.p - 1):
            assert op(n, c) is op(k(n), c)


@pytest.mark.parametrize("q", QS)
def test_integer_operands_of_field_elements(q):
    """c + n, n + c, c - n, c * n, n * c and c / n for c in F_q and an
    integer n: the table-indexed ops coerce n through the field, and
    c / n raises ZeroDivisionError for n = 0 mod p.  An operand from
    higher up the tower still gets NotImplemented."""
    k, A = GF(q), poly_ring_A(q)
    t = A.gen()
    for c in k.elements():
        for n in (-1, 0, 1, k.p, k.p + 1, 2 * k.p - 1):
            m = k(n)
            assert c + n is n + c is c + m
            assert c - n is c - m
            assert c * n is n * c is c * m
            if n % k.p:
                assert c / n is c / m
            else:
                with pytest.raises(ZeroDivisionError):
                    c / n
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            assert getattr(c, op)(t) is NotImplemented
        assert c * t == A(c) * t and c - t == A(c) - t
