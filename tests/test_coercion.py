"""Mixed-level arithmetic on the tower F_q -> A = F_q[t] -> F = F_q(t).

A binary operation on a lower level returns NotImplemented for an
operand from a higher level, so the higher level's reflected method
runs: every level pair, in both orders, gives the result computed
after lifting both operands to the higher level.
"""

import operator

import pytest

from drinfeld import GF
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.ff import FFElem
from drinfeld.poly import Poly
from drinfeld.ratfunc import RatFunc

QS = (2, 3, 4, 9)
LEVELS = ("F_q", "A", "F")
OPS = (operator.add, operator.sub, operator.mul)


def _elements(q):
    k = GF(q)
    A = poly_ring_A(q)
    F = rational_function_field(q)
    c = k.elements()[-1]
    t = A.gen()
    return {
        "F_q": (c, FFElem, lambda v: v),
        "A": (t * t + A(c), Poly, A),
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
