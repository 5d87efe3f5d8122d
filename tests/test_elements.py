"""One object per field element: every F_q operation returns one of the
q elements its field built, so equality of elements is identity.

The property test checks each operation against the field's add, mul,
neg and inv tables; the counting tests check that no ``FFElem`` is made
after the field exists, by wrapping ``FFElem.__init__``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import GF
from drinfeld.base import rational_function_field
from drinfeld.dmod import DrinfeldModule
from drinfeld.ff import FFElem
from drinfeld.isogeny import rank2_t_isogenies, verify
from drinfeld.modpoly import build_Sn, tk_bounds

QS = (2, 3, 4, 9)

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _pow_code(k, a, n):
    """Code of a^n, n >= 0, by repeated multiplication in the table."""
    out = 1
    for _ in range(n):
        out = k.mul_table[out][a]
    return out


def _is_element(k, x, code):
    """x is the one element of k with this code."""
    return x is k.elements()[code] and x.code == code


@settings(PROPERTY)
@given(st.sampled_from(QS), st.data())
def test_operations_return_the_fields_elements(q, data):
    k = GF(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    n = data.draw(st.integers(-2 * q, 2 * q))
    x, y = k.element_from_code(a), k.element_from_code(b)
    assert _is_element(k, x, a) and _is_element(k, y, b)
    assert _is_element(k, x + y, k.add_table[a][b])
    assert _is_element(k, x - y, k.add_table[a][k.neg_table[b]])
    assert _is_element(k, -x, k.neg_table[a])
    assert _is_element(k, x * y, k.mul_table[a][b])
    if b:
        assert _is_element(k, x / y, k.mul_table[a][k.inv_table[b]])
        assert _is_element(k, y.inverse(), k.inv_table[b])
        base = b if n >= 0 else k.inv_table[b]
        assert _is_element(k, y**n, _pow_code(k, base, abs(n)))
    if n >= 0:
        assert _is_element(k, x**n, _pow_code(k, a, n))
    root = x.pth_root()
    assert _is_element(k, root, root.code)
    assert _is_element(k, root**k.p, a)
    # equality is identity: equal codes, the same object
    assert (x == y) is (a == b)
    assert hash(x) == hash((q, a))


@pytest.mark.parametrize("q", QS)
def test_constructors_return_the_fields_elements(q):
    k = GF(q)
    elems = k.elements()
    assert "__eq__" not in vars(FFElem)
    assert [x.code for x in elems] == list(range(q))
    assert k.zero is elems[0] and k.one is elems[1]
    for n in range(-q, 2 * q):
        assert _is_element(k, k(n), n % k.p)
        assert k(k(n)) is k(n)
    if k.e > 1:
        assert _is_element(k, k.generator_u(), k.p)
    rng = random.Random(q)
    for _ in range(20):
        x = k.random_element(rng, nonzero=True)
        assert _is_element(k, x, x.code) and x.code
    with pytest.raises(TypeError):
        k(1.0)


@pytest.fixture
def count_ffelem(monkeypatch):
    """A list that counts every FFElem constructed from here on."""
    made = []
    init = FFElem.__init__

    def counting_init(self, field, code):
        made.append(code)
        init(self, field, code)

    monkeypatch.setattr(FFElem, "__init__", counting_init)
    return made


@pytest.mark.parametrize("q", QS)
def test_tk_bounds_constructs_no_element(q, count_ffelem):
    points = list(build_Sn(q, 1))[:5]
    rep = tk_bounds(q, 1, points)
    assert rep["coeff_ok"] and rep["spacing_ok"]
    assert count_ffelem == []


@pytest.mark.parametrize("q", QS)
def test_rank2_t_isogenies_construct_no_element(q, count_ffelem):
    F = rational_function_field(q)
    # y = 1 is a root of g2 y^(q+1) + g1 y + t when g1 = -(t + g2)
    phi = DrinfeldModule(F, q, 2, [-(F.t + F.one), F.one])
    isos = rank2_t_isogenies(phi)
    assert isos
    assert all(verify(iso.f, phi, iso.target) for iso in isos)
    assert count_ffelem == []
