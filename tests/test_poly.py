"""Univariate polynomial arithmetic: invariants, oracles, and the F_q
code-list kernels (and Kronecker packing over prime fields) against
schoolbook references on FFElem coefficients."""

import random

import pytest

from drinfeld import GF, poly_ring_A, rational_function_field
from drinfeld.ff import GaloisField
from drinfeld.poly import _ARRAY_TYPECODE, PolyRing, _pseudo_rem, content, poly_gcd, poly_xgcd
from drinfeld.poly import FqPoly, Poly, primitive_part, resultant
from drinfeld.ratfunc import FractionField
from drinfeld.skew import SkewPolyRing


def _schoolbook_mul(ring, a, b):
    # coeffs of an A element is a view built on each read: read it once
    a, b = a.coeffs, b.coeffs
    if not a or not b:
        return ring.zero
    zero = ring.base.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return ring.from_coeffs(out)


def _schoolbook_divmod(ring, a, b):
    """Long division on FFElem coefficients, the reference for the kernel."""
    rem = list(a.coeffs)
    b = b.coeffs
    quot = [ring.base.zero] * max(len(rem) - len(b) + 1, 0)
    while rem and len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = c
        for j, bc in enumerate(b):
            rem[shift + j] = rem[shift + j] - c * bc
        while rem and rem[-1].is_zero:
            rem.pop()
    return ring.from_coeffs(quot), ring.from_coeffs(rem)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mul_matches_schoolbook(q):
    """Factors of 1 to 35 coefficients: over prime fields they fall on
    both sides of the Kronecker crossover."""
    A = poly_ring_A(q)
    rng = random.Random(11)
    for _ in range(150):
        a = A.random_element(rng, rng.randrange(0, 35))
        b = A.random_element(rng, rng.randrange(0, 35))
        assert a * b == _schoolbook_mul(A, a, b)


def test_mul_kronecker_32bit_digits():
    """At q = 7 with both degrees >= 1000 the packed digits need more than
    16 bits, so the product runs on 32-bit ("I") digits."""
    A = poly_ring_A(7)
    k = A.base
    rng = random.Random(13)
    a = A.from_coeffs([k.random_element(rng) for _ in range(1000)] + [k.one])
    b = A.from_coeffs([k.random_element(rng) for _ in range(1200)] + [k(3)])
    bits = (min(len(a.coeffs), len(b.coeffs)) * 6 * 6).bit_length() + 1
    assert _ARRAY_TYPECODE(bits) == "I"
    assert a * b == _schoolbook_mul(A, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_divmod_invariants(q):
    """Dividends of 0 to 40 coefficients, divisors of 1 to 20, including
    constants and divisors longer than the dividend."""
    A = poly_ring_A(q)
    rng = random.Random(12)
    k = A.base
    t = A.gen()
    cases = [
        (A.random_element(rng, rng.randrange(0, 40)),
         A.random_element(rng, rng.randrange(0, 20), nonzero=True))
        for _ in range(150)
    ]
    cases += [
        (t**5 + t + A.one, A(k.random_element(rng, nonzero=True))),
        (A.random_element(rng, 30), A(k.random_element(rng, nonzero=True))),
        (t**3 + A.one, t**7 + t),
        (A.zero, t + A.one),
    ]
    for a, b in cases:
        quo, rem = divmod(a, b)
        assert (quo, rem) == _schoolbook_divmod(A, a, b)
        assert _schoolbook_mul(A, quo, b) + rem == a
        assert rem.is_zero or rem.degree < b.degree


def test_ring_basics():
    A = poly_ring_A(3)
    t = A.gen()
    f = t**2 + 2 * A.one
    assert f.degree == 2
    assert f.coeff(0) == GF(3)(2)
    assert f.is_monic
    assert (f - f).is_zero
    assert f.monic() == f
    g = A.monomial(GF(3)(2), 3)
    assert g.monic() == t**3


def test_derivative_and_qth_root():
    A = poly_ring_A(2)
    t = A.gen()
    f = t**4 + t**2 + A.one
    assert f.derivative().is_zero
    root = f.pth_root()
    assert root == t**2 + t + A.one
    assert root * root == f
    with pytest.raises(ValueError):
        (t**3 + t).pth_root()
    # over F_4 and F_9 the coefficients of g^p are p-th powers, not copies
    for q in (4, 9):
        A = poly_ring_A(q)
        g = A.random_element(random.Random(q), 5)
        assert (g ** A.characteristic).pth_root() == g
    # degree > p: i * c is (i mod p) * c, against the definition of i * c
    # as c added i times
    for q in (3, 9):
        A = poly_ring_A(q)
        f = A.random_element(random.Random(q), 11) + A.gen() ** 12
        expected = []
        for i, c in enumerate(f.coeffs[1:], 1):
            s = A.base.zero
            for _ in range(i):
                s = s + c
            expected.append(s)
        assert f.derivative() == A.from_coeffs(expected)


@pytest.mark.parametrize("q", [2, 3])
def test_gcd_properties(q):
    A = poly_ring_A(q)
    rng = random.Random(13)
    for _ in range(60):
        a = A.random_element(rng, 6, nonzero=True)
        b = A.random_element(rng, 6, nonzero=True)
        c = A.random_element(rng, 3, nonzero=True)
        g = poly_gcd(a * c, b * c)
        assert divmod(g, poly_gcd(a, b) * c.monic())[1].is_zero or g.degree >= c.degree
        assert divmod(a * c, poly_gcd(a * c, b * c))[1].is_zero
        gg, u, v = poly_xgcd(a, b)
        assert u * a + v * b == gg
        assert gg == poly_gcd(a, b)


def test_resultant_trivial_cases():
    A = poly_ring_A(3)
    y = PolyRing(A, "y")
    t = A.gen()
    a = y.constant(t)
    b = y.constant(t + A.one)
    # res(y - a, y - b) = a - b
    assert resultant(y.gen() - a, y.gen() - b) == t - (t + A.one)
    # res(y^2 - t, y) = -t with the sign convention
    # res(f, g) = lc(f)^{deg g} prod g(alpha_i) over roots of f
    f = y.gen() ** 2 - y.constant(t)
    assert resultant(f, y.gen()) == -t


def test_resultant_direct_evaluation():
    A = poly_ring_A(2)
    y = PolyRing(A, "y")
    t = A.gen()
    f = y.gen() ** 3 + y.gen() + y.constant(t)
    for c in (A.zero, A.one, t, t + A.one, t**2):
        g = y.gen() + y.constant(c)
        # g has the single root -c = c in char 2; res(g, f) = f(c)
        val = f(c)
        assert resultant(g, f) == val
        assert resultant(f, g) == c**3 + c + t


@pytest.mark.parametrize("q", [2, 3])
def test_resultant_root_product_oracle(q):
    """f = prod (y - a_i) gives res(f, g) = prod g(a_i) exactly."""
    A = poly_ring_A(q)
    y = PolyRing(A, "y")
    rng = random.Random(14)
    for _ in range(30):
        roots = [A.random_element(rng, 2) for _ in range(rng.randrange(1, 4))]
        f = y.one
        for a in roots:
            f = f * (y.gen() - y.constant(a))
        g = y.from_coeffs([A.random_element(rng, 2) for _ in range(4)])
        if g.is_zero:
            continue
        expected = A.one
        for a in roots:
            expected = expected * g(a)
        assert resultant(f, g) == expected


def test_resultant_multiplicative_in_first_argument():
    A = poly_ring_A(3)
    y = PolyRing(A, "y")
    rng = random.Random(15)
    for _ in range(20):
        f1 = y.from_coeffs([A.random_element(rng, 1) for _ in range(3)])
        f2 = y.from_coeffs([A.random_element(rng, 1) for _ in range(3)])
        g = y.from_coeffs([A.random_element(rng, 1) for _ in range(3)])
        if f1.is_zero or f2.is_zero or g.is_zero:
            continue
        if f1.degree < 1 or f2.degree < 1 or g.degree < 1:
            continue
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def test_resultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    A = poly_ring_A(2)
    y = PolyRing(A, "y")
    t = A.gen()
    f = y.gen() ** 3 + y.monomial(t, 1) + y.constant(t**2 + A.one)
    g = y.gen() ** 2 + y.constant(t)
    ts, ys = sympy.symbols("t y")
    fs = ys**3 + ts * ys + ts**2 + 1
    gs = ys**2 + ts
    expect = sympy.Poly(sympy.resultant(fs, gs, ys), ts, modulus=2)
    ours = resultant(f, g)
    lifted = sympy.Poly(
        sum(int(c.code) * ts**i for i, c in enumerate(ours.coeffs)), ts, modulus=2
    )
    assert lifted == expect


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_content_and_primitive_part(q):
    A = poly_ring_A(q)
    t = A.gen()
    x = PolyRing(A, "x")
    f = x.monomial(t**2 + t, 1) + x.constant(t**3 + t)
    c = content(f)
    assert c.is_monic and c.degree >= 1
    assert f == primitive_part(f).scale(c)
    assert content(primitive_part(f)) == A.one
    # content 1: f comes back as the same object, with no divisions
    g = x.gen() + x.constant(t)
    assert content(g) == A.one and primitive_part(g) is g
    # the zero polynomial has content 0 and is its own primitive part
    assert content(x.zero).is_zero and primitive_part(x.zero) is x.zero
    rng = random.Random(165)
    for _ in range(20):
        h = x.from_coeffs([A.random_element(rng, 2) for _ in range(4)])
        k = A.random_element(rng, 2, nonzero=True)
        if h.is_zero:
            continue
        assert content(h.scale(k)) == content(h) * k.monic()
        assert primitive_part(h.scale(k)) == primitive_part(h).scale(k.lead)


def test_pseudo_divmod_fraction_free():
    A = poly_ring_A(3)
    x = PolyRing(A, "x")
    rng = random.Random(16)
    for _ in range(30):
        a = x.from_coeffs([A.random_element(rng, 2) for _ in range(5)])
        b = x.from_coeffs([A.random_element(rng, 2) for _ in range(3)])
        if a.is_zero or b.is_zero or b.degree < 1 or a.degree < b.degree:
            continue
        rem = x.from_coeffs(_pseudo_rem(list(a.coeffs), list(b.coeffs)))
        k = int(a.degree) - int(b.degree) + 1
        # lc(b)^k a = quo b + rem, with a quotient over A and deg rem < deg b
        quo = (a.scale(b.lead**k) - rem).exact_div(b)
        assert a.scale(b.lead**k) == quo * b + rem
        assert rem.degree < b.degree


# The fraction-free pseudo-division and the subresultant PRS over Poly
# objects that resultant replaced, kept as the oracle for it.


def _oracle_pseudo_divmod(self, other):
    """Fraction-free division: lc(other)^(deg a - deg b + 1) * a = q*b + r."""
    if other.is_zero:
        raise ZeroDivisionError("pseudo-division by zero")
    ring = self.ring
    if self.degree < other.degree:
        return ring.zero, self
    d = other.lead
    rem = self
    quot = ring.zero
    steps = int(self.degree - other.degree) + 1
    while not rem.is_zero and rem.degree >= other.degree:
        shift = int(rem.degree - other.degree)
        term = ring.monomial(rem.lead, shift)
        quot = quot * ring(d) + term
        rem = rem * ring(d) - term * other
        steps -= 1
    k = steps
    if k > 0:
        dk = ring(d**k)
        quot = quot * dk
        rem = rem * dk
    return quot, rem


def _oracle_resultant(f, g):
    ring = f.ring
    base = ring.base
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials")
    if f.is_zero or g.is_zero:
        if (f if g.is_zero else g).degree == 0:
            return base.one
        return base.zero
    if f.degree == 0:
        return f.constant ** int(g.degree)
    if g.degree == 0:
        return g.constant ** int(f.degree)
    sign = 1
    if f.degree < g.degree:
        if (int(f.degree) * int(g.degree)) % 2 == 1:
            sign = -sign
        f, g = g, f
    h = base.one
    s = base.one
    while True:
        delta = int(f.degree - g.degree)
        if (int(f.degree) % 2 == 1) and (int(g.degree) % 2 == 1):
            sign = -sign
        _, r = _oracle_pseudo_divmod(f, g)
        if r.is_zero:
            return base.zero
        # divide remainder by s * h^delta
        divisor = s * h**delta
        r = r.map_coeffs(lambda c: c.exact_div(divisor), ring)
        f, g = g, r
        s = f.lead
        if delta > 0:
            h = (s**delta).exact_div(h ** (delta - 1))
        if g.degree == 0:
            delta = int(f.degree)
            res = (g.constant**delta).exact_div(h ** (delta - 1)) if delta > 0 else h
            if sign < 0:
                res = -res
            return res


def _random_y_poly(y, rng, degree, coeff):
    """A polynomial of y-degree exactly degree (zero for degree -1)."""
    if degree < 0:
        return y.zero
    coeffs = [coeff(rng) for _ in range(degree)] + [coeff(rng)]
    while coeffs[-1].is_zero:
        coeffs[-1] = coeff(rng)
    return y.from_coeffs(coeffs)


# (deg f, deg g): both zero-operand orders, degree 0 against every degree,
# deg f < deg g with deg f * deg g odd, and equal degrees
_RESULTANT_DEGREES = [(-1, 0), (0, -1), (-1, 2), (3, -1), (0, 0), (0, 3), (2, 0),
                      (1, 3), (3, 1), (1, 1), (2, 2), (2, 3), (3, 3), (4, 2), (2, 4)]


def _check_against_oracle(y, rng, coeff, degrees):
    with pytest.raises(ValueError):
        resultant(y.zero, y.zero)
    nonzero = 0
    for m, n in degrees:
        f, g = _random_y_poly(y, rng, m, coeff), _random_y_poly(y, rng, n, coeff)
        res = resultant(f, g)
        assert res == _oracle_resultant(f, g)
        nonzero += not res.is_zero
        # a common factor makes both resultants zero
        if 1 <= m <= 2 and 1 <= n <= 2:
            h = y.gen() + y.constant(coeff(rng))
            assert resultant(f * h, g * h) == _oracle_resultant(f * h, g * h) == y.base.zero
    assert nonzero >= len(degrees) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_resultant_matches_prs_oracle_over_A(q):
    A = poly_ring_A(q)
    rng = random.Random(1500 + q)
    coeff = lambda rng: A.random_element(rng, 2, nonzero=rng.random() < 0.7)
    degrees = _RESULTANT_DEGREES + [(rng.randint(-1, 4), rng.randint(0, 4)) for _ in range(10)]
    _check_against_oracle(PolyRing(A, "y"), rng, coeff, degrees)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_resultant_matches_prs_oracle_over_A_s_X(q):
    A = poly_ring_A(q)
    As = PolyRing(A, "s")
    AsX = PolyRing(As, "X")
    rng = random.Random(1600 + q)

    def coeff(rng):
        return AsX.from_coeffs(
            [As.from_coeffs([A.random_element(rng, 1) for _ in range(2)]) for _ in range(2)]
        )

    # nested coefficients grow fast: y-degrees up to 3 keep this quick
    degrees = [(m, n) for m, n in _RESULTANT_DEGREES if max(m, n) <= 3]
    _check_against_oracle(PolyRing(AsX, "y"), rng, coeff, degrees)


def _ref_mul(a, b):
    """Product over any tower of nested rings: a schoolbook loop over every
    pair of coefficients, zeros included, down to A = F_q[t]."""
    if isinstance(a, FqPoly):
        return a * b
    ring = a.ring
    if a.is_zero or b.is_zero:
        return ring.zero
    out = [ring.base.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + _ref_mul(ai, bj)
    return ring.from_coeffs(out)


def _ref_divmod(a, b):
    """Schoolbook long division over any tower of nested rings: every step
    reads the top of the remainder, divides it by lead(b) with
    _ref_exact_div, monic or not, and subtracts the whole multiple of b,
    zero coefficients included.  Over A it is _schoolbook_divmod."""
    ring = a.ring
    if isinstance(a, FqPoly):
        return _schoolbook_divmod(ring, a, b)
    rem, b = list(a.coeffs), b.coeffs
    quot = [ring.base.zero] * max(len(rem) - len(b) + 1, 0)
    while rem and len(rem) >= len(b):
        c = _ref_exact_div(rem[-1], b[-1])
        shift = len(rem) - len(b)
        quot[shift] = c
        for j, bc in enumerate(b):
            rem[shift + j] = rem[shift + j] - _ref_mul(c, bc)
        while rem and rem[-1].is_zero:
            rem.pop()
    return ring.from_coeffs(quot), ring.from_coeffs(rem)


def _ref_exact_div(a, b):
    quot, rem = _ref_divmod(a, b)
    if not rem.is_zero:
        raise ValueError("inexact")
    return quot


def _outcome(op, a, b):
    """op(a, b), or ValueError when a division step is not exact."""
    try:
        return op(a, b)
    except ValueError:
        return ValueError


def _nested_rings(q):
    """(A[x], A[s][y]) and a random coefficient for each, about a third
    of them zero so that divisors have interior zeros."""
    A = poly_ring_A(q)
    As = PolyRing(A, "s")

    def in_A(rng):
        return A.random_element(rng, 2) if rng.random() < 0.7 else A.zero

    def in_As(rng):
        return As.from_coeffs([in_A(rng) for _ in range(rng.randint(1, 3))])

    return [(PolyRing(A, "x"), in_A), (PolyRing(As, "y"), in_As)]


def _nested_poly(ring, coeff, rng, degree, lead=None):
    """A polynomial of degree exactly degree with top coefficient lead (a
    random nonzero one when lead is None)."""
    top = lead
    while top is None or top.is_zero:
        top = coeff(rng)
    return ring.from_coeffs([coeff(rng) for _ in range(degree)] + [top])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_nested_divmod_matches_schoolbook(q):
    """divmod, exact_div and * on A[x] and A[s][y] against the schoolbook
    references: monic and non-monic divisors (each with interior zeros),
    a zero dividend, a divisor longer than the dividend, exact quotients
    under a non-monic lead, and ValueError on an inexact step."""
    rng = random.Random(1700 + q)
    for ring, coeff in _nested_rings(q):
        base = ring.base
        x = ring.gen()
        cases = []
        for _ in range(12):
            monic = _nested_poly(ring, coeff, rng, rng.randint(1, 3), base.one)
            other = _nested_poly(ring, coeff, rng, rng.randint(1, 3))
            quot = _nested_poly(ring, coeff, rng, rng.randint(0, 3))
            low = ring.from_coeffs([coeff(rng) for _ in range(int(other.degree))])
            cases += [
                (_nested_poly(ring, coeff, rng, rng.randint(0, 6)), monic),
                (_nested_poly(ring, coeff, rng, rng.randint(0, 6)), other),
                (_ref_mul(quot, other), other),
                (_ref_mul(quot, other) + low, other),
            ]
        sparse = x**4 + x.scale(coeff(rng) or base.one) + ring.constant(coeff(rng))
        cases += [
            (ring.zero, sparse),
            (x**2 + ring.one, sparse),
            (x**9 + x**3, sparse),
            (x**2, x.scale(base.gen()) + ring.one),
        ]
        # products whose output coefficients cancel: the x term of
        # (x + c)(x - c), both middle terms of (x^2 + cx + c^2)(x - c), and
        # the x^2 term -uvw + vuw of (ux + v)(uw x^2 - vw x)
        c = _nested_poly(ring, coeff, rng, 0)
        u, v, w = (_nested_poly(ring, coeff, rng, 0) for _ in range(3))
        cases += [
            (x + c, x - c),
            (x**2 + x * c + c * c, x - c),
            (x * u + v, x**2 * (w * u) - x * (v * w)),
        ]
        raised = exact = 0
        for a, b in cases:
            assert a * b == _ref_mul(a, b) == b * a
            got = _outcome(divmod, a, b)
            assert got == _outcome(_ref_divmod, a, b)
            assert _outcome(Poly.exact_div, a, b) == _outcome(_ref_exact_div, a, b)
            if got is ValueError:
                raised += 1
            else:
                quo, rem = got
                assert _ref_mul(quo, b) + rem == a
                assert rem.is_zero or rem.degree < b.degree
                exact += rem.is_zero
        assert divmod(ring.zero, sparse) == (ring.zero, ring.zero)
        assert divmod(x**2 + ring.one, sparse) == (ring.zero, x**2 + ring.one)
        with pytest.raises(ValueError):
            divmod(x**2, x.scale(base.gen()) + ring.one)
        # the random cases hit both outcomes and exact quotients
        assert raised >= 5 and exact >= 12
        for a, b in cases[-3:]:
            assert (a * b).coeffs[1:-1].count(base.zero) == 1 + (a.degree == 2)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_nested_truediv_is_exact_division(q):
    """a / b on A[x] and A[s][y]: the quotient when b divides a, and
    ValueError when the remainder or a step's coefficient division is not
    exact.  A constant b is no unit in general: (gx + g^2) / g = x + g for
    the generator g of the base, but (x + g) / g raises."""
    rng = random.Random(1800 + q)
    for ring, coeff in _nested_rings(q):
        for _ in range(6):
            b = _nested_poly(ring, coeff, rng, rng.randint(1, 3))
            quot = _nested_poly(ring, coeff, rng, rng.randint(0, 3))
            assert _ref_mul(quot, b) / b == quot
        x, g = ring.gen(), ring.constant(ring.base.gen())
        for _ in range(3):
            b = _nested_poly(ring, coeff, rng, 0)
            quot = _nested_poly(ring, coeff, rng, rng.randint(0, 3))
            assert _ref_mul(quot, b) / b == quot
        assert (x * g + g * g) / g == x + g
        for a, b in ((x**2 + ring.one, x), (x**2, x.scale(ring.base.gen()) + ring.one), (x + g, g)):
            with pytest.raises(ValueError, match="not exact"):
                a / b
        with pytest.raises(ZeroDivisionError):
            x / ring.zero


def test_poly_ring_is_one_object_per_base_and_variable():
    A = poly_ring_A(3)
    F = rational_function_field(2)
    assert PolyRing(GF(3), "t") is A
    for base in (GF(4), A, F, PolyRing(A, "s"), PolyRing(F, "X")):
        for var in ("X", "y"):
            R = PolyRing(base, var)
            assert PolyRing(base, var) is R
            assert PolyRing(base, var).gen() == R.gen()
    assert PolyRing(F, "X") is not PolyRing(F, "Y")
    assert PolyRing(F, "X").gen() != PolyRing(F, "Y").gen()


@pytest.mark.parametrize("parent", [GaloisField, PolyRing, FractionField, SkewPolyRing])
def test_parents_compare_by_identity(parent):
    # each parent has one constructor that returns its one object
    assert "__eq__" not in vars(parent)
    assert "__hash__" not in vars(parent)
