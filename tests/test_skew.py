"""Twisted polynomial rings: commutation, composition, right division."""

import random
import re

import pytest

from drinfeld import skew_ring
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.dmod import random_module
from drinfeld.isogeny import random_isogenous_pair, rank2_t_isogenies
from drinfeld.ff import power
from drinfeld.modpoly import _phi_slice
from drinfeld.poly import PolyRing, resultant
from drinfeld.skew import SkewPoly


def _setup(q):
    F = rational_function_field(q)
    return F, skew_ring(F, q)


def _evaluate(f, x):
    """Value at x of f's additive polynomial sum a_i x^(q^i)."""
    q = f.ring.q
    return sum([c * x ** (q**i) for i, c in enumerate(f.coeffs)], x - x)


def test_commutation_rule():
    F, S = _setup(2)
    t = F.t
    tau = S.tau()
    c = S.constant(t)
    assert tau * c == S.monomial(t**2, 1)


def test_product_example():
    F, S = _setup(2)
    t = F.t
    a = S([F.one, F.one])  # tau + 1
    b = S([t, F.one])  # tau + t
    ab = a * b
    assert ab == S([t, t**2 + 1, F.one])
    assert S.one * b == b
    assert b * S.one == b


# q = 9 is left out: it evaluates x^(9^4) on rational functions, which
# takes minutes
@pytest.mark.parametrize("q", [2, 3, 4])
def test_multiplication_is_composition(q):
    """a*b acts on points as the composite additive polynomial."""
    F, S = _setup(q)
    rng = random.Random(51)
    for _ in range(25):
        a = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        b = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        x = F.random_element(rng, 2)
        assert _evaluate(a * b, x) == _evaluate(a, _evaluate(b, x))


@pytest.mark.parametrize("q", [2, 3])
def test_additive_action(q):
    F, S = _setup(q)
    rng = random.Random(52)
    for _ in range(25):
        f = S([F.random_element(rng, 1) for _ in range(rng.randrange(1, 4))])
        x = F.random_element(rng, 2)
        y = F.random_element(rng, 2)
        assert _evaluate(f, x + y) == _evaluate(f, x) + _evaluate(f, y)


def test_right_divmod_cases():
    F, S = _setup(2)
    t = F.t
    a = S([t, t**2 + 1, F.one])
    b = S([t, F.one])
    quo, rem = a.right_divmod(b)
    assert quo == S([F.one, F.one])
    assert rem.is_zero
    # deg a < deg b
    quo, rem = b.right_divmod(a)
    assert quo.is_zero and rem == b
    # a = b
    quo, rem = a.right_divmod(a)
    assert quo == S.one and rem.is_zero


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_right_divmod_random(q):
    F, S = _setup(q)
    rng = random.Random(53)
    for _ in range(40):
        a = S([F.random_element(rng, 2) for _ in range(rng.randrange(1, 5))])
        b = S([F.random_element(rng, 2) for _ in range(rng.randrange(1, 4))])
        if b.is_zero:
            continue
        quo, rem = a.right_divmod(b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.tau_degree < b.tau_degree


@pytest.mark.parametrize("q, field_q", [(3, 2), (2, 3), (2, 4), (4, 2)])
def test_ring_rejects_a_q_other_than_the_field_q(q, field_q):
    # tau = x^3 over F_2(t) is not additive: tau (t + 1) != tau t + tau 1
    with pytest.raises(ValueError, match="q"):
        skew_ring(rational_function_field(field_q), q)


def test_zero_division_raises():
    F, S = _setup(2)
    with pytest.raises(ZeroDivisionError):
        S.one.right_divmod(S.zero)


def test_elements_of_another_ring_are_rejected():
    """An element of F_3(t){tau} is not one of F_2(t){tau}: coercion and
    arithmetic across the rings name both."""
    S2 = _setup(2)[1]
    F3, S3 = _setup(3)
    x = S3([F3.t, F3.one])
    both = re.escape(f"element of {S3!r}, not of {S2!r}")
    with pytest.raises(ValueError, match=both):
        S2(x)
    for op in (
        lambda y: y + x,
        lambda y: y * x,
        lambda y: y.right_divmod(x),
    ):
        with pytest.raises(ValueError, match=both):
            op(S2.tau())
    assert S3(x) is x


# -- differential tests against the textbook loops ---------------------------


def _ref_mul(S, a, b):
    """(ab)_k = sum_{i+j=k} a_i b_j^(q^i), every term added to a zero, the
    power by square-and-multiply rather than the ring's Frobenius ``**``."""
    F = S.base
    out = [F.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ai * power(bj, S.q**i, F.one)
    return S(out)


def _ref_right_divmod(S, a, b):
    """Right division that subtracts c tau^k b in full, the cancelled
    leading term included, and then drops the zeros it made."""
    F = S.base
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    quot = [F.zero] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        twisted = [power(bj, S.q**k, F.one) for bj in b.coeffs]
        c = rem[-1] / twisted[-1]
        quot[k] = c
        for j, bj in enumerate(twisted):
            rem[k + j] = rem[k + j] - c * bj
        while rem and rem[-1].is_zero:
            rem.pop()
    return S(quot), S(rem)


def _random_coeff(R, rng, nonzero=False):
    """An element of F of t-degree <= 1 over t-degree <= 1, or of A[y] of
    y-degree <= 1 over t-degree <= 1."""
    if not isinstance(R, PolyRing):
        return R.random_element(rng, 1, nonzero=nonzero)
    while True:
        c = R.from_coeffs([R.base.random_element(rng, 1) for _ in range(2)])
        if c or not nonzero:
            return c


def _sparse(F, S, rng, length, lead=None):
    """A skew polynomial over F (or A[y]) of tau-degree length - 1 whose
    lower coefficients are zero a third of the time, with top coefficient
    lead (a random nonzero one when lead is None)."""
    if length == 0:
        return S.zero
    low = [F.zero if rng.random() < 1 / 3 else _random_coeff(F, rng) for _ in range(length - 1)]
    return S(low + [lead or _random_coeff(F, rng, nonzero=True)])


def _nested(q):
    """A[y] and A[y]{tau}: the nested base whose q-th powers are
    ``Poly``'s Frobenius substitution on the y- and t-coefficients."""
    R = PolyRing(poly_ring_A(q), "y")
    return R, skew_ring(R, q)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_product_matches_textbook_loop(q):
    F, S = _setup(q)
    rng = random.Random(54 + q)
    t = F.t
    pairs = [
        (_sparse(F, S, rng, rng.randrange(0, 4)), _sparse(F, S, rng, rng.randrange(0, 4)))
        for _ in range(20)
    ]
    # interior zeros, constants and one on either side
    gap = S([t, F.zero, F.zero, t + F.one])
    c = S.constant(t**2 + F.one)
    pairs += [(gap, gap), (c, gap), (gap, c), (S.one, gap), (gap, S.one), (c, c)]
    # (ab)_1 = a_0 b_1 + a_1 b_0^q cancels to 0; in (ab)_2 the first two
    # of its three terms cancel
    a0, a1, b0 = t + F.one, t, t**2 + t
    b1 = -a1 * b0**q / a0
    b2 = -a1 * b1**q / a0
    pairs += [(S([a0, a1]), S([b0, b1])), (S([a0, a1, t]), S([b0, b1, b2]))]
    for a, b in pairs:
        assert a * b == _ref_mul(S, a, b)
    ab = pairs[-2][0] * pairs[-2][1]
    assert ab.coeff(1).is_zero and ab.tau_degree == 2
    # over A[y], tau-degree <= 2 keeps the reference's powers at q^2
    R, S = _nested(q)
    for _ in range(12):
        a, b = (_sparse(R, S, rng, rng.randrange(0, 4)) for _ in range(2))
        assert a * b == _ref_mul(S, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_right_divmod_matches_textbook_loop(q):
    F, S = _setup(q)
    rng = random.Random(55 + q)
    for db in range(4):
        for _ in range(6):
            b = _sparse(F, S, rng, db + 1)
            # a dividend shorter than the divisor, as long, and longer
            a = _sparse(F, S, rng, rng.randrange(0, db + 3))
            quo, rem = a.right_divmod(b)
            assert (quo, rem) == _ref_right_divmod(S, a, b)
            assert quo * b + rem == a
    gap = S([F.t, F.zero, F.zero, F.one])
    a = _sparse(F, S, rng, 6)
    assert a.right_divmod(gap) == _ref_right_divmod(S, a, gap)
    # monic divisors, which skip the division by lc(b)^(q^k)
    for db in range(1, 4):
        for _ in range(4):
            b = _sparse(F, S, rng, db + 1, F.one)
            a = _sparse(F, S, rng, rng.randrange(db, 2 * db + 3))
            assert a.right_divmod(b) == _ref_right_divmod(S, a, b)
    # over A[y] a divisor must be monic; shifts 0 <= k <= 2 keep the
    # reference's powers at q^2
    R, S = _nested(q)
    for db in range(1, 4):
        for _ in range(4):
            b = _sparse(R, S, rng, db + 1, R.one)
            a = _sparse(R, S, rng, rng.randrange(db + 1, db + 4))
            quo, rem = a.right_divmod(b)
            assert (quo, rem) == _ref_right_divmod(S, a, b)
            assert quo * b + rem == a


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_phi_of_counts_skew_products(q, monkeypatch):
    """phi_a for monic a costs max(deg a - 1, 0) skew products."""
    F = rational_function_field(q)
    A = F.ring
    rng = random.Random(56 + q)
    phi = random_module(F, q, 2, rng, max_degree=1)
    products = [0]
    mul = SkewPoly.__mul__

    def counting(self, other):
        products[0] += 1
        return mul(self, other)

    for deg in range(4):
        low = [A.base.random_element(rng) for _ in range(deg)]
        a = A.from_coeffs(low + [A.base.one])
        monkeypatch.setattr(SkewPoly, "__mul__", counting)
        products[0] = 0
        phi_a = phi.phi_of(a)
        assert products[0] == max(deg - 1, 0)
        monkeypatch.undo()
        assert phi_a == _horner_from_zero(phi, a)
        # the lead q - 1 makes a non-monic for q > 2
        b = A.from_coeffs(low + [A.base.element_from_code(q - 1)])
        assert phi.phi_of(b) == _horner_from_zero(phi, b)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_power_is_phi_of_power(q):
    """phi_t^3 by repeated squaring is phi_(t^3) by Horner."""
    F = rational_function_field(q)
    phi = random_module(F, q, 2, random.Random(70 + q), max_degree=1)
    assert phi.phi_t**3 == phi.phi_of(F.ring.gen() ** 3)
    assert phi.phi_t**0 == phi.skew.one


def _horner_from_zero(phi, a):
    ref = phi.skew.zero
    for c in reversed(a.coeffs):
        ref = ref * phi.phi_t + phi.skew.constant(phi.field(c))
    return ref


# -- F{tau} over polynomial rings ----------------------------------------------


def _hand_pushforward(R, s, t, q):
    """The hand expansion of phi_t = t + s tau + tau^2 along tau - y in
    R{tau}, R = base[y]: the torsion polynomial p = y^(q+1) + s y + t and
    g1' = s^q - y + y^(q^2) mod p, with g2' = 1."""
    y = R.gen()
    p = y ** (q + 1) + R.monomial(s, 1) + R.constant(t)
    return p, (R.constant(s**q) - y + y ** (q * q)) % p


def _hand_phi_slice(base, s, q):
    """Res_y(p, X - g1'^(q+1)) in base[X] from the hand expansion, the
    power by q + 1 multiplications mod p."""
    p, g1p = _hand_pushforward(PolyRing(base, "y"), s, base(poly_ring_A(q).gen()), q)
    power = p.ring.one
    for _ in range(q + 1):
        power = (power * g1p) % p
    up = PolyRing(base, "X")
    upy = PolyRing(up, "y")
    return resultant(
        p.map_coeffs(up.constant, upy),
        upy.constant(up.gen()) - power.map_coeffs(up.constant, upy),
    )


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_kernel_line_division_over_A_s_y(q):
    """phi_t = t + s tau + tau^2 over A[s][y], whose q is that of A: the
    remainder of phi_t by tau - y is the hand-expanded torsion polynomial
    p, and the quotient of (tau - y) phi_t by tau - y is
    phi'_t = t + g1' tau + tau^2 mod p."""
    A = poly_ring_A(q)
    As = PolyRing(A, "s")
    R = PolyRing(As, "y")
    p, g1p = _hand_pushforward(R, As.gen(), As.constant(A.gen()), q)
    S = skew_ring(R, q)
    assert S.q == R.q == q
    t = R(A.gen())
    phi_t = S([t, R(As.gen()), R.one])
    f = S([-R.gen(), R.one])
    quot, rem = phi_t.right_divmod(f)
    assert quot * f + rem == phi_t
    assert rem.tau_degree == 0 and rem.constant == p
    assert (f * quot).coeff(1) % p == g1p
    quot, rem = (f * phi_t).right_divmod(f)
    assert quot * f + rem == f * phi_t
    assert rem.constant % p == R.zero
    assert [c % p for c in quot.coeffs] == [t, g1p, R.one]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_phi_slice_matches_hand_expansion(q):
    """``_phi_slice`` reads p and g1' off the right division by tau - y;
    the hand expansion's resultant is its reference, at s in A and, for
    q <= 3, at the generic s of A[s]."""
    A = poly_ring_A(q)
    t = A.gen()
    for s in (A.zero, A.one, t + 1, t**2 + t):
        assert _phi_slice(A, s, q) == _hand_phi_slice(A, s, q)
    if q <= 3:
        As = PolyRing(A, "s")
        assert _phi_slice(As, As.gen(), q) == _hand_phi_slice(As, As.gen(), q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_line_division_over_F_y(q):
    """phi_t of a rank 2 module over F, in F[y]{tau}: the remainder by
    tau - y is g2 y^(q+1) + g1 y + t, the torsion polynomial of
    ``rank2_t_isogenies``, and it vanishes at the y of every t-isogeny
    tau - y that function finds."""
    rng = random.Random(2300 + q)
    phi = random_isogenous_pair(q, 2, rng)[0]
    F = phi.field
    Fy = PolyRing(F, "y")
    y = Fy.gen()
    S = skew_ring(Fy, q)
    g1, g2 = phi.coeffs
    phi_t = S([Fy(c) for c in phi.phi_t.coeffs])
    rem = phi_t.right_divmod(S([-y, Fy.one]))[1]
    assert rem.constant == Fy.monomial(g2, q + 1) + Fy.monomial(g1, 1) + Fy.constant(F.t)
    isogenies = rank2_t_isogenies(phi)
    assert isogenies
    for iso in isogenies:
        assert rem.constant(-iso.f.constant) == F.zero
