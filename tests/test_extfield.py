"""Quotient fields, F[x]/(m) and the residue fields A/l, and the
irreducibility / rational-root machinery."""

import random
import time

import pytest

from drinfeld import GF, QuotientField, skew_ring
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.errors import BadReduction, IrreducibilityUncertain
from drinfeld.extfield import irreducible_over_F, rational_roots, to_A_x
from drinfeld.factor import factor
from drinfeld.dmod import random_module
from drinfeld.isogeny import random_isogenous_pair, rank2_t_isogenies
from drinfeld.modpoly import compute_phi_t
from drinfeld.poly import PolyRing, content


def _L(q, build):
    F = rational_function_field(q)
    Fx = PolyRing(rational_function_field(q), "x")
    return F, QuotientField(F, build(F, Fx))


def test_quotient_field_arithmetic():
    F, L = _L(2, lambda F, Fx: Fx.gen() ** 2 + Fx.gen() + Fx.constant(F.t))
    x = L.gen()
    assert x * x + x + L.t == L.zero
    rng = random.Random(101)
    for _ in range(20):
        a = L.random_element(rng, 2, nonzero=True)
        assert a * a.inverse() == L.one
        b = L.random_element(rng, 2)
        assert (a + b) * (a + b) == a * a + a * b + b * a + b * b


def test_quotient_field_rejects_reducible():
    F = rational_function_field(2)
    Fx = PolyRing(rational_function_field(2), "x")
    with pytest.raises(ValueError):
        QuotientField(F, Fx.gen() ** 2 + Fx.constant(F.t**2))
    A2, A4 = poly_ring_A(2), poly_ring_A(4)
    malformed = [
        (F, A2.from_codes([1, 1, 1])),  # a modulus in A, not in F[x]
        (GF(2), A4.from_codes([2, 1, 1])),  # in F_4[t], not in F_2[t]
        (GF(3), A2.from_codes([1, 1, 1])),
        (GF(2), A2.one),  # constant
        (F, Fx.gen().scale(F.t)),  # not monic
    ]
    for K, m in malformed:
        with pytest.raises(ValueError):
            QuotientField(K, m)
    # A/l checks its modulus with factor.is_irreducible
    with pytest.raises(ValueError):
        _residue(2, [1, 0, 1])  # (t + 1)^2
    with pytest.raises(ValueError):
        _residue(3, [2, 0, 1])  # (t + 1)(t + 2)


# -- residue fields A/l --------------------------------------------------------


def _residue(q, codes):
    """A/l over F_q for the prime l with coefficient codes codes."""
    return QuotientField(GF(q), poly_ring_A(q).from_codes(codes))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_residue_field_agrees_with_GF(p, d):
    """A/l for l = GF(p^d)'s modulus is GF(p^d): the map sending the
    element with coordinates c to the class of sum c_i t^i respects +, *,
    inverse and the p-th power on every element and pair."""
    k = GF(p**d)
    L = _residue(p, k.modulus)
    image = {x: L(L.xring.from_codes(x.coords())) for x in k.elements()}
    assert len(set(image.values())) == p**d
    for x, lx in image.items():
        assert image[x**p] == lx**p
        if x:
            assert image[x.inverse()] == lx.inverse()
        for y, ly in image.items():
            assert image[x + y] == lx + ly
            assert image[x * y] == lx * ly


@pytest.mark.parametrize("q, codes", [(2, [1, 1, 0, 1]), (3, [2, 1, 1]), (4, [2, 1, 1])])
def test_residue_reduction_is_a_homomorphism(q, codes):
    """Reduction F -> A/l respects + and * on l-integral elements and
    raises BadReduction on the others."""
    F = rational_function_field(q)
    L = _residue(q, codes)
    ell = F.from_poly(L.modulus)
    assert L.t == L.gen() and L(F.t) == L.t and L(ell).is_zero
    rng = random.Random(180 + q)
    integral = 0
    for _ in range(60):
        f, g = F.random_element(rng, 3), F.random_element(rng, 3)
        if (f.den % L.modulus).is_zero or (g.den % L.modulus).is_zero:
            continue
        integral += 1
        assert L(f + g) == L(f) + L(g)
        assert L(f * g) == L(f) * L(g)
        if L(f):
            with pytest.raises(BadReduction):
                L(f / ell)
    assert integral >= 40


@pytest.mark.parametrize("q, codes", [(2, [1, 1, 1]), (3, [1, 0, 1]), (4, [2, 1, 1]), (9, [3, 1])])
def test_residue_reduction_of_skew_products(q, codes):
    """red(f) * red(g) = red(f * g) for f, g in F{tau} with l-integral
    coefficients, in (A/l){tau}: reduction commutes with c -> c^q."""
    F = rational_function_field(q)
    L = _residue(q, codes)
    S, SL = skew_ring(F, q), skew_ring(L, q)
    A = F.ring

    def red(f):
        return SL([L(c) for c in f.coeffs])

    rng = random.Random(190 + q)
    for _ in range(15):
        # a denominator 1 + l t is prime to l
        den = A.one + L.modulus * A.gen()
        f, g = (
            S([F.make(A.random_element(rng, 3), den) for _ in range(rng.randrange(1, 4))])
            for _ in range(2)
        )
        assert red(f) * red(g) == red(f * g)


# every parent draws with random_element(rng, max_degree, nonzero=False)


def test_ring_over_A_draws_to_max_degree():
    f = PolyRing(poly_ring_A(3), "y").random_element(random.Random(1), 1)
    assert f.degree <= 1 and all(c.degree <= 1 for c in f.coeffs)


def test_residue_field_draws_every_class():
    L = _residue(2, [1, 1, 0, 0, 1])
    rng = random.Random(5)
    assert len({L.random_element(rng, 1) for _ in range(200)}) == 16


def test_F_q_draws_ignore_max_degree():
    k = GF(9)
    a, b = random.Random(7), random.Random(7)
    assert [k.random_element(a, 5, nonzero=True) for _ in range(20)] == [
        k.random_element(b, nonzero=True) for _ in range(20)
    ]


def test_rational_roots():
    F = rational_function_field(2)
    Ax = PolyRing(poly_ring_A(2), "x")
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    f = (Ax.monomial(t, 1) - Ax.one) * (x - Ax.constant(t + A.one))
    roots = set(rational_roots(f, F))
    assert roots == {F.one / F.t, F.from_poly(t + A.one)}
    assert rational_roots(x**2 + Ax.constant(t), F) == []


@pytest.mark.parametrize("q", [2, 4])
def test_rational_roots_ignore_content(q):
    """The rational root test needs no primitive input: scaling g by a
    nonconstant c in A leaves the root set unchanged."""
    F = rational_function_field(q)
    Ax = PolyRing(poly_ring_A(q), "x")
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    c = t**2 + A.one
    g = (Ax.monomial(t, 1) - Ax.one) * (x - Ax.constant(t + A.one)) * x
    cg = g.scale(c)
    assert content(cg) == c
    assert set(rational_roots(cg, F)) == set(rational_roots(g, F))
    assert set(rational_roots(g, F)) == {F.zero, F.one / F.t, F.from_poly(t + A.one)}
    assert rational_roots((x**2 + Ax.constant(t)).scale(c), F) == []


def test_rational_roots_of_cleared_product_q4():
    """Over F_4(t): clear the denominators of a product of linear factors
    with rational roots, then recover exactly those roots."""
    F = rational_function_field(4)
    A = F.ring
    t = A.gen()
    u = F.base_field.generator_u()
    Fx = PolyRing(rational_function_field(4), "x")
    roots = [
        F.make(t.scale(u), t + A.one),
        F.from_poly(t + A.constant(u)),
        F.one / F.t,
        F.zero,
    ]
    f = Fx.one
    for y in roots:
        f = f * (Fx.gen() - Fx.constant(y))
    f = f.scale(F.make(A.one, t**2 + A.constant(u)))
    g = to_A_x(f)
    assert g.ring.base is A and content(g) == A.one
    assert set(rational_roots(g, F)) == set(roots)
    assert len(rational_roots(g, F)) == len(roots)


def test_irreducibility_certificates():
    F = rational_function_field(2)
    Ax = PolyRing(poly_ring_A(2), "x")
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    # linear in x
    assert irreducible_over_F(x - Ax.constant(t))
    # degree <= 3 without rational roots
    assert irreducible_over_F(x**2 + Ax.monomial(t, 1) + Ax.constant(t))
    assert not irreducible_over_F((x - Ax.constant(t)) * (x - Ax.one))
    # linear in t with coprime t-coefficients (Gauss certificate)
    assert irreducible_over_F(x**7 + x - Ax.constant(t))
    # linear in t, so the Gauss certificate decides it first
    assert irreducible_over_F(x**5 - Ax.constant(t))
    # quadratic in t, so only Eisenstein at the prime t decides it
    assert irreducible_over_F(x**5 + Ax.constant(t**2) * x + Ax.constant(t))
    # one Newton segment of slope 2/5 at t and at infinity (Dumas; t^2 is
    # no Eisenstein constant)
    assert irreducible_over_F(x**5 + Ax.constant(t**2))
    # slope 4/5 at infinity alone: at t and t + 1 the polygon has two segments
    assert irreducible_over_F(x**5 + Ax.monomial(t, 1) + Ax.constant(t**2 * (t + A.one) ** 2))
    # content not 1 is rejected
    assert not irreducible_over_F(Ax.monomial(t, 1) + Ax.constant(t))


def test_irreducibility_uncertain():
    Ax = PolyRing(poly_ring_A(2), "x")
    A = Ax.base
    t = A.gen()
    x = Ax.gen()
    # degree 4 in x, quadratic in t: neither Gauss nor Dumas at infinity or
    # at t + 1, where each polygon has two segments, applies
    f = x**4 + Ax.constant(t**2) * x + Ax.constant(t**2 + A.one)
    with pytest.raises(IrreducibilityUncertain):
        irreducible_over_F(f)


@pytest.mark.parametrize("q", [2, 3])
def test_no_certificate_for_a_product(q):
    """A primitive product of two factors of degree >= 2 in x is never
    certified irreducible: it is reported reducible or uncertain."""
    Ax = PolyRing(poly_ring_A(q), "x")
    t, x = Ax.constant(Ax.base.gen()), Ax.gen()
    rng = random.Random(260 + q)
    # (x^2 + t)^2 is one Newton segment, of slope 1/2 and not 1/4;
    # (x^2 + t)(x^3 + t^2) has slopes of denominators 2 and 3
    products = [(x**2 + t, x**2 + t), (x**2 + t, x**3 + t * t)]
    for _ in range(40):
        products.append([
            Ax.from_coeffs([Ax.base.random_element(rng, 2) for _ in range(k)] + [Ax.base.one])
            for k in (2, rng.randint(2, 3))
        ])
    for g, h in products:
        try:
            assert not irreducible_over_F(g * h), g * h
        except IrreducibilityUncertain:
            pass


@pytest.mark.parametrize("q", [2, 4])
def test_to_A_x_lands_in_the_shared_ring(q):
    F = rational_function_field(q)
    Fx = PolyRing(rational_function_field(q), "x")
    Ax = PolyRing(poly_ring_A(q), "x")
    f = to_A_x(Fx.gen() ** 2 + Fx.constant(F.t))
    assert f.ring is Ax
    assert f == Ax.gen() ** 2 + Ax.constant(Ax.base.gen())


def _monic_divisors(a):
    """All monic divisors of nonzero a in A, lexicographic in the exponent
    vector over factor's primes: the reference enumeration of the
    rational root test."""
    _, facs = factor(a)
    divisors = [a.ring.one]
    for p, mult in facs:
        new = []
        for d in divisors:
            cur = d
            for _ in range(mult + 1):
                new.append(cur)
                cur = cur * p
        divisors = new
    return divisors


def _rational_roots_oracle(f, F):
    """The F-level rational root test: every candidate u a / b made
    canonical in F, kept on its first occurrence, and evaluated in F."""
    roots = []
    if f.constant.is_zero:
        roots.append(F.zero)
        while f.constant.is_zero:
            f = f.ring.from_coeffs(f.coeffs[1:])
        if f.degree == 0:
            return roots
    units = [u for u in F.base_field.elements() if not u.is_zero]
    seen = set()
    for a in _monic_divisors(f.constant):
        for b in _monic_divisors(f.lead):
            for u in units:
                cand = F.make(a.scale(u), b)
                if cand in seen:
                    continue
                seen.add(cand)
                val = F.zero
                for c in reversed(f.coeffs):
                    val = val * cand + F.from_poly(c)
                if val.is_zero:
                    roots.append(cand)
    return roots


def _oracle_inputs(q, rng):
    """Polynomials in A[x] with known shapes: rank-2 y-polynomials
    g_2 y^(q+1) + g_1 y + t, cleared products of linear factors (with the
    root 0, repeated roots and a non-primitive scaling), and
    polynomials in x^p."""
    F = rational_function_field(q)
    A = F.ring
    Fx = PolyRing(rational_function_field(q), "x")
    Ax = PolyRing(poly_ring_A(q), "x")
    t = A.gen()
    p = F.characteristic
    out = []
    for _ in range(3):
        phi, _, _, _ = random_isogenous_pair(q, 2, rng, size_bound=1)
        g1, g2 = phi.coeffs
        out.append(to_A_x(Fx.monomial(g2, q + 1) + Fx.monomial(g1, 1) + Fx.constant(F.t)))
    for _ in range(3):
        roots = [F.random_element(rng, 1) for _ in range(rng.randint(1, 3))]
        roots += [roots[0], F.zero]  # a repeated root and the root 0
        f = Fx.one
        for y in roots:
            f = f * (Fx.gen() - Fx.constant(y))
        g = to_A_x(f)
        out.append(g)
        out.append(g.scale(t * (t + A.one)))  # content t(t + 1), shared by f(0) and lead
    for _ in range(2):
        # h(x^p), and (b x - a)^p = b^p x^p - a^p with the root a / b
        h = [A.random_element(rng, 1) for _ in range(2)] + [t + A.one]
        out.append(Ax.from_coeffs([h[i // p] if i % p == 0 else A.zero for i in range(2 * p + 1)]))
        a, b = A.random_element(rng, 2), A.random_element(rng, 1, nonzero=True)
        out.append((Ax.monomial(b, 1) - Ax.constant(a)) ** p)
    return [f for f in out if not f.is_zero and f.degree >= 1]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rational_roots_match_the_F_level_oracle(q):
    """The A-level decision gives the oracle's roots, in its order: the
    rank-2 isogenies are listed in root order."""
    F = rational_function_field(q)
    rng = random.Random(160 + q)
    inputs = _oracle_inputs(q, rng)
    assert any(len(rational_roots(f, F)) > 1 for f in inputs)
    for f in inputs:
        assert rational_roots(f, F) == _rational_roots_oracle(f, F), f


def _phi_t_slices(q, rng, count):
    """(phi, Phi_t(X, j(phi)) in A[x]) for count random rank-2 modules."""
    F = rational_function_field(q)
    Phi, FX = compute_phi_t(q), PolyRing(F, "X")
    out = []
    for _ in range(count):
        phi = random_module(F, q, 2, rng)
        out.append((phi, to_A_x(Phi.eval_y(FX, phi.j_invariants()[0]))))
    return out


def test_rational_roots_of_phi_t_slices_match_the_oracle():
    """On Phi_t(X, j) at q = 2, where the slopes leave few of the divisor
    pairs, the roots and their order are the oracle's."""
    F = rational_function_field(2)
    slices = [f for _, f in _phi_t_slices(2, random.Random(270), 10)]
    assert sum(len(rational_roots(f, F)) for f in slices) >= 3
    for f in slices:
        assert rational_roots(f, F) == _rational_roots_oracle(f, F), f


@pytest.mark.parametrize("q", [2, 3])
def test_rank2_targets_are_rational_roots_of_phi_t(q):
    """Every target j' of a rational t-isogeny from phi is a root in F of
    Phi_t(X, j(phi)), for 200 random modules; at q = 3 within 5 s."""
    F = rational_function_field(q)
    slices = _phi_t_slices(q, random.Random(280 + q), 200)
    start = time.perf_counter()
    found = 0
    for phi, f in slices:
        roots = rational_roots(f, F)
        targets = [iso.target.j_invariants()[0] for iso in rank2_t_isogenies(phi)]
        assert all(j in roots for j in targets), phi
        found += len(targets)
    assert found >= 10 and time.perf_counter() - start < 5


@pytest.mark.parametrize("q", [2, 3])
def test_rational_roots_and_reconstruction_stay_in_A(q, monkeypatch):
    """Neither loop builds an element of F: FractionField.make and
    RatFunc.__add__ run 0 times inside them."""
    from drinfeld.modpoly import BivarPoly, build_Sn, lagrange_reconstruct
    from drinfeld.poly import PolyRing
    from drinfeld.ratfunc import FractionField, RatFunc

    F = rational_function_field(q)
    A = F.ring
    rng = random.Random(170 + q)
    inputs = _oracle_inputs(q, rng)
    target = BivarPoly(A, {(i, j): A.random_element(rng, 2) for i in range(3) for j in range(3)})
    FX = PolyRing(F, "X")
    pairs = [(y, target.eval_y(FX, y)) for y in build_Sn(q, 1)[: target.deg_y + 1]]
    expected = [_rational_roots_oracle(f, F) for f in inputs]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(FractionField, "make", counted("make", FractionField.make))
    add = counted("add", RatFunc.__add__)
    monkeypatch.setattr(RatFunc, "__add__", add)
    monkeypatch.setattr(RatFunc, "__radd__", add)
    assert [rational_roots(f, F) for f in inputs] == expected
    assert lagrange_reconstruct(pairs, target.deg_y) == target
    assert calls == []


def test_inverse_reports_a_reducible_modulus_as_invariant_violation(monkeypatch):
    """The gcd with an irreducible modulus is a unit; a nonconstant one is
    an internal failure, reported as a DrinfeldError, not ArithmeticError."""
    from drinfeld import extfield
    from drinfeld.errors import InvariantViolation

    F, L = _L(2, lambda F, Fx: Fx.gen() ** 2 + Fx.gen() + Fx.constant(F.t))
    x = L.gen()
    monkeypatch.setattr(extfield, "poly_xgcd", lambda a, m: (m, a, a))
    with pytest.raises(InvariantViolation, match="not irreducible"):
        x.inverse()
