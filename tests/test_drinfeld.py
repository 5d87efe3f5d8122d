"""Drinfeld modules: the phi_a homomorphism, J-invariants, heights."""

import importlib
import random
from fractions import Fraction

import pytest

from drinfeld import DrinfeldModule, Place, log_abs, random_module, valuation, weil_height
from drinfeld.factor import factor, is_irreducible, monic_polys_of_degree
from drinfeld.base import poly_ring_A, rational_function_field


def _mod(q, r, gs):
    F = rational_function_field(q)
    from drinfeld import parse_element

    return DrinfeldModule(F, q, r, [parse_element(g, F) for g in gs])


def test_constructor_guards():
    F = rational_function_field(2)
    with pytest.raises(ValueError):
        DrinfeldModule(F, 2, 1, [F.one])
    with pytest.raises(ValueError):
        DrinfeldModule(F, 2, 2, [F.one, F.zero])
    with pytest.raises(ValueError):
        DrinfeldModule(F, 2, 2, [F.one])
    # q must be the field's q: at q = 3 over F_2(t), tau is not additive
    with pytest.raises(ValueError, match="q"):
        DrinfeldModule(F, 3, 2, [F.one, F.one])
    F4 = rational_function_field(4)
    with pytest.raises(ValueError, match="q"):
        DrinfeldModule(F4, 2, 2, [F4.one, F4.one])


def test_phi_of_is_homomorphism():
    phi = _mod(2, 2, ["t+1", "1"])
    A = poly_ring_A(2)
    t = A.gen()
    assert phi.phi_of(A.one) == phi.skew.one
    assert phi.phi_of(t) == phi.phi_t
    sq = phi.phi_of(t**2)
    assert sq == phi.phi_t * phi.phi_t
    assert sq.tau_degree == 4
    assert sq.coeff(0) == phi.field.t ** 2
    rng = random.Random(61)
    for _ in range(10):
        a = A.random_element(rng, 3)
        b = A.random_element(rng, 3)
        assert phi.phi_of(a * b) == phi.phi_of(a) * phi.phi_of(b)
        assert phi.phi_of(a + b) == phi.phi_of(a) + phi.phi_of(b)


def test_j_invariants():
    phi = _mod(2, 2, ["t", "1"])
    assert phi.d == 3
    assert phi.j_invariants()[0] == phi.field.t ** 3

    phi0 = _mod(3, 2, ["0", "t"])
    assert phi0.j_invariants()[0].is_zero

    phi3 = _mod(2, 3, ["1", "1", "1"])
    assert phi3.d == 21
    assert all(j == phi3.field.one for j in phi3.j_invariants())


def test_height_G_examples():
    phi = _mod(2, 2, ["t", "1"])
    assert phi.height_G() == 1
    const = _mod(3, 2, ["1", "2"])
    assert const.height_G() == 0


def test_height_J_examples():
    phi = _mod(2, 2, ["t", "1"])
    assert phi.height_J() == 3  # h(t^3)
    phi0 = _mod(2, 2, ["0", "1"])
    assert phi0.height_J() == 0


@pytest.mark.parametrize("q,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_d_hG_equals_hJ(q, r):
    F = rational_function_field(q)
    rng = random.Random(62)
    for _ in range(25):
        phi = random_module(F, q, r, rng)
        assert phi.d * phi.height_G() == phi.height_J()


def test_twist_invariance():
    phi = _mod(2, 2, ["t", "1"])
    tw = phi.twist(phi.field.t)
    assert tw.coeffs[0] == phi.field.t ** 2
    assert tw.coeffs[1] == phi.field.t ** 3
    assert tw.height_G() == phi.height_G()
    assert tw.height_J() == phi.height_J()
    assert tw.j_invariants() == phi.j_invariants()
    back = tw.twist(phi.field.one / phi.field.t)
    assert back == phi


def test_twist_invariance_random():
    F = rational_function_field(3)
    rng = random.Random(63)
    for _ in range(20):
        phi = random_module(F, 3, 2, rng)
        c = F.random_element(rng, 2, nonzero=True)
        tw = phi.twist(c)
        assert tw.height_G() == phi.height_G()
        assert tw.height_J() == phi.height_J()


def test_stable_at():
    A = poly_ring_A(2)
    vt = Place.finite(A.gen())
    assert _mod(2, 2, ["t", "1"]).stable_at(vt)
    assert _mod(2, 2, ["1", "t"]).stable_at(vt)  # max(0, -1/3) = 0
    assert not _mod(2, 2, ["1", "1/t"]).stable_at(vt)  # 1/3 not an integer
    # degree-2 place P = t^2 + 1 over F_3: the test is on h_G^P / deg P
    P = Place.finite(poly_ring_A(3).gen() ** 2 + poly_ring_A(3).one)
    half = _mod(3, 2, ["1/(t^2+1)", "1"])  # min(-1/2, 0) = -1/2
    assert half.local_height_G(P) == 1
    assert not half.stable_at(P)
    whole = _mod(3, 2, ["1/(t^2+1)^2", "1"])  # min(-2/2, 0) = -1
    assert whole.local_height_G(P) == 2
    assert whole.stable_at(P)
    assert whole.twist(whole.field.t**2 + 1).coeffs[0] == whole.field.one


def test_taguchi_finite():
    """The finite part of h_G, which is the finite part of the Taguchi
    height for a module with everywhere stable reduction."""
    assert _mod(2, 2, ["t", "1"]).height_G_split()[0] == 0
    # place t contributes max(0, -1) = 0 for g = (1, t^3): the max in the
    # local height includes the unit coordinate g_1 = 1
    assert _mod(2, 2, ["1", "t^3"]).height_G_split()[0] == 0
    # a module whose finite part is genuinely negative: g = (t, t^3) has
    # local height -1 at the place t
    assert _mod(2, 2, ["t", "t^3"]).height_G_split()[0] == -1
    assert _mod(3, 2, ["1/(t^2+1)^2", "1"]).height_G_split()[0] == 2


def _oracle_places(coeffs):
    """Infinity and every certified prime of a numerator or denominator,
    found by factoring each one (the reference route)."""
    primes = {}
    for g in coeffs:
        for f in (g.num, g.den):
            if f.degree > 0:
                for p, _ in factor(f)[1]:
                    primes[p] = True
    return [Place.infinity()] + [Place.finite(p) for p in primes]


def _oracle_heights(phi):
    """(h_G, h_J, finite part, infinite part, per-place table, stable
    reduction at every finite place) as sums over places of log_abs,
    which divides by each prime for its valuation."""
    q, d = phi.q, phi.d
    nonzero = [(i, g) for i, g in enumerate(phi.coeffs, start=1) if not g.is_zero]
    gr = phi.coeffs[-1]
    table, hJ, stable = {}, Fraction(0), True
    for v in _oracle_places([g for _, g in nonzero]):
        table[v] = max(Fraction(log_abs(g, v), q**i - 1) for i, g in nonzero)
        base = d // (q**phi.r - 1) * log_abs(gr, v)
        hJ += max(d // (q**i - 1) * log_abs(g, v) - base for i, g in nonzero)
        if not v.is_infinite:
            stable = stable and (table[v] / v.degree).denominator == 1
    inf = table[Place.infinity()]
    fin = sum(table.values(), Fraction(0)) - inf
    return fin + inf, hJ, fin, inf, table, stable


def _random_modules(q, r, rng, count):
    """Random modules, every other one with denominators, and some zero
    middle coefficients."""
    F = rational_function_field(q)
    out = []
    for k in range(count):
        if k % 2:
            gs = [F.random_element(rng, 3) for _ in range(r - 1)]
        else:
            gs = [F.from_poly(F.ring.random_element(rng, 3)) for _ in range(r - 1)]
        if r > 2:
            gs[rng.randrange(1, r - 1)] = F.zero
        gs.append(F.random_element(rng, 3, nonzero=True))
        out.append(DrinfeldModule(F, q, r, gs))
    return out


def _shared_factor_modules(q, r, rng, count):
    """Modules whose coefficients share factors: each numerator and
    denominator is a product of a few common atoms, among them a p-th
    power, so one coefficient's numerator cancels another's denominator
    and the coprime base has to split and merge."""
    F = rational_function_field(q)
    A = F.ring
    out = []
    for _ in range(count):
        a, b = (A.random_element(rng, 2, nonzero=True) for _ in range(2))
        atoms = [a, b, a * b, a**2, (A.gen() * a + A.one) ** A.characteristic]
        gs = []
        for _ in range(r):
            num = rng.choice(atoms) * rng.choice(atoms)
            gs.append(F.make(num, rng.choice(atoms)))
        out.append(DrinfeldModule(F, q, r, gs))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_heights_match_place_sum_oracle(q, r):
    rng = random.Random(64 + 10 * q + r)
    modules = _random_modules(q, r, rng, 6) + _shared_factor_modules(q, r, rng, 4)
    for phi in modules:
        hG, hJ, fin, inf, table, stable = _oracle_heights(phi)
        assert phi.height_G() == hG
        assert phi.height_J() == hJ
        assert phi.height_G_split() == (fin, inf, table)
        for v, h in table.items():
            assert phi.local_height_G(v) == h
        assert all(phi.stable_at(v) for v in table if not v.is_infinite) == stable


def _local_height_by_valuation(phi, place):
    """h_G^v off the module's rows, dividing by P (the reference route): at
    a finite P only the row of the one base element b that P divides
    counts, with h_G^P = v_P(b) deg P times its max."""
    if place.is_infinite:
        return phi._row_max(phi._rows[0][2])
    for _, b, logs in phi._rows[1:]:
        m = valuation(phi.field.from_poly(b), place.prime)
        if m:
            return m * place.degree * phi._row_max(logs)
    return Fraction(0)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [2, 3])
def test_local_heights_match_valuation_reference(q, r):
    """local_height_G and height_G_split read one table, which agrees with
    the valuation reference on its support and off it (every prime of
    degree <= 2, and <= 3 at q <= 3) and sums to h_G."""
    A = poly_ring_A(q)
    degrees = (1, 2, 3) if q <= 3 else (1, 2)
    primes = [p for d in degrees for p in monic_polys_of_degree(A, d) if is_irreducible(p)]
    rng = random.Random(68 + 10 * q + r)
    for phi in _random_modules(q, r, rng, 4) + _shared_factor_modules(q, r, rng, 2):
        fin, inf, table = phi.height_G_split()
        assert sum(table.values(), Fraction(0)) == fin + inf == phi.height_G()
        off = [v for v in map(Place, primes) if v not in table]
        assert off
        for v in list(table) + off:
            assert phi.local_height_G(v) == _local_height_by_valuation(phi, v)
        assert all(phi.local_height_G(v) == 0 for v in off)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_naive_height_is_max_coefficient_weil_height(q):
    rng = random.Random(66 + q)
    for r in (2, 3):
        for phi in _random_modules(q, r, rng, 6) + _shared_factor_modules(q, r, rng, 2):
            one = phi.field.one
            want = max(weil_height([one, g]) for g in phi.coeffs if not g.is_zero)
            assert phi.naive_height() == want


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_rank2_height_J_is_weil_height_of_j(q):
    """In rank 2, h_J is h(j) for j = g_1^(q+1)/g_2, j = 0 included."""
    F = rational_function_field(q)
    rng = random.Random(67 + q)
    modules = _random_modules(q, 2, rng, 8) + _shared_factor_modules(q, 2, rng, 2)
    modules += [DrinfeldModule(F, q, 2, [F.zero, F.random_element(rng, 3, nonzero=True)])]
    for phi in modules:
        assert phi.height_J() == weil_height([F.one, phi.j_invariants()[0]])


def test_heights_do_not_recertify_primes(monkeypatch):
    """Heights use the primes factor returned; no irreducibility test."""

    def refuse(f):
        raise AssertionError("is_irreducible called on a height path")

    for name in ("drinfeld.places", "drinfeld.factor"):
        monkeypatch.setattr(importlib.import_module(name), "is_irreducible", refuse)
    phi = _mod(2, 3, ["(t^2+t+1)^2/t", "0", "(t+1)^3/(t^2+t+1)"])
    assert phi.height_G() == Fraction(30, 7)
    assert phi.height_J() == 90
    assert phi.height_G_split()[:2] == (Fraction(9, 7), 3)


def test_heights_factor_nothing(monkeypatch):
    """h_G and h_J read the coprime base, built with gcds only."""

    def refuse(f):
        raise AssertionError("factor called on a height path")

    for name in ("drinfeld.dmod", "drinfeld.factor"):
        monkeypatch.setattr(importlib.import_module(name), "factor", refuse)
    phi = _mod(2, 3, ["(t^2+t+1)^2/t", "0", "(t+1)^3/(t^2+t+1)"])
    assert phi.height_G() == Fraction(30, 7)
    assert phi.height_J() == 90
    rng = random.Random(65)
    for q, r in ((3, 2), (4, 3), (9, 2)):
        for phi in _shared_factor_modules(q, r, rng, 3):
            assert phi.d * phi.height_G() == phi.height_J()


def test_heights_refine_the_coefficients_once(monkeypatch):
    """h_G, h_J and the per-place view read one coprime base."""
    places = importlib.import_module("drinfeld.places")
    real, calls = places.coprime_base, []

    def counted(pieces):
        calls.append(1)
        return real(pieces)

    monkeypatch.setattr(places, "coprime_base", counted)
    phi = _mod(2, 3, ["(t^2+t+1)^2/t", "0", "(t+1)^3/(t^2+t+1)"])
    assert phi.height_G() == Fraction(30, 7)
    assert phi.height_J() == 90
    assert phi.height_G_split()[:2] == (Fraction(9, 7), 3)
    assert len(calls) == 1


def test_literal_roundtrip():
    for q, r, gs in [
        (2, 2, ["t+1", "1"]),
        (4, 2, ["(t^2+u)/(t^3+t+1)", "(t^5+u*t+1)/(t^4+u)"]),
        (9, 3, ["(u*t^3+1)/(t^2+u)", "0", "(t^4+t+u)/(t^5+u*t^2+2)"]),
    ]:
        phi = _mod(q, r, gs)
        lit = phi.to_literal()
        assert DrinfeldModule.from_literal(lit) == phi
