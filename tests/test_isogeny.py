"""Isogenies: verification, pushforward, duals, the rank 3 closed forms."""

import gc
import random

import pytest

from drinfeld import (
    DrinfeldModule,
    QuotientField,
    dual,
    minimal_N,
    parse_element,
    pushforward,
    random_isogenous_pair,
    rank2_t_isogenies,
    remark_rank3_check,
    verify,
)
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.factor import monic_polys_of_degree
from drinfeld.poly import PolyRing
from drinfeld.errors import InvariantViolation, KernelNotStable


def _mod(q, r, gs):
    F = rational_function_field(q)
    return DrinfeldModule(F, q, r, [parse_element(g, F) for g in gs])


def test_verify_identity_and_endomorphism():
    phi = _mod(2, 2, ["t+1", "1"])
    assert verify(phi.skew.one, phi, phi)
    A = poly_ring_A(2)
    f = phi.phi_of(A.gen() + A.one)
    assert verify(f, phi, phi)
    wrong = _mod(2, 2, ["t+1", "t"])
    assert not verify(phi.skew.one, phi, wrong)


def test_pushforward_scalar_is_twist():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    c = F.t
    out = pushforward(phi, phi.skew.constant(c))
    assert out == phi.twist(F.one / c)


def test_pushforward_example():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    f = phi.skew([F.one, F.one])  # tau + 1, kernel line y = 1
    out = pushforward(phi, f)
    assert verify(f, phi, out)


def test_pushforward_unstable_kernel():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    bad = phi.skew([F.t, F.one])
    with pytest.raises(KernelNotStable):
        pushforward(phi, bad)


def test_minimal_N_cases():
    phi = _mod(2, 2, ["t+1", "1"])
    A = poly_ring_A(2)
    t = A.gen()
    assert minimal_N(phi, phi.phi_t)[0] == t
    assert minimal_N(phi, phi.phi_of(t * (t + A.one)))[0] == t * (t + A.one)
    F = phi.field
    f = phi.skew([F.one, F.one])
    N, phi_N, fhat = minimal_N(phi, f)
    assert (N, phi_N) == (t, phi.phi_t) and fhat * f == phi_N


def _unstable_kernel_line():
    """(phi, f) at q = 3 with ker f = F_q x, x = t + 1, and phi_t(x) = y =
    t^2, phi_t(y) = 0: ker f lies in phi[t^2] but is not phi-stable.  The
    two conditions are linear in g_1 and g_2, solved here by Cramer's rule."""
    F = rational_function_field(3)
    t = F.t
    x, y = t + 1, t**2
    det = y**3 * x**9 - y**9 * x**3
    g1 = (-t * y * x**9 - y**9 * (y - t * x)) / det
    g2 = (y**3 * (y - t * x) + t * y * x**3) / det
    phi = DrinfeldModule(F, 3, 2, [g1, g2])
    return phi, phi.skew([-(x**2), F.one])


def test_minimal_N_rejects_non_isogeny():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    bad = phi.skew([F.t, F.one])  # kernel not phi-stable, see above
    with pytest.raises(KernelNotStable):
        minimal_N(phi, bad)
    # f divides phi_{t^2} but not phi_t, and the first relation,
    # R_1 = phi_t mod f = y / x times R_0 = 1, has y / x outside F_q
    phi, f = _unstable_kernel_line()
    t = poly_ring_A(3).gen()
    assert phi.phi_of(t**2).right_divmod(f)[1].is_zero
    assert not phi.phi_t.right_divmod(f)[1].is_zero
    for op in (minimal_N, pushforward):
        with pytest.raises(KernelNotStable):
            op(phi, f)


def _search_minimal_N(phi, f):
    """The reference: every monic N of each degree from ceil(tau-deg f / r)
    up to tau-deg f, in a fixed order, until f right-divides phi_N."""
    A = poly_ring_A(phi.q)
    bound = int(f.tau_degree)
    for deg in range(-(-bound // phi.r), bound + 1):
        for N in monic_polys_of_degree(A, deg):
            phi_N = phi.phi_of(N)
            fhat, rem = phi_N.right_divmod(f)
            if rem.is_zero:
                return N, phi_N, fhat
    raise InvariantViolation("no N up to the degree bound")


def _worst_placed(A, deg):
    """The monic N of degree deg that the search reaches last in its
    degree: every lower coefficient has code q - 1."""
    return A.from_codes([A.q - 1] * deg + [1])


def _differential_cases(q, r, rng):
    """(phi, f): generated pairs both ways, phi_N for deg N <= 3 (<= 2 at
    q = 9) on a module of small coefficients, including the worst-placed
    N, composites of two t-isogeny edges, f = 1, a unit, and candidates
    whose kernel is almost surely not phi-stable."""
    A = poly_ring_A(q)
    phi, phi2, f, P = random_isogenous_pair(q, r, rng)
    F, S = phi.field, phi.skew
    yield phi, f
    yield phi2, P
    other, _, g, _ = random_isogenous_pair(q, r, rng)
    yield other, g
    small = DrinfeldModule(F, q, r, [F.t + 1] + [F.one] * (r - 1))
    for deg in range(1, (2 if q == 9 else 3) + 1):
        yield small, small.phi_of(_worst_placed(A, deg))
        yield small, small.phi_of(A.from_codes([rng.randrange(q) for _ in range(deg)] + [1]))
    if r == 2:
        for edge in rank2_t_isogenies(phi)[:2]:
            for back in rank2_t_isogenies(edge.target)[:2]:
                yield phi, back.f * edge.f
    yield phi, S.one
    yield phi, S.constant(F.t + 1)
    yield phi, S([F.t, F.one])
    if r == 2:  # at q = 9, r = 3 its remainders grow like phi_t^k: callers run pushforward first
        yield phi, S([F.one, F.t, F.t + 1])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_minimal_N_matches_the_search(q):
    """Whenever minimal_N returns, (N, phi_N, phi_N / f) is the search's;
    whenever it raises KernelNotStable, so does pushforward."""
    rng = random.Random(36 + q)
    outcomes = {"returned": 0, "raised": 0}
    for r in (2, 3):
        for phi, f in _differential_cases(q, r, rng):
            try:
                got = minimal_N(phi, f)
            except KernelNotStable:
                outcomes["raised"] += 1
                with pytest.raises(KernelNotStable):
                    pushforward(phi, f)
                continue
            outcomes["returned"] += 1
            assert got == _search_minimal_N(phi, f), (q, r, f)
    assert outcomes["returned"] >= 15 and outcomes["raised"] >= 2, outcomes


def test_dual_rejects_wrong_target():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    f = phi.skew([F.one, F.one])
    with pytest.raises(InvariantViolation):
        dual(phi, phi, f)


def test_dual_identities_trivial():
    phi = _mod(2, 2, ["t+1", "1"])
    data = dual(phi, phi, phi.skew.one)
    assert data.fhat == phi.skew.one
    assert data.N.degree == 0


def test_dual_rank2_t_isogeny():
    phi = _mod(2, 2, ["t+1", "1"])
    isos = rank2_t_isogenies(phi)
    assert len(isos) == 1
    iso = isos[0]
    data = dual(phi, iso.target, iso.f)
    assert data.N == poly_ring_A(2).gen()
    assert data.fhat.tau_degree == 1
    # the dual is itself a verified isogeny back
    assert verify(data.fhat, iso.target, phi)
    assert data.fhat * iso.f == phi.phi_of(data.N)
    assert iso.f * data.fhat == iso.target.phi_of(data.N)


def _counting(monkeypatch, cls, name, counts):
    real = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def test_dual_reuses_the_division_that_found_N(monkeypatch):
    """dual divides and evaluates phi_N no more than minimal_N does, plus
    one phi2_N for the second composition check."""
    from drinfeld.dmod import DrinfeldModule as Module
    from drinfeld.skew import SkewPoly

    counts = {"right_divmod": 0, "phi_of": 0}
    _counting(monkeypatch, SkewPoly, "right_divmod", counts)
    _counting(monkeypatch, Module, "phi_of", counts)
    rng = random.Random(17)
    for trial in range(20):
        q, r = (2, 3, 4)[trial % 3], (2, 3)[trial % 2]
        phi, phi2, f, _ = random_isogenous_pair(q, r, rng)
        counts.update(right_divmod=0, phi_of=0)
        N = minimal_N(phi, f)[0]
        search = dict(counts)
        counts.update(right_divmod=0, phi_of=0)
        assert dual(phi, phi2, f).N == N
        assert counts == {
            "right_divmod": search["right_divmod"],
            "phi_of": search["phi_of"] + 1,
        }, (q, r, counts, search)


def test_minimal_N_skips_degrees_too_small_to_divide(monkeypatch):
    """A random pair has N = t and 0 < tau-deg f < r: the first Krylov
    step, phi_t = S f + R_1, already gives R_1 = 0, so N = t costs one
    division."""
    from drinfeld.skew import SkewPoly

    counts = {"right_divmod": 0}
    _counting(monkeypatch, SkewPoly, "right_divmod", counts)
    rng = random.Random(29)
    for trial in range(6):
        q, r = (2, 3, 4)[trial % 3], (2, 3)[trial % 2]
        phi, _, f, _ = random_isogenous_pair(q, r, rng)
        counts["right_divmod"] = 0
        assert minimal_N(phi, f)[0] == poly_ring_A(q).gen()
        assert counts["right_divmod"] == 1, (q, r, counts)


def test_minimal_N_divides_at_most_tau_deg_f_times(monkeypatch):
    """One right division per Krylov step, and a relation by step tau-deg
    f: for f = phi_N, N = t^3 + 4t^2 + 4t + 4 at q = 5 (the last cubic the
    search reaches), at most 6 divisions where the search made 125."""
    from drinfeld.skew import SkewPoly

    counts = {"right_divmod": 0}
    _counting(monkeypatch, SkewPoly, "right_divmod", counts)
    phi = _mod(5, 2, ["t+1", "1"])
    N = poly_ring_A(5).from_codes([4, 4, 4, 1])
    f = phi.phi_of(N)
    assert minimal_N(phi, f) == (N, f, phi.skew.one)
    assert counts["right_divmod"] <= f.tau_degree == 6, counts


def test_rank2_t_isogenies_generic_empty():
    phi = _mod(2, 2, ["t^2+t+1", "t"])
    # the y-polynomial t*y^3 + (t^2+t+1)y + t has no rational roots here
    assert rank2_t_isogenies(phi) == []


def test_rank2_t_isogenies_leaves_no_cycles():
    """The y-polynomial ring is the shared F[y]: no call may leave a
    throwaway ring for the cyclic collector."""
    phi = _mod(2, 2, ["t+1", "1"])
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            isos = rank2_t_isogenies(phi)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert len(isos) == 1
    assert leaked == 0


@pytest.mark.parametrize("q,r", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_random_pair_construction(q, r):
    rng = random.Random(71)
    A = poly_ring_A(q)
    for _ in range(8):
        phi, phi2, f, P = random_isogenous_pair(q, r, rng)
        assert verify(f, phi, phi2)
        assert verify(P, phi2, phi)
        assert f.tau_degree + P.tau_degree == r
        data = dual(phi, phi2, f)
        assert data.N == A.gen()
        assert f.tau_degree + data.fhat.tau_degree == r * int(data.N.degree)
        assert q**int(data.fhat.tau_degree) <= (q**int(f.tau_degree)) ** (r - 1)


def test_remark3_f0_one():
    F = rational_function_field(2)
    rep = remark_rank3_check(2, F.one)
    assert rep["ok"]
    assert parse_element(rep["g1"], F) == F.t + 1


def test_remark3_f0_t():
    F = rational_function_field(2)
    rep = remark_rank3_check(2, F.t)
    assert rep["ok"]
    assert parse_element(rep["g1"], F) == F.one + F.t ** 6


def test_remark3_many_units():
    F = rational_function_field(2)
    A = F.ring
    rng = random.Random(72)
    for _ in range(10):
        f0 = F.random_element(rng, 2, nonzero=True)
        assert remark_rank3_check(2, f0)["ok"]


def test_remark3_quotient_field_root():
    # L = F[x]/(x^7 + x - t) at q = 2: x is a genuine root of the
    # degree q^2+q+1 equation with g_1 = 1
    F = rational_function_field(2)
    Fx = PolyRing(rational_function_field(2), "x")
    x = Fx.gen()
    mod = x**7 + x - Fx.constant(F.t)
    L = QuotientField(F, mod)
    rep = remark_rank3_check(2, L.gen(), g1=L.one)
    assert rep["ok"]
