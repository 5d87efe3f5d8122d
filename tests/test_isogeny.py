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


def test_minimal_N_rejects_non_isogeny():
    phi = _mod(2, 2, ["t+1", "1"])
    F = phi.field
    bad = phi.skew([F.t, F.one])  # kernel not phi-stable, see above
    with pytest.raises(InvariantViolation):
        minimal_N(phi, bad)


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
    """phi_N has tau-degree r deg N < tau-deg f below deg N = ceil(tau-deg
    f / r), so the search starts there: a random pair has N = t and
    0 < tau-deg f < r, and one division finds it."""
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
