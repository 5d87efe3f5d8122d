"""Modular polynomial machinery: psi/kappa, the two Phi_t routes,
interpolation sets, and the height bound evaluators."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from drinfeld import (
    BivarPoly,
    build_Sn,
    compute_phi_t,
    compute_phi_t_interpolated,
    hsia_main_term,
    kappa,
    lagrange_reconstruct,
    prop65_bound,
    psi,
    rank2_t_isogenies,
    random_module,
    tk_bounds,
)
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.modpoly import asymptotic_bound, phi_t_slices
from drinfeld.poly import PolyRing


def test_psi_kappa_values():
    A2 = poly_ring_A(2)
    t = A2.gen()
    assert psi(2, t) == 3
    assert kappa(2, t) == Fraction(1, 2)
    assert psi(2, t**2 + t + A2.one) == 5
    assert kappa(2, t**2 + t + A2.one) == Fraction(1, 2)

    A3 = poly_ring_A(3)
    t3 = A3.gen()
    assert psi(3, t3 * (t3 + A3.one)) == 16
    assert kappa(3, t3 * (t3 + A3.one)) == Fraction(2, 3)


def test_psi_kappa_guards():
    A = poly_ring_A(2)
    with pytest.raises(ValueError):
        psi(2, A.one)
    with pytest.raises(ValueError):
        kappa(2, A.monomial(A.base.one, 0))


def test_bivar_height():
    A = poly_ring_A(2)
    t = A.gen()
    f = BivarPoly(A, {(3, 0): A.one, (0, 3): A.one})
    assert f.height() == 0
    g = BivarPoly(A, {(1, 1): t**5, (1, 0): A.one})
    assert g.height() == 5
    shifted = BivarPoly(A, {k: v * t**2 for k, v in g.coeffs.items()})
    assert shifted.height() == g.height() + 2


@pytest.mark.parametrize("q", [2, 3])
def test_phi_t_structure(q):
    phi_t = compute_phi_t(q)
    assert phi_t.deg_x == q + 1
    assert phi_t.deg_y == q + 1
    assert phi_t.is_monic_in_x()
    assert phi_t.is_monic_in_y()
    assert phi_t.is_symmetric()


@pytest.mark.parametrize("q", [2, 3])
def test_phi_t_routes_agree(q):
    assert compute_phi_t(q) == compute_phi_t_interpolated(q)


@pytest.mark.parametrize("q", [2, 3])
def test_phi_t_vanishes_on_isogenous_pairs(q):
    F = rational_function_field(q)
    phi_t = compute_phi_t(q)
    rng = random.Random(91)
    found = 0
    while found < 8:
        phi = random_module(F, q, 2, rng)
        for iso in rank2_t_isogenies(phi):
            j = phi.j_invariants()[0]
            jp = iso.target.j_invariants()[0]
            assert phi_t.evaluate(F, jp, j).is_zero
            assert phi_t.evaluate(F, j, jp).is_zero
            found += 1


def test_phi_t_nonvanishing_generic():
    F = rational_function_field(2)
    phi_t = compute_phi_t(2)
    t = F.t
    # j = t^3 and j' = t^3 + 1 are not generically t-isogenous
    assert not phi_t.evaluate(F, t**3, t**3 + 1).is_zero


def test_phi_t_height_within_prop65():
    A = poly_ring_A(2)
    t = A.gen()
    h = compute_phi_t(2).height()
    bound = prop65_bound(2, t)
    assert abs(bound - 33.66) < 0.05
    assert h <= Fraction(bound)

    A3 = poly_ring_A(3)
    assert compute_phi_t(3).height() <= Fraction(prop65_bound(3, A3.gen()))


def test_build_Sn_sizes():
    s = build_Sn(2, 1)
    assert len(s) == 8
    s0 = build_Sn(3, 0)
    assert len(s0) == 3
    rep = tk_bounds(3, 0, list(s0)[:3])
    assert rep["spacing_ok"] and rep["coeff_ok"]
    assert rep["spacing_log_bound"] == 0


def test_tk_bounds_q2_n1():
    s = list(build_Sn(2, 1))
    rep = tk_bounds(2, 1, s[:4])
    assert rep["d"] == 3
    assert rep["coeff_ok"]
    assert rep["coeff_log_max"] <= 3
    assert rep["spacing_ok"]


def test_tk_bounds_guards():
    s = list(build_Sn(2, 1))
    with pytest.raises(ValueError):
        tk_bounds(2, 1, s + s)  # more than |S_1| points
    with pytest.raises(ValueError):
        tk_bounds(2, 1, [])


def _tk_bounds_oracle(points):
    """Reference (coeff_log_max, spacing_log_min): every T_k built from
    scratch as prod_{s != k} (Y - y_s) / (y_k - y_s), O(d^3) products."""
    F = points[0].field
    FY = PolyRing(F, "Y")
    coeff_max = spacing_min = None
    for k, yk in enumerate(points):
        num, ck = FY.one, F.one
        for s, ys in enumerate(points):
            if s != k:
                num = num * (FY.gen() - FY.constant(ys))
                ck = ck * (yk - ys)
        spacing = Fraction(ck.deg_infinity())
        spacing_min = spacing if spacing_min is None else min(spacing_min, spacing)
        for c in num.coeffs:
            if not c.is_zero:
                h = Fraction((c / ck).deg_infinity())
                coeff_max = h if coeff_max is None else max(coeff_max, h)
    return coeff_max, spacing_min


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1])
def test_tk_bounds_match_per_k_oracle(q, n):
    """Every d up to |S_n| - 1 where the O(d^3) oracle stays within
    seconds; at q = 4, n = 1 (|S_1| = 64) it would take minutes, so d
    stops at 15 there."""
    points = list(build_Sn(q, n))
    top = len(points) - 1 if len(points) <= 27 else 15
    rng = random.Random(93)
    for d in sorted({0, 1, 2, top // 2, top} & set(range(top + 1))):
        chosen = points[: d + 1] if d % 2 else rng.sample(points, d + 1)
        rep = tk_bounds(q, n, chosen)
        assert (rep["coeff_log_max"], rep["spacing_log_min"]) == _tk_bounds_oracle(chosen)
        assert rep["d"] == d and rep["coeff_ok"] and rep["spacing_ok"]


def test_lagrange_roundtrip_constant():
    F = rational_function_field(2)
    FX = PolyRing(F, "X")
    s = list(build_Sn(2, 1))
    pairs = [(y, FX.one) for y in s[:3]]
    out = lagrange_reconstruct(pairs, 2, n=1)
    assert out.deg_y == 0 and out.deg_x == 0
    assert out.height() == 0


@pytest.mark.parametrize("q", [2, 3])
def test_lagrange_roundtrip_random_bivariate(q):
    F = rational_function_field(q)
    A = F.ring
    FX = PolyRing(F, "X")
    rng = random.Random(92)
    s = list(build_Sn(q, 1))
    for _ in range(10):
        target = BivarPoly(
            A,
            {
                (i, j): A.random_element(rng, 2)
                for i in range(4)
                for j in range(4)
            },
        )
        if target.is_zero:
            continue
        d = target.deg_y
        points = s[: d + 1]
        pairs = [(y, target.eval_y(FX, y)) for y in points]
        back = lagrange_reconstruct(pairs, d, n=1)
        assert back == target


_HEIGHT_BOUND_VIOLATION = """
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.errors import InvariantViolation
from drinfeld.modpoly import BivarPoly, build_Sn, lagrange_reconstruct
from drinfeld.poly import PolyRing

A, F = poly_ring_A(2), rational_function_field(2)
FX = PolyRing(F, "X")
P = BivarPoly(A, {(1, 0): A.one, (0, 1): A.gen() ** 4})  # X + t^4 Y
points = [y for y in build_Sn(2, 1) if y in (F.zero, F.one / F.t)]
pairs = [(y, P.eval_y(FX, y)) for y in points]
try:
    lagrange_reconstruct(pairs, 1, n=0)
    print("returned", __debug__)
except InvariantViolation:
    print("raised", __debug__)
"""


def test_lagrange_height_bound_survives_optimize():
    """h(P) = 4 > B + 2nd = 3 on the points {0, 1/t} of S_1 with n = 0:
    the check must raise even under python -O, which strips asserts."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _HEIGHT_BOUND_VIOLATION],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["raised", "False"]


def test_lagrange_reconstructs_phi_t():
    q = 2
    phi_t = compute_phi_t(q)
    F = rational_function_field(q)
    FX = PolyRing(F, "X")
    s = list(build_Sn(q, 1))
    points = s[: q + 2]
    pairs = [(y, phi_t.eval_y(FX, y)) for y in points]
    assert lagrange_reconstruct(pairs, q + 1, n=1) == phi_t


def test_phi_t_slices_match_evaluation():
    q = 2
    phi_t = compute_phi_t(q)
    # ring parents compare by identity, so evaluate in the slices' ring
    for jk, slice_poly in phi_t_slices(q, range(3)):
        assert slice_poly == phi_t.eval_y(slice_poly.ring, jk)


def test_hsia_main_term_values():
    A = poly_ring_A(2)
    t = A.gen()
    assert hsia_main_term(2, t) == 0  # deg m = 2 kappa(m) here
    assert hsia_main_term(2, t**2 + t + A.one) == Fraction(15, 2)


def test_asymptotic_bound():
    A = poly_ring_A(2)
    t = A.gen()
    v = asymptotic_bound(2, t, 0.01)
    assert abs(v - (4 + 0.01) * 3) < 1e-6
    with pytest.raises(ValueError):
        asymptotic_bound(2, t, 0)
