"""Modular polynomial machinery: psi/kappa, the two Phi_t routes,
interpolation sets, and the height bound evaluators."""

import gc
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
from drinfeld import modpoly
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.errors import InvariantViolation
from drinfeld.bounds import asymptotic_bound
from drinfeld.modpoly import phi_t_slices
from drinfeld.poly import FqPoly, PolyRing


def test_psi_kappa_values():
    A2 = poly_ring_A(2)
    t = A2.gen()
    assert psi(t) == 3
    assert kappa(t) == Fraction(1, 2)
    assert psi(t**2 + t + A2.one) == 5
    assert kappa(t**2 + t + A2.one) == Fraction(1, 2)

    A3 = poly_ring_A(3)
    t3 = A3.gen()
    assert psi(t3 * (t3 + A3.one)) == 16
    assert kappa(t3 * (t3 + A3.one)) == Fraction(2, 3)


def test_psi_kappa_guards():
    A = poly_ring_A(2)
    with pytest.raises(ValueError):
        psi(A.one)
    with pytest.raises(ValueError):
        kappa(A.monomial(A.base.one, 0))


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


@pytest.mark.parametrize("q", [4, 5])
def test_phi_t_beyond_q3(q):
    """Phi_t is computed at every q: at q = 4 and 5 it is symmetric, monic
    of degree q+1 in both variables, the two routes agree, and its height
    q^2 (q+1) lies within Prop. 6.5, compared exactly."""
    phi_t = compute_phi_t(q)
    assert phi_t.deg_x == phi_t.deg_y == q + 1
    assert phi_t.is_monic_in_x() and phi_t.is_monic_in_y()
    assert phi_t.is_symmetric()
    assert compute_phi_t_interpolated(q) == phi_t
    assert phi_t.height() == q * q * (q + 1)
    assert phi_t.height() <= Fraction(prop65_bound(poly_ring_A(q).gen()))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_phi_t_weight_grading(q, monkeypatch):
    """Every monomial t^k of the X^i Y^j coefficient of Phi_t has
    k = 2 - i - j mod q - 1, and compute_phi_t raises once one
    coefficient is perturbed off its class: t added to a_00, whose
    class is 2 mod q - 1, which excludes k = 1 for every q >= 3."""
    for (i, j), a in compute_phi_t(q).coeffs.items():
        assert all((k + i + j - 2) % (q - 1) == 0 for k, c in enumerate(a.codes) if c)
    t = poly_ring_A(q).gen()
    slice_of = modpoly._phi_slice
    monkeypatch.setattr(
        modpoly,
        "_phi_slice",
        lambda base, s, q: slice_of(base, s, q) + PolyRing(base, "X")(t),
    )
    with pytest.raises(InvariantViolation, match="X\\^0 Y\\^0 coefficient is off its weight"):
        compute_phi_t(q)


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
    bound = prop65_bound(t)
    assert abs(bound - 33.66) < 0.05
    assert h <= Fraction(bound)

    A3 = poly_ring_A(3)
    assert compute_phi_t(3).height() <= Fraction(prop65_bound(A3.gen()))


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


def test_tk_bounds_leaves_no_cycles():
    """The Lagrange basis works in the shared A[Z]: no call may leave a
    throwaway ring for the cyclic collector."""
    points = list(build_Sn(2, 1))[:5]
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            rep = tk_bounds(2, 1, points)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert rep["coeff_ok"] and rep["spacing_ok"]
    assert leaked == 0


def test_tk_bounds_guards():
    s = list(build_Sn(2, 1))
    with pytest.raises(ValueError):
        tk_bounds(2, 1, s + s)  # more than |S_1| points
    with pytest.raises(ValueError):
        tk_bounds(2, 1, [])
    with pytest.raises(ValueError, match="distinct"):
        tk_bounds(2, 1, [s[0], s[1], s[0]])


def _per_k_basis(points):
    """Every T_k numerator built from scratch as prod_{s != k} (Y - y_s)
    in F[Y], O(d^3) products."""
    FY = PolyRing(points[0].field, "Y")
    nums = []
    for k in range(len(points)):
        num = FY.one
        for s, ys in enumerate(points):
            if s != k:
                num = num * (FY.gen() - FY.constant(ys))
        nums.append(num)
    return nums


def _master_basis(points):
    """Every T_k numerator as M / (Y - y_k) in F[Y], for the master
    polynomial M = prod_s (Y - y_s) built once over F."""
    FY = PolyRing(points[0].field, "Y")
    master = FY.one
    for y in points:
        master = master * (FY.gen() - FY.constant(y))
    return [master.exact_div(FY.gen() - FY.constant(y)) for y in points]


def _tk_bounds_oracle(points, basis=_per_k_basis):
    """Reference (coeff_log_max, spacing_log_min) from T_k = num_k / c_k,
    c_k = prod_{s != k} (y_k - y_s), with every coefficient in F."""
    coeff_max = spacing_min = None
    for k, num in enumerate(basis(points)):
        ck = points[0].field.one
        for s, ys in enumerate(points):
            if s != k:
                ck = ck * (points[k] - ys)
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
    """Both F[Y] oracles, at every d up to |S_n| - 1 where the O(d^3)
    one stays within seconds; at q = 4, n = 1 (|S_1| = 64) it would take
    minutes, so d stops at 15 there."""
    points = list(build_Sn(q, n))
    top = len(points) - 1 if len(points) <= 27 else 15
    rng = random.Random(93)
    for d in sorted({0, 1, 2, top // 2, top} & set(range(top + 1))):
        chosen = points[: d + 1] if d % 2 else rng.sample(points, d + 1)
        rep = tk_bounds(q, n, chosen)
        got = (rep["coeff_log_max"], rep["spacing_log_min"])
        assert got == _tk_bounds_oracle(chosen)
        assert got == _tk_bounds_oracle(chosen, _master_basis)
        assert rep["d"] == d and rep["coeff_ok"] and rep["spacing_ok"]


def _mixed_points(q, count, rng):
    """Distinct points of F outside S_n, with denominators 1, t + 1 and
    t^2 so that the common denominator D is not a power of t."""
    F = rational_function_field(q)
    A = F.ring
    t = A.gen()
    dens = [A.one, t + A.one, t**2]
    points = []
    while len(points) < count:
        den = dens[len(points) % 3]
        y = F.make(A.random_element(rng, 2, nonzero=True), den)
        if y.den == den and y not in points:
            points.append(y)
    return points


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_tk_bounds_and_reconstruction_off_Sn(q):
    """tk_bounds against both F[Y] oracles, and Lagrange round trips, on
    points with mixed denominators (D = t^2 (t + 1))."""
    F = rational_function_field(q)
    A = F.ring
    t = A.gen()
    FX = PolyRing(F, "X")
    rng = random.Random(94 + q)
    for d in (2, 4, 6):
        points = _mixed_points(q, d + 1, rng)
        assert F.clear_denominators(points)[1] == t**2 * (t + A.one)
        rep = tk_bounds(q, 1, points)
        got = (rep["coeff_log_max"], rep["spacing_log_min"])
        assert got == _tk_bounds_oracle(points)
        assert got == _tk_bounds_oracle(points, _master_basis)
        coeffs = {(i, j): A.random_element(rng, 2) for i in range(3) for j in range(d)}
        coeffs[(0, d)] = A.one  # degree exactly d in Y
        target = BivarPoly(A, coeffs)
        pairs = [(y, target.eval_y(FX, y)) for y in points]
        assert lagrange_reconstruct(pairs, d) == target


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_lagrange_basis_by_synthetic_division(q):
    """Each b_k from Horner's rule at a_k is M / (Z - a_k), and b_k(a_k)
    is c_k = prod_{s != k} (a_k - a_s): on points of S_1, on the node 0
    alone and among others, and on points with mixed denominators."""
    F = rational_function_field(q)
    A = F.ring
    AZ = PolyRing(A, "Z")
    rng = random.Random(130 + q)
    s1 = list(build_Sn(q, 1))
    point_sets = [
        [F.zero],
        s1[:5],
        rng.sample(s1, 7),
        _mixed_points(q, 5, rng),
        [F.zero] + _mixed_points(q, 4, rng),
    ]
    for points in point_sets:
        D, nums, basis = modpoly._lagrange_basis(points)
        assert (nums, D) == F.clear_denominators(points)
        master = AZ.one
        for a in nums:
            master = master * (AZ.gen() - AZ.constant(a))
        for k, (ak, bk) in enumerate(zip(nums, basis)):
            assert bk * (AZ.gen() - AZ.constant(ak)) == master
            ck = A.one
            for s, a in enumerate(nums):
                if s != k:
                    ck = ck * (ak - a)
            assert bk(ak) == ck


def test_lagrange_basis_checks_every_node_is_a_root(monkeypatch):
    """The last Horner step is M(a_k), which must vanish: a master
    polynomial built on shifted roots (its -a_s replaced by t - a_s) is
    caught as a division that is not exact."""
    points = list(build_Sn(3, 1))[:4]
    t = poly_ring_A(3).gen()
    neg = FqPoly.__neg__
    monkeypatch.setattr(FqPoly, "__neg__", lambda a: neg(a) + t)
    with pytest.raises(ValueError, match="not exact"):
        modpoly._lagrange_basis(points)


def test_tk_bounds_on_all_of_S2_match_master_oracle():
    """d = 31 at q = 2: every point of S_2 (D = t^2), against the F[Y]
    oracle; the report's logs stay Fractions."""
    points = list(build_Sn(2, 2))
    rep = tk_bounds(2, 2, points)
    got = (rep["coeff_log_max"], rep["spacing_log_min"])
    assert got == _tk_bounds_oracle(points, _master_basis)
    assert all(type(x) is Fraction for x in got)
    assert rep["d"] == 31 and rep["coeff_ok"] and rep["spacing_ok"]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_eval_y_matches_evaluate(q):
    """eval_y sums over A on the denominator b^d of y = a/b; its value at X
    agrees with the termwise evaluation in F, for y from S_1 (including 0)
    and from points with mixed denominators."""
    F = rational_function_field(q)
    A = F.ring
    FX = PolyRing(F, "X")
    rng = random.Random(120 + q)
    s1 = build_Sn(q, 1)
    ys = [s1[0], s1[1], s1[-1], rng.choice(s1)] + _mixed_points(q, 3, rng)
    xs = [F.zero, F.one, F.t, F.random_element(rng, 2, nonzero=True)]
    assert BivarPoly(A, {}).eval_y(FX, ys[-1]) == FX.zero
    for _ in range(3):
        target = BivarPoly(
            A, {(i, j): A.random_element(rng, 2) for i in range(4) for j in range(4)}
        )
        if target.is_zero:
            continue
        for y in ys:
            sliced = target.eval_y(FX, y)
            for x in xs:
                assert sliced(x) == target.evaluate(F, x, y)


def test_lagrange_rejects_non_polynomial_and_repeated_points():
    F = rational_function_field(3)
    FX = PolyRing(F, "X")
    t = F.t
    # the line through (0, 0) and (1, 1/t) is Y / t: not over A
    pairs = [(F.zero, FX.zero), (F.one, FX.constant(F.one / t))]
    with pytest.raises(ValueError, match="non-polynomial"):
        lagrange_reconstruct(pairs, 1)
    with pytest.raises(ValueError, match="distinct"):
        lagrange_reconstruct([(t, FX.one), (t, FX.one)], 1)


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
    t = poly_ring_A(q).gen()
    # ring parents compare by identity, so evaluate in the slices' ring
    for jk, slice_poly in phi_t_slices(q, [t**k for k in range(3)]):
        assert slice_poly == phi_t.eval_y(slice_poly.ring, jk)


def test_hsia_main_term_values():
    A = poly_ring_A(2)
    t = A.gen()
    assert hsia_main_term(t) == 0  # deg m = 2 kappa(m) here
    assert hsia_main_term(t**2 + t + A.one) == Fraction(15, 2)


def test_asymptotic_bound():
    A = poly_ring_A(2)
    t = A.gen()
    v = asymptotic_bound(t, 0.01)
    assert abs(v - (4 + 0.01) * 3) < 1e-6
    with pytest.raises(ValueError):
        asymptotic_bound(t, 0)
