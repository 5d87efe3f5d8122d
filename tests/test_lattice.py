"""Lattices in F_infinity^r: reduction, covolume calculus, indices,
the containment sandwich, and the rank 2 j-size model."""

import random
from fractions import Fraction

import pytest

from drinfeld import (
    LatticeBasis,
    analytic_isogeny_check,
    covolume,
    gekeler_j_log,
    is_reduced,
    log_index,
    parse_element,
    reduce,
)
from drinfeld.base import rational_function_field
from drinfeld.lattice import (
    _index,
    det,
    random_containment_instance,
    random_lattice,
    random_reduced_lattice,
    smith_invariant_factors,
)


def _basis(q, rows):
    F = rational_function_field(q)
    parsed = [[parse_element(e, F) for e in row] for row in rows]
    return LatticeBasis.from_rows(F, parsed)


def test_reduce_diagonal():
    red = reduce(_basis(2, [["t", "0"], ["0", "1"]]))
    assert red.minima_logs == [Fraction(1), Fraction(0)]
    assert red.log_covolume == 1
    assert red.is_reduced


def test_reduce_cancelling_columns():
    # columns (t, 1) and (t+1, 1): det = -1, so both minima drop to 0
    red = reduce(_basis(2, [["t", "t+1"], ["1", "1"]]))
    assert red.minima_logs == [Fraction(0), Fraction(0)]
    assert red.log_covolume == 0


def test_reduce_invariance_under_unimodular():
    F = rational_function_field(2)
    rng = random.Random(81)
    for _ in range(20):
        L = random_lattice(F, 3, rng)
        red = reduce(L)
        # elementary unimodular move: add t * (col 0) to col 1
        cols = [list(c) for c in L.columns]
        cols[1] = [a + F.t * b for a, b in zip(cols[1], cols[0])]
        red2 = reduce(LatticeBasis(F, cols))
        assert red.minima_logs == red2.minima_logs


def test_singular_rejected():
    with pytest.raises(ValueError):
        _basis(2, [["t", "t"], ["1", "1"]])


@pytest.mark.parametrize("r", [2, 3, 4])
def test_covolume_calculus(r):
    F = rational_function_field(2)
    rng = random.Random(82)
    for _ in range(20):
        L = random_lattice(F, r, rng)
        base = covolume(L).log_value
        assert base == Fraction(det(F, L.columns).deg_infinity())
        # scalar action: log D(cL) = r log|c| + log D(L)
        c = F.random_element(rng, 2, nonzero=True)
        assert covolume(L.scaled(c)).log_value == base + r * c.deg_infinity()
        # GL_r action via another lattice as the transform
        G = random_lattice(F, r, rng)
        cols = []
        for gcol in G.columns:
            vec = [F.zero] * r
            for j, coeff in enumerate(gcol):
                for i in range(r):
                    vec[i] = vec[i] + L.columns[j][i] * coeff
            cols.append(vec)
        moved = LatticeBasis(F, cols)
        assert (
            covolume(moved).log_value
            == base + Fraction(det(F, G.columns).deg_infinity())
        )


def test_is_reduced_cases():
    assert is_reduced(_basis(2, [["1", "0"], ["0", "1"]]))
    assert not is_reduced(_basis(2, [["t", "0"], ["0", "t"]]))
    assert is_reduced(_basis(2, [["t", "0"], ["0", "1"]]))


def test_log_index_examples():
    A2 = _basis(2, [["1", "0"], ["0", "1"]])
    scaled = _basis(2, [["t", "0"], ["0", "t"]])
    assert log_index(scaled, A2) == 2
    assert log_index(A2, A2) == 0
    sub = _basis(2, [["t", "0"], ["1", "t+1"]])
    assert log_index(sub, A2) == 2


def test_log_index_requires_containment():
    A2 = _basis(2, [["1", "0"], ["0", "1"]])
    frac = _basis(2, [["1/t", "0"], ["0", "1"]])
    with pytest.raises(ValueError):
        log_index(frac, A2)


def test_smith_invariant_factors():
    F = rational_function_field(2)
    A = F.ring
    t = A.gen()
    cols = [[t, A.zero], [A.one, t + A.one]]
    facs = smith_invariant_factors(cols)
    assert len(facs) == 2
    assert divmod(facs[1], facs[0])[1].is_zero
    prod = facs[0] * facs[1]
    assert int(prod.degree) == 2


def test_index_matches_covolume_ratio():
    F = rational_function_field(3)
    rng = random.Random(83)
    for _ in range(15):
        sup = random_lattice(F, 2, rng)
        A = F.ring
        while True:
            C = [[A.random_element(rng, 1) for _ in range(2)] for _ in range(2)]
            if not det(F, [[F.from_poly(p) for p in col] for col in C]).is_zero:
                break
        cols = []
        for ccol in C:
            vec = [F.zero] * 2
            for j, coeff in enumerate(ccol):
                for i in range(2):
                    vec[i] = vec[i] + sup.columns[j][i] * F.from_poly(coeff)
            cols.append(vec)
        sub = LatticeBasis(F, cols)
        assert (
            log_index(sub, sup)
            == covolume(sub).log_value - covolume(sup).log_value
        )


def test_analytic_check_trivial():
    A2 = _basis(2, [["1", "0"], ["0", "1"]])
    F = A2.field
    rep = analytic_isogeny_check(A2, A2, F.one)
    assert rep["ok"]
    assert rep["log_deg_f"] == 0
    assert rep["covolume_difference"] == 0

    rep = analytic_isogeny_check(A2, A2, F.t)
    assert rep["ok"]
    assert rep["log_deg_f"] == 2
    assert -rep["log_deg_fhat"] <= 0 <= rep["log_deg_f"]


@pytest.mark.parametrize("r", [2, 3])
def test_analytic_check_random(r):
    F = rational_function_field(2)
    rng = random.Random(84)
    for _ in range(12):
        lam, lam2, alpha = random_containment_instance(F, r, rng)
        rep = analytic_isogeny_check(lam, lam2, alpha)
        assert rep["ok"], rep


def test_random_reduced_lattice_is_reduced():
    F = rational_function_field(3)
    rng = random.Random(85)
    for _ in range(10):
        assert is_reduced(random_reduced_lattice(F, 3, rng))


def test_gekeler_model_values():
    assert gekeler_j_log(2, 1) == 4
    assert gekeler_j_log(2, 0) == 2
    assert gekeler_j_log(2, Fraction(3, 2)) == 6
    assert gekeler_j_log(3, 2) == 27
    with pytest.raises(ValueError):
        gekeler_j_log(2, -1)


def test_gekeler_model_shape():
    """q^d <= max(model/q, 1), monotone, convex on a rational grid."""
    q = 2
    grid = [Fraction(k, 4) for k in range(0, 21)]
    vals = [gekeler_j_log(q, d) for d in grid]
    for d, v in zip(grid, vals):
        # exact comparison: q^(a/b) <= M iff q^a <= M^b
        m = max(Fraction(v, q), Fraction(1))
        assert Fraction(q) ** d.numerator <= m**d.denominator
    for a, b in zip(vals, vals[1:]):
        assert b >= a
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert c - b >= b - a


# -- differential test against the F-level elimination ------------------------
#
# The library eliminates over A (Bareiss, then fraction-free back
# substitution).  The Gaussian determinant and Gauss-Jordan solve over F it
# replaced are kept here as test-only oracles.


def _gauss_det(field, columns):
    n = len(columns)
    m = [list(col) for col in columns]  # m[j][i] = entry (row i, col j)
    sign = 1
    result = field.one
    for i in range(n):
        pivot = next((j for j in range(i, n) if not m[j][i].is_zero), None)
        if pivot is None:
            return field.zero
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        result = result * m[i][i]
        inv = m[i][i].inverse()
        for j in range(i + 1, n):
            if m[j][i].is_zero:
                continue
            factor = m[j][i] * inv
            m[j] = [a - factor * b for a, b in zip(m[j], m[i])]
    return -result if sign < 0 else result


def _gauss_jordan_solve(basis_columns, target_columns):
    """X with basis * X = target, column by column, over F."""
    n = len(basis_columns)
    out = []
    for target in target_columns:
        aug = [
            [basis_columns[j][i] for j in range(n)] + [target[i]] for i in range(n)
        ]
        for i in range(n):
            pivot = next(k for k in range(i, n) if not aug[k][i].is_zero)
            aug[i], aug[pivot] = aug[pivot], aug[i]
            inv = aug[i][i].inverse()
            aug[i] = [a * inv for a in aug[i]]
            for k in range(n):
                if k != i and not aug[k][i].is_zero:
                    factor = aug[k][i]
                    aug[k] = [a - factor * b for a, b in zip(aug[k], aug[i])]
        out.append([aug[i][n] for i in range(n)])
    return out


def _times(F, cols, C):
    """The columns of cols * C, C given as columns over F."""
    r = len(cols)
    out = []
    for ccol in C:
        vec = [F.zero] * r
        for j, coeff in enumerate(ccol):
            for i in range(r):
                vec[i] = vec[i] + cols[j][i] * coeff
        out.append(vec)
    return out


def _nonsingular(F, r, rng, with_den, zero_top):
    """Random nonsingular columns; entries with denominators when with_den,
    and entry (0, 0) zero when zero_top, so elimination must swap rows."""
    A = F.ring
    while True:
        cols = [
            [
                F.random_element(rng, 2)
                if with_den
                else F.from_poly(A.random_element(rng, 2))
                for _ in range(r)
            ]
            for _ in range(r)
        ]
        if zero_top:
            cols[0][0] = F.zero
        if not _gauss_det(F, cols).is_zero:
            return cols


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_elimination_over_A_matches_F_oracle(q, r):
    F = rational_function_field(q)
    A = F.ring
    rng = random.Random(1000 * q + r)
    for with_den, zero_top in [(True, False), (True, True), (False, True)]:
        cols = _nonsingular(F, r, rng, with_den, zero_top)
        assert det(F, cols) == _gauss_det(F, cols)
        # a last column in the span of the others makes the matrix singular
        coeffs = [F.random_element(rng, 1) for _ in range(r - 1)]
        last = [
            sum((c * col[i] for c, col in zip(coeffs, cols)), F.zero)
            for i in range(r)
        ]
        singular = cols[:-1] + [last]
        assert det(F, singular).is_zero and _gauss_det(F, singular).is_zero
        with pytest.raises(ValueError):
            LatticeBasis(F, singular)

        sup = LatticeBasis(F, cols)
        C = _nonsingular(F, r, rng, False, zero_top)
        sub = LatticeBasis(F, _times(F, sup.columns, C))
        M = _gauss_jordan_solve(sup.columns, sub.columns)
        assert M == C
        value, inv_factors = _index(sub, sup)
        assert value == log_index(sub, sup) == _gauss_det(F, M).deg_infinity()
        assert inv_factors == smith_invariant_factors([[x.num for x in col] for col in M])

        # one column of sub outside sup: sup * (e_0 / t), or sup * C with a
        # fractional entry
        outside = [[x / F.t for x in sup.columns[0]]] + list(sup.columns[1:])
        with pytest.raises(ValueError, match="not contained"):
            _index(LatticeBasis(F, outside), sup)
        C[-1][0] = C[-1][0] + F.one / (F.t + F.one)
        with pytest.raises(ValueError, match="not contained"):
            log_index(LatticeBasis(F, _times(F, sup.columns, C)), sup)
