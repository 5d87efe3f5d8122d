"""Lattices in F_infinity^r: reduction, covolume calculus, indices,
the containment sandwich, and the rank 2 j-size model."""

import linecache
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from drinfeld import (
    LatticeBasis,
    analytic_isogeny_check,
    gekeler_j_log,
    lattice,
    log_index,
    parse_element,
    reduce,
)
from drinfeld.base import poly_ring_A, rational_function_field
from drinfeld.errors import InvariantViolation
from drinfeld.lattice import (
    _index,
    det,
    random_containment_instance,
    random_lattice,
    random_reduced_lattice,
    smith_invariant_factors,
)
from drinfeld.poly import poly_gcd
from drinfeld.ratfunc import FractionField


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
        base = reduce(L).log_covolume
        assert base == Fraction(det(F, L.columns).deg_infinity())
        # scalar action: log D(cL) = r log|c| + log D(L)
        c = F.random_element(rng, 2, nonzero=True)
        assert reduce(L.scaled(c)).log_covolume == base + r * c.deg_infinity()
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
            reduce(moved).log_covolume
            == base + Fraction(det(F, G.columns).deg_infinity())
        )


def test_is_reduced_cases():
    assert reduce(_basis(2, [["1", "0"], ["0", "1"]])).is_reduced
    assert not reduce(_basis(2, [["t", "0"], ["0", "t"]])).is_reduced
    assert reduce(_basis(2, [["t", "0"], ["0", "1"]])).is_reduced


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
            == reduce(sub).log_covolume - reduce(sup).log_covolume
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
        assert reduce(random_reduced_lattice(F, 3, rng)).is_reduced


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
# The library eliminates over A (Bareiss, then back substitution that
# divides exactly).  The Gaussian determinant and Gauss-Jordan solve over F it
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
    and entry (0, 0) zero when zero_top and r > 1, so elimination must swap
    rows."""
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
        if zero_top and r > 1:
            cols[0][0] = F.zero
        if not _gauss_det(F, cols).is_zero:
            return cols


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
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


# -- one integral form per basis ----------------------------------------------


def _count_eliminations_and_clears(monkeypatch):
    counts = {"eliminations": 0, "clears": 0}
    bareiss, clear = lattice._bareiss, FractionField.clear_denominators

    def counted_bareiss(*args):
        counts["eliminations"] += 1
        return bareiss(*args)

    def counted_clear(self, xs):
        counts["clears"] += 1
        return clear(self, xs)

    monkeypatch.setattr(lattice, "_bareiss", counted_bareiss)
    monkeypatch.setattr(FractionField, "clear_denominators", counted_clear)
    return counts


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("with_den", [False, True])
def test_each_basis_is_cleared_and_eliminated_once(monkeypatch, q, with_den):
    F = rational_function_field(q)
    rng = random.Random(2000 + q)
    cols = _nonsingular(F, 3, rng, with_den, False)
    C = _nonsingular(F, 3, rng, False, False)
    counts = _count_eliminations_and_clears(monkeypatch)

    def cost(fn, *args):
        counts.update(eliminations=0, clears=0)
        value = fn(*args)
        return value, (counts["eliminations"], counts["clears"])

    sup, built = cost(LatticeBasis, F, cols)
    assert built == (1, 1)
    assert not hasattr(sup, "det")
    den = F.from_poly(sup.den)
    assert sup.den.is_monic and (den == F.one) != with_den
    assert [[F.from_poly(a) for a in col] for col in sup.integral] == [
        [x * den for x in col] for col in sup.columns
    ]
    sub = LatticeBasis(F, _times(F, sup.columns, C))
    red, reduced = cost(reduce, sup)
    assert reduced == (0, 0)
    assert red.log_covolume == sup.log_det
    value, indexed = cost(log_index, sub, sup)
    assert indexed == (0, 0)
    assert value == sub.log_det - sup.log_det


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_reduce_keeps_the_basis_integral(monkeypatch, q):
    F = rational_function_field(q)
    rng = random.Random(2500 + q)
    L = LatticeBasis(F, _nonsingular(F, 3, rng, True, False))
    make, calls = FractionField.make, []
    monkeypatch.setattr(FractionField, "make", lambda *a: calls.append(1) or make(*a))
    red = reduce(L)
    assert calls == []
    monkeypatch.undo()
    # integral / den is a reduced basis of L: its column degrees are the minima
    assert red.den == L.den
    degrees = [max(int(a.degree) for a in col if a) for col in red.integral]
    assert [Fraction(d - int(red.den.degree)) for d in degrees] == red.minima_logs
    basis = LatticeBasis(F, [[F.make(a, red.den) for a in col] for col in red.integral])
    assert basis.log_det == L.log_det
    assert reduce(basis).minima_logs == red.minima_logs


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_log_det_is_degree_of_det(q, r):
    F = rational_function_field(q)
    rng = random.Random(3000 + 10 * q + r)
    for with_den in (False, True):
        for _ in range(3):
            L = LatticeBasis(F, _nonsingular(F, r, rng, with_den, False))
            assert L.log_det == det(F, L.columns).deg_infinity()
            assert reduce(L).log_covolume == L.log_det


def test_malformed_bases_rejected():
    F = rational_function_field(2)
    with pytest.raises(ValueError, match="empty"):
        LatticeBasis(F, [])
    with pytest.raises(ValueError, match="empty"):
        LatticeBasis.from_rows(F, [])
    for ragged in ([[F.one, F.zero], [F.zero]], [[F.one], [F.zero, F.one]]):
        with pytest.raises(ValueError, match="square"):
            LatticeBasis.from_rows(F, ragged)
    one = LatticeBasis(F, [[F.t]])
    two = LatticeBasis(F, [[F.one, F.zero], [F.zero, F.one]])
    for sub, sup in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="same rank"):
            log_index(sub, sup)


# -- differential test of the Smith form against the minors oracle ------------
#
# d_k = D_k / D_(k-1), D_k the monic gcd of all k x k minors: the textbook
# definition of the invariant factors, independent of any pivoting.


def _laplace_det(rows, A):
    if len(rows) == 1:
        return rows[0][0]
    total = A.zero
    for j, a in enumerate(rows[0]):
        if a:
            term = a * _laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]], A)
            total = total - term if j % 2 else total + term
    return total


def _smith_by_minors(cols, A):
    n = len(cols)
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    factors, prev = [], A.one
    for k in range(1, n + 1):
        D = A.zero
        for I in combinations(range(n), k):
            for J in combinations(range(n), k):
                D = poly_gcd(D, _laplace_det([[rows[i][j] for j in J] for i in I], A))
        factors.append(D.exact_div(prev))
        prev = D
    return factors


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_smith_matches_minors_oracle(q, r):
    A = poly_ring_A(q)
    rng = random.Random(4000 + 10 * q + r)
    seen = 0
    while seen < 6:
        cols = [[A.random_element(rng, 2) for _ in range(r)] for _ in range(r)]
        if _laplace_det(cols, A).is_zero:
            continue
        seen += 1
        assert smith_invariant_factors(cols) == _smith_by_minors(cols, A)


@pytest.mark.parametrize("q", [2, 3])
def test_smith_adds_a_row_when_the_pivot_does_not_divide(q):
    # diag(t, t+1): t is the least-degree pivot and clears nothing, but it
    # does not divide t+1, so only the row-add step reaches [1, t^2+t]
    A = poly_ring_A(q)
    t = A.gen()
    cols = [[t, A.zero], [A.zero, t + A.one]]
    assert smith_invariant_factors(cols) == [A.one, t * t + t]
    assert _smith_by_minors(cols, A) == [A.one, t * t + t]


@pytest.mark.parametrize("q", [2, 9])
def test_smith_rejects_a_singular_matrix(q):
    A = poly_ring_A(q)
    t = A.gen()
    for cols in ([[A.one, t], [A.one, t]], [[A.zero]]):
        with pytest.raises(ValueError, match="singular matrix"):
            smith_invariant_factors(cols)


# -- differential tests of Smith and of the index against earlier loops -------
#
# _smith_full_rows is the Smith loop that cleared whole rows and columns and
# scanned every block for divisibility; _index_p_scaled is the index route
# that eliminated [S | T] together and back substituted with p-multiplied
# intermediates.  Both are kept verbatim as references.


def _smith_full_rows(cols):
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]  # rows
    factors = []
    for k in range(n):
        block, rest = range(k, n), range(k + 1, n)
        while True:
            _, i0, j0 = min(
                (m[i][j].degree, i, j) for i in block for j in block if m[i][j]
            )
            m[k], m[i0] = m[i0], m[k]
            for row in m[k:]:
                row[k], row[j0] = row[j0], row[k]
            pivot, top = m[k][k], m[k]
            for i in rest:
                if not m[i][k].is_zero:
                    c = m[i][k] // pivot
                    m[i] = [a - c * b for a, b in zip(m[i], top)]
            for j in rest:
                if not top[j].is_zero:
                    c = top[j] // pivot
                    for row in m[k:]:
                        row[j] = row[j] - c * row[k]
            if any(not (m[i][k].is_zero and top[i].is_zero) for i in rest):
                continue  # a remainder is left: repivot on it
            bad = (i for i in rest for j in rest if not (m[i][j] % pivot).is_zero)
            i = next(bad, None)
            if i is None:
                break
            m[k] = [a + b for a, b in zip(top, m[i])]
        factors.append(m[k][k].monic())
    return factors


def _bareiss_augmented(cols, extra=()):
    n = len(cols)
    A = cols[0][0].ring
    m = [[c[i] for c in cols] + [e[i] for e in extra] for i in range(n)]
    prev, sign = A.one, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if piv is None:
            return A.zero, m
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, row = m[k][k], m[k]
        for i in range(k + 1, n):
            mik = m[i][k]
            new = [pk * a - mik * b for a, b in zip(m[i][k + 1 :], row[k + 1 :])]
            # p_(-1) = 1: the first step divides by nothing
            m[i] = [A.zero] * (k + 1) + ([x.exact_div(prev) for x in new] if k else new)
        prev = pk
    return (prev if sign > 0 else -prev), m


def _index_p_scaled(sub, sup):
    if sub.r != sup.r:
        raise ValueError("sub and sup must have the same rank")
    S, ds, T, dt = sup.integral, sup.den, sub.integral, sub.den
    n = len(S)
    p, rows = _bareiss_augmented(S, T)
    scale = p * dt
    M_A = []
    for c in range(n, n + len(T)):
        y = [None] * n
        for i in range(n - 1, -1, -1):
            acc = p * rows[i][c]
            for j in range(i + 1, n):
                acc = acc - rows[i][j] * y[j]
            y[i] = acc.exact_div(rows[i][i])
        col = [divmod(yi * ds, scale) for yi in y]
        if any(not rem.is_zero for _, rem in col):
            raise ValueError("not contained: change of basis is not integral")
        M_A.append([quo for quo, _ in col])
    value = Fraction(sub.log_det - sup.log_det)
    inv_factors = _smith_full_rows(M_A)
    if value != sum(Fraction(int(f.degree)) for f in inv_factors):
        raise InvariantViolation("index differs from the Smith form degree")
    return value, inv_factors


def _smith_and_lines(cols):
    """(smith_invariant_factors(cols), the stripped source lines it ran)."""
    code, ran = smith_invariant_factors.__code__, set()

    def line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        factors = smith_invariant_factors(cols)
    finally:
        sys.settrace(previous)
    return factors, {linecache.getline(code.co_filename, n).strip() for n in ran}


_UNIT_SKIP = "break  # a unit pivot divides the rest of the block"
_REPIVOT = "continue  # a remainder is left: repivot on it"
_ROW_ADD = "m[k] = [a + b for a, b in zip(top, m[i])]"


def _smith_cases(A, r, rng):
    """Nonsingular r x r matrices over A with entries of degree <= 3: three
    drawn freely (their least entry is often a unit), and three with no
    constant entry, whose pivots are not units."""
    cases = []
    while len(cases) < 6:
        nonconstant = len(cases) >= 3
        cols = [[A.random_element(rng, 3) for _ in range(r)] for _ in range(r)]
        if nonconstant:
            cols = [[a if a.degree > 0 else a + A.gen() for a in col] for col in cols]
        if not _laplace_det(cols, A).is_zero:
            cases.append(cols)
    return cases


def test_smith_matches_the_full_row_loop_and_the_minors_oracle():
    ran = set()
    for q in (2, 3, 4, 9):
        A = poly_ring_A(q)
        rng = random.Random(5000 + q)
        for r in range(1, 6):
            for cols in _smith_cases(A, r, rng):
                factors, lines = _smith_and_lines(cols)
                ran |= lines
                assert factors == _smith_full_rows(cols)
                assert factors == _smith_by_minors(cols, A)
    assert {_UNIT_SKIP, _REPIVOT, _ROW_ADD} <= ran


def _containment_kind(sub, sup):
    """'contained' when M = sup^-1 sub (over F, the oracle) is integral,
    else whether z = dt M is integral: 'z integral' or 'z not integral'."""
    dt = sup.field.from_poly(sub.den)
    M = _gauss_jordan_solve(sup.columns, sub.columns)
    if all(x.den.degree == 0 for col in M for x in col):
        return "contained"
    if all((x * dt).den.degree == 0 for col in M for x in col):
        return "z integral"
    return "z not integral"


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_index_matches_the_p_scaled_route(q, r):
    F = rational_function_field(q)
    rng = random.Random(6000 + 10 * q + r)
    t, g = F.t, (F.t + F.one) ** 3  # of degree above every numerator drawn
    kinds = []
    for _ in range(3):
        cols = _nonsingular(F, r, rng, True, r > 1)
        C = _nonsingular(F, r, rng, False, False)
        sup = LatticeBasis(F, cols)
        sub = LatticeBasis(F, _times(F, sup.columns, C))
        assert _index(sub, sup) == _index_p_scaled(sub, sup)
        # sup / g and sup * C / g: ds != 1 and dt != 1
        sup = LatticeBasis(F, [[x / g for x in col] for col in cols])
        sub = LatticeBasis(F, _times(F, sup.columns, C))
        assert sup.den.degree > 0 and sub.den.degree > 0
        assert _index(sub, sup) == _index_p_scaled(sub, sup)
        # sub's first column over t or t^2, and C t / g over C / g (M = 1/t
        # with dt a power of t + 1): each contained or not, as the oracle says
        pairs = [
            (LatticeBasis(F, [[x / tk for x in sub.columns[0]]] + list(sub.columns[1:])), sup)
            for tk in (t, t * t)
        ]
        pairs.append(
            (
                LatticeBasis(F, [[x / g for x in col] for col in C]),
                LatticeBasis(F, [[x * t / g for x in col] for col in C]),
            )
        )
        for inner, outer in pairs:
            assert inner.den.degree > 0 and outer.den.degree > 0
            kinds.append(_containment_kind(inner, outer))
            if kinds[-1] == "contained":
                assert _index(inner, outer) == _index_p_scaled(inner, outer)
                continue
            for index in (_index, _index_p_scaled):
                with pytest.raises(ValueError, match="not contained"):
                    index(inner, outer)
    assert {"z integral", "z not integral"} <= set(kinds)


# -- scaled bases --------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_scaled_agrees_with_the_basis_of_scaled_columns(monkeypatch, q, r):
    F = rational_function_field(q)
    t = F.t
    rng = random.Random(7000 + 10 * q + r)
    L = LatticeBasis(F, _nonsingular(F, r, rng, True, False))
    C = _nonsingular(F, r, rng, False, False)
    counts = _count_eliminations_and_clears(monkeypatch)
    for c in (t * t, F.one / (t * t), (t + F.one) / (t * t)):
        counts.update(eliminations=0, clears=0)
        fast = L.scaled(c)
        assert (counts["eliminations"], counts["clears"]) == (0, 0)
        built = LatticeBasis(F, [[x * c for x in col] for col in L.columns])
        assert fast.columns == built.columns
        assert fast.log_det == built.log_det
        assert reduce(fast).minima_logs == reduce(built).minima_logs
        # as a sub: c L * C inside c L, and c L inside c L / t
        inside = LatticeBasis(F, _times(F, built.columns, C))
        outer = LatticeBasis(F, [[x / t for x in col] for col in built.columns])
        assert _index(fast, outer) == _index(built, outer)
        counts.update(eliminations=0)
        assert _index(inside, fast) == _index(inside, built)
        assert counts["eliminations"] == 1  # fast's, the first time it is a sup
        assert _index(inside, fast) == _index(inside, built)
        assert counts["eliminations"] == 1
    with pytest.raises(ValueError, match="singular"):
        L.scaled(F.zero)
