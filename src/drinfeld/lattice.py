"""A-lattices in the sup-normed model F_infinity^r, with entries in F.

Each basis clears its denominators and is eliminated once, when it is
built: it keeps its integral form (the columns over A and a common
denominator), log|det| and its Bareiss steps, and every matrix
computation reads them; a scaled basis reads all but the steps off the
basis it scales.  Column reduction (weak Popov form) produces a
successive-minimum basis whose minima sum to log|det|.  Indices replay a
superlattice's fraction-free elimination over A, whose divisions are
exact, on the sublattice's columns alone, and are cross-checked against
the Smith normal form over A.
"""

from fractions import Fraction
from functools import cached_property

from .errors import InvariantViolation


class LatticeBasis:
    """Columns spanning an A-lattice; matrix must be nonempty and
    nonsingular.  integral/den is the same matrix over A with a monic
    common denominator, and log_det = log|det| = deg p - r deg den, p the
    last Bareiss pivot of integral."""

    def __init__(self, field, columns):
        self.field = field
        self.r = len(columns)
        if not self.r:
            raise ValueError("basis matrix is empty")
        cols = []
        for col in columns:
            if len(col) != self.r:
                raise ValueError("basis matrix must be square")
            # from a list: tuple() of a generator or map resizes and swells free lists
            cols.append(tuple([field(x) for x in col]))
        self.columns = tuple(cols)
        self.integral, self.den = _integral(field, self.columns)
        p = self._elimination[0]
        if p.is_zero:
            raise ValueError("basis matrix is singular")
        self.log_det = int(p.degree) - self.r * int(self.den.degree)

    @classmethod
    def from_rows(cls, field, rows):
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("basis matrix must be square")
        return cls(field, [[row[j] for row in rows] for j in range(len(rows))])

    @cached_property
    def _elimination(self):
        return _bareiss(self.integral)

    def scaled(self, c):
        """c L, whose integral form (integral num c, den den c) and log_det
        + r deg c are read off L: nothing is cleared, and it is eliminated
        only when it is first used as a superlattice."""
        c = self.field(c)
        if c.is_zero:
            raise ValueError("basis matrix is singular")
        L = object.__new__(LatticeBasis)
        L.field, L.r, L.den = self.field, self.r, self.den * c.den
        L.columns = tuple([tuple([x * c for x in col]) for col in self.columns])
        L.integral = [[a * c.num for a in col] for col in self.integral]
        L.log_det = self.log_det + self.r * c.deg_infinity()
        return L

    def __repr__(self):
        return f"LatticeBasis({[list(c) for c in self.columns]!r})"


class ReducedBasis:
    def __init__(self, integral, den, minima):
        # the reduced columns over A by descending minimum, and their
        # common denominator: the basis over F is integral / den; the
        # minima are integer degrees, summed once
        self.integral = integral
        self.den = den
        self.minima_logs = [Fraction(m) for m in minima]  # descending
        self.log_covolume = Fraction(sum(minima))

    @property
    def is_reduced(self):
        return min(self.minima_logs) == 0


# -- fraction-free elimination over A ----------------------------------------


def _integral(field, columns):
    """(columns over A, den): den the monic lcm of the denominators and
    each entry times den, so the matrix over F is the A-matrix over den."""
    r = len(columns)
    flat, den = field.clear_denominators([x for col in columns for x in col])
    return [flat[j * r : (j + 1) * r] for j in range(r)], den


def _bareiss(cols):
    """Bareiss's fraction-free elimination with row swaps of the square
    A-matrix given as columns.

    Returns (+-det, rows, steps): the last pivot with the sign of the swaps
    (zero for a singular matrix), the upper-triangular rows, each pivot the
    leading minor of the row-swapped matrix, and per step k the pivot row
    and the multipliers m_ik, i > k, so other columns can replay it.
    Every update (p_k a - m_ik b) / p_(k-1) divides exactly."""
    n = len(cols)
    A = cols[0][0].ring
    m = [[c[i] for c in cols] for i in range(n)]
    prev, sign, steps = A.one, 1, []
    for k in range(n):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if piv is None:
            return A.zero, m, steps
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, row = m[k][k], m[k]
        steps.append((piv, [m[i][k] for i in range(k + 1, n)]))
        for i in range(k + 1, n):
            mik = m[i][k]
            new = [pk * a - mik * b for a, b in zip(m[i][k + 1 :], row[k + 1 :])]
            # p_(-1) = 1: the first step divides by nothing
            m[i] = [A.zero] * (k + 1) + ([x.exact_div(prev) for x in new] if k else new)
        prev = pk
    return (prev if sign > 0 else -prev), m, steps


def det(field, columns):
    """Determinant over F of the square matrix with the given columns."""
    cols, den = _integral(field, columns)
    return field.make(_bareiss(cols)[0], den ** len(cols))


# -- reduction ---------------------------------------------------------------


def _pivot(col):
    """(d, i): the degree d of a nonzero column and the last row i whose
    entry reaches it; None for a zero column."""
    return max(((p.degree, i) for i, p in enumerate(col) if not p.is_zero), default=None)


def weak_popov(cols):
    """In-place weak Popov form of a nonsingular polynomial matrix given
    as a list of columns; pivot rows become pairwise distinct."""
    A = cols[0][0].ring
    changed = True
    while changed:
        changed = False
        # pivot row -> (column, column degree)
        by_pivot = {}
        for j, col in enumerate(cols):
            pivot = _pivot(col)
            if pivot is None:
                raise ValueError("singular matrix in reduction")
            dj, piv = pivot
            if piv in by_pivot:
                k, dk = by_pivot[piv]
                if dj < dk:
                    j, k, dj, dk = k, j, dk, dj
                cj, ck = cols[j], cols[k]
                factor = A.monomial(cj[piv].lead / ck[piv].lead, dj - dk)
                cols[j] = [a - factor * b for a, b in zip(cj, ck)]
                changed = True
                break
            by_pivot[piv] = (j, dj)
    return cols


def reduce(L):
    """Successive-minimum basis via weak Popov column reduction of L's
    integral form; the moves are unimodular, so the minima sum to log|det L|."""
    cols = weak_popov(list(L.integral))
    shift = int(L.den.degree)
    pairs = sorted(
        ((_pivot(col)[0] - shift, col) for col in cols),
        key=lambda p: -p[0],
    )
    red = ReducedBasis([col for _, col in pairs], L.den, [m for m, _ in pairs])
    if red.log_covolume != L.log_det:
        raise InvariantViolation("covolume differs from the degree of det")
    return red


# -- indices and the Smith form ---------------------------------------------


def _index(sub, sup):
    """(log(sup : sub), Smith invariant factors), requiring genuine
    containment; the log index is deg det, cross-checked against the
    Smith form.  sub = sup * M, so deg det M = deg det sub - deg det sup.

    With S = ds * sup and T = dt * sub the integral forms, sup's
    elimination is replayed on the columns of T alone, giving U z = ds T'
    with U its upper-triangular rows; back substitution solves it for
    z = dt M = ds S^-1 T, and M = z / dt.  Each step is one division,
    and a remainder at any of them means sub is not contained in sup."""
    if sub.r != sup.r:
        raise ValueError("sub and sup must have the same rank")
    _, U, steps = sup._elimination
    ds, dt, n = sup.den, sub.den, sup.r
    rows = [[col[i] for col in sub.integral] for i in range(n)]
    for k, (piv, mults) in enumerate(steps):
        rows[k], rows[piv] = rows[piv], rows[k]
        pk, top = U[k][k], rows[k]
        for i, mik in enumerate(mults, k + 1):
            new = [pk * a - mik * b for a, b in zip(rows[i], top)]
            rows[i] = [x.exact_div(U[k - 1][k - 1]) for x in new] if k else new
    M_A = []
    for c in range(n):
        z = [None] * n
        for i in range(n - 1, -1, -1):
            acc = ds * rows[i][c] if ds.degree else rows[i][c]
            for j in range(i + 1, n):
                acc = acc - U[i][j] * z[j]
            z[i] = _contained_div(acc, U[i][i])
        M_A.append([_contained_div(zi, dt) for zi in z] if dt.degree else z)
    value = sub.log_det - sup.log_det
    inv_factors = smith_invariant_factors(M_A)
    if value != sum(int(f.degree) for f in inv_factors):
        raise InvariantViolation("index differs from the Smith form degree")
    return Fraction(value), inv_factors


def _contained_div(a, b):
    quo, rem = divmod(a, b)
    if rem:
        raise ValueError("not contained: change of basis is not integral")
    return quo


def log_index(sub, sup):
    """log(sup : sub), requiring genuine containment; equals the covolume
    difference and the Smith-form cardinality exponent."""
    return _index(sub, sup)[0]


def smith_invariant_factors(cols):
    """Invariant factors (monic, ascending divisibility) of a nonsingular
    matrix over A given as columns.

    Step k pivots on a least-degree entry of the trailing block, clears
    row and column k by division in that block, and repivots while a
    remainder is left; if the pivot is not a unit and does not divide the
    rest of the block, a row of it is added to row k, which leaves one."""
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]  # rows
    factors = []
    for k in range(n):
        block, rest = range(k, n), range(k + 1, n)
        while True:
            entries = [(m[i][j].degree, i, j) for i in block for j in block if m[i][j]]
            if not entries:
                raise ValueError("singular matrix")
            d, i0, j0 = min(entries)
            m[k], m[i0] = m[i0], m[k]
            for row in m[k:]:
                row[k], row[j0] = row[j0], row[k]
            pivot, top = m[k][k], m[k]
            for row in m[k + 1 :]:
                if row[k]:
                    c, row[k] = divmod(row[k], pivot)
                    row[k + 1 :] = [a - c * b for a, b in zip(row[k + 1 :], top[k + 1 :])]
            live = [row for row in m[k + 1 :] if row[k]]  # the rows column k still touches
            for j in rest:
                if top[j]:
                    c, top[j] = divmod(top[j], pivot)
                    for row in live:
                        row[j] = row[j] - c * row[k]
            if not d:
                break  # a unit pivot divides the rest of the block
            if live or any(top[k + 1 :]):
                continue  # a remainder is left: repivot on it
            bad = (i for i in rest for j in rest if m[i][j] % pivot)
            i = next(bad, None)
            if i is None:
                break
            m[k] = [a + b for a, b in zip(top, m[i])]
        factors.append(m[k][k].monic())
    return factors


# -- the analytic isogeny sandwich ------------------------------------------


def analytic_isogeny_check(Lam, Lam2, alpha):
    """Verify the covolume sandwich for alpha with alpha*Lam inside Lam2.

    Computes log deg f as the index (Lam2 : alpha Lam), the dual degree
    through the minimal N with N*Lam2 inside alpha*Lam, and checks
    -log deg fhat <= log D(Lam) - log D(Lam2) <= log deg f, plus
    |alpha| >= 1.
    """
    F = Lam.field
    alpha = F(alpha)
    red, red2 = reduce(Lam), reduce(Lam2)
    if not red.is_reduced or not red2.is_reduced:
        raise ValueError("both lattices must be reduced")
    log_deg_f, inv_factors = _index(Lam.scaled(alpha), Lam2)
    N = inv_factors[-1]
    log_deg_fhat = Lam.r * Fraction(int(N.degree)) - log_deg_f
    diff = red.log_covolume - red2.log_covolume
    alpha_log = Fraction(alpha.deg_infinity())
    report = {
        "log_deg_f": log_deg_f,
        "log_deg_fhat": log_deg_fhat,
        "covolume_difference": diff,
        "alpha_log": alpha_log,
        "alpha_norm_ge_1": alpha_log >= 0,
        "sandwich_ok": -log_deg_fhat <= diff <= log_deg_f,
        "identity_ok": log_deg_f
        == Lam.r * alpha_log + red.log_covolume - red2.log_covolume,
    }
    report["ok"] = (
        report["alpha_norm_ge_1"] and report["sandwich_ok"] and report["identity_ok"]
    )
    return report


# -- Gekeler's rank 2 j-size estimate ----------------------------------------


def gekeler_j_log(q, d_log):
    """Piecewise-linear model of log|j| as a function of log D(Lambda):
    value q^(k+1) at integers k >= 0 (the k = 0 value is the cap q),
    interpolated linearly and monotonically in between."""
    d_log = Fraction(d_log)
    if d_log < 0:
        raise ValueError("log-covolume must be nonnegative")
    k = int(d_log)  # floor for nonnegative input
    s = d_log - k
    return (1 - s) * Fraction(q ** (k + 1)) + s * Fraction(q ** (k + 2))


# -- randomized generators ----------------------------------------------------


def random_lattice(F, r, rng, max_degree=2):
    """Random nonsingular lattice basis with A-entries."""
    A = F.ring
    while True:
        cols = [
            [F.from_poly(A.random_element(rng, max_degree)) for _ in range(r)]
            for _ in range(r)
        ]
        try:
            return LatticeBasis(F, cols)
        except ValueError:
            continue


def random_reduced_lattice(F, r, rng, max_degree=2):
    """Random lattice scaled so its smallest successive minimum is 0."""
    L = random_lattice(F, r, rng, max_degree)
    red = reduce(L)
    m = min(red.minima_logs)
    t = F.t
    return L.scaled(t ** int(-m) if m < 0 else F.one / t ** int(m))


def random_containment_instance(F, r, rng, max_degree=2):
    """(Lam, Lam2, alpha) with both reduced and alpha*Lam inside Lam2."""
    A = F.ring
    Lam2 = random_reduced_lattice(F, r, rng, max_degree)
    while True:
        C = [[A.random_element(rng, max_degree) for _ in range(r)] for _ in range(r)]
        cols = []
        for ccol in C:
            vec = [F.zero] * r
            for j, coeff in enumerate(ccol):
                for i in range(r):
                    vec[i] = vec[i] + Lam2.columns[j][i] * F.from_poly(coeff)
            cols.append(vec)
        try:  # Lam2 is nonsingular, so Lam2 * C is singular exactly when C is
            product = LatticeBasis(F, cols)  # = Lam2 * C, contained in Lam2
            break
        except ValueError:
            continue
    m = min(reduce(product).minima_logs)
    if m < 0:
        raise InvariantViolation("sublattice of a reduced lattice has minimum < 0")
    alpha = F.t ** int(m)
    Lam = LatticeBasis(
        F, [[x / alpha for x in col] for col in product.columns]
    )
    return Lam, Lam2, alpha
