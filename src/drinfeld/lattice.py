"""A-lattices in the sup-normed model F_infinity^r, with entries in F.

Every matrix computation runs over A after clearing denominators.
Column reduction (weak Popov form) produces a successive-minimum basis;
the covolume is the sum of the minima in log form and always equals the
degree of the determinant.  Determinants, and the change of basis from a
lattice to a sublattice, come from one fraction-free (Bareiss)
elimination over A whose divisions are exact and need no gcd; indices
are cross-checked against the Smith normal form over A.
"""

from fractions import Fraction

from .errors import InvariantViolation


class LatticeBasis:
    """Columns spanning an A-lattice; matrix must be nonsingular."""

    def __init__(self, field, columns):
        self.field = field
        self.r = len(columns)
        cols = []
        for col in columns:
            if len(col) != self.r:
                raise ValueError("basis matrix must be square")
            cols.append(tuple(field(x) for x in col))
        self.columns = tuple(cols)
        self.det = det(field, self.columns)
        if self.det.is_zero:
            raise ValueError("basis matrix is singular")

    @classmethod
    def from_rows(cls, field, rows):
        cols = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows))]
        return cls(field, cols)

    def scaled(self, c):
        c = self.field(c)
        return LatticeBasis(
            self.field, [[x * c for x in col] for col in self.columns]
        )

    def __repr__(self):
        return f"LatticeBasis({[list(c) for c in self.columns]!r})"


class ReducedBasis:
    def __init__(self, basis, minima_logs):
        self.basis = basis
        self.minima_logs = minima_logs  # descending

    @property
    def log_covolume(self):
        return sum(self.minima_logs, Fraction(0))

    @property
    def is_reduced(self):
        return min(self.minima_logs) == 0


class Covolume:
    def __init__(self, log_value):
        self.log_value = log_value


# -- fraction-free elimination over A ----------------------------------------


def _integral(field, columns):
    """(columns over A, den): den the monic lcm of the denominators and
    each entry times den, so the matrix over F is the A-matrix over den."""
    r = len(columns)
    flat, den = field.clear_denominators([x for col in columns for x in col])
    return [flat[j * r : (j + 1) * r] for j in range(r)], den


def _bareiss(cols, extra=()):
    """Bareiss's fraction-free elimination with row swaps of the square
    A-matrix given as columns, carrying the columns of extra along.

    Returns (+-det, rows): the last pivot with the sign of the swaps (zero
    for a singular matrix) and the upper-triangular rows, each pivot the
    leading minor of the row-swapped matrix.  Every update
    (p_k a - m_ik b) / p_(k-1) divides exactly."""
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
            m[i] = [A.zero] * (k + 1) + [
                (pk * a - mik * b).exact_div(prev)
                for a, b in zip(m[i][k + 1 :], row[k + 1 :])
            ]
        prev = pk
    return (prev if sign > 0 else -prev), m


def det(field, columns):
    """Determinant over F of the square matrix with the given columns."""
    cols, den = _integral(field, columns)
    return field.make(_bareiss(cols)[0], den ** len(cols))


# -- reduction ---------------------------------------------------------------


def _col_degree(col):
    degs = [int(p.degree) for p in col if not p.is_zero]
    return max(degs) if degs else None


def _pivot(col):
    d = _col_degree(col)
    if d is None:
        return None
    for i in range(len(col) - 1, -1, -1):
        if not col[i].is_zero and col[i].degree == d:
            return i
    return None


def weak_popov(cols):
    """In-place weak Popov form of a nonsingular polynomial matrix given
    as a list of columns; pivot rows become pairwise distinct."""
    A = cols[0][0].ring
    changed = True
    while changed:
        changed = False
        by_pivot = {}
        for j, col in enumerate(cols):
            piv = _pivot(col)
            if piv is None:
                raise ValueError("singular matrix in reduction")
            if piv in by_pivot:
                k = by_pivot[piv]
                dj, dk = _col_degree(cols[j]), _col_degree(cols[k])
                if dj < dk:
                    j, k = k, j
                    dj, dk = dk, dj
                cj, ck = cols[j], cols[k]
                ratio = cj[piv].lead / ck[piv].lead
                shift = dj - dk
                factor = A.monomial(A.base(ratio), shift)
                cols[j] = [a - factor * b for a, b in zip(cj, ck)]
                changed = True
                break
            by_pivot[piv] = j
    return cols


def reduce(L):
    """Successive-minimum basis via weak Popov column reduction."""
    F = L.field
    cols, den = _integral(F, L.columns)
    weak_popov(cols)
    shift = int(den.degree)
    pairs = sorted(
        ((Fraction(_col_degree(col) - shift), col) for col in cols),
        key=lambda p: -p[0],
    )
    minima = [p[0] for p in pairs]
    basis = LatticeBasis(F, [[F.make(p, den) for p in col] for _, col in pairs])
    red = ReducedBasis(basis, minima)
    if red.log_covolume != Fraction(basis.det.deg_infinity()):
        raise InvariantViolation("covolume differs from the degree of det")
    return red


def covolume(L):
    """log D(Lambda) = sum of successive minima = deg det."""
    return Covolume(reduce(L).log_covolume)


def is_reduced(L):
    return reduce(L).is_reduced


# -- indices and the Smith form ---------------------------------------------


def _index(sub, sup):
    """(log(sup : sub), Smith invariant factors), requiring genuine
    containment; the log index is deg det, cross-checked against the
    Smith form.  sub = sup * M, so deg det M = deg det sub - deg det sup.

    One Bareiss elimination of [S | T] over A, S = ds * sup and
    T = dt * sub, and fraction-free back substitution give y = p S^-1 T
    with p the last pivot; M = y ds / (p dt) must be integral."""
    S, ds = _integral(sub.field, sup.columns)
    T, dt = _integral(sub.field, sub.columns)
    n = len(S)
    p, rows = _bareiss(S, T)
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
    value = Fraction(sub.det.deg_infinity() - sup.det.deg_infinity())
    inv_factors = smith_invariant_factors(M_A)
    if value != sum(Fraction(int(f.degree)) for f in inv_factors):
        raise InvariantViolation("index differs from the Smith form degree")
    return value, inv_factors


def log_index(sub, sup):
    """log(sup : sub), requiring genuine containment; equals the covolume
    difference and the Smith-form cardinality exponent."""
    return _index(sub, sup)[0]


def smith_invariant_factors(cols):
    """Invariant factors (monic, ascending divisibility) of a nonsingular
    matrix over A given as columns."""
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]  # rows
    factors = []

    def nonzero_min(sub_m, size):
        best = None
        for i in range(size):
            for j in range(size):
                p = sub_m[i][j]
                if not p.is_zero and (best is None or p.degree < sub_m[best[0]][best[1]].degree):
                    best = (i, j)
        return best

    size = n
    while size > 0:
        while True:
            pos = nonzero_min(m, size)
            i0, j0 = pos
            m[0], m[i0] = m[i0], m[0]
            for row in m:
                row[0], row[j0] = row[j0], row[0]
            pivot = m[0][0]
            done = True
            for i in range(1, size):
                if not m[i][0].is_zero:
                    q, _ = divmod(m[i][0], pivot)
                    m[i] = [a - q * b for a, b in zip(m[i], m[0])]
                    if not m[i][0].is_zero:
                        done = False
            for j in range(1, size):
                if not m[0][j].is_zero:
                    q, _ = divmod(m[0][j], pivot)
                    for i in range(size):
                        m[i][j] = m[i][j] - q * m[i][0]
                    if not m[0][j].is_zero:
                        done = False
            if done and all(m[i][0].is_zero for i in range(1, size)) and all(
                m[0][j].is_zero for j in range(1, size)
            ):
                # pivot must divide every remaining entry
                fixed = False
                for i in range(1, size):
                    for j in range(1, size):
                        if not divmod(m[i][j], pivot)[1].is_zero:
                            m[0] = [a + b for a, b in zip(m[0], m[i])]
                            fixed = True
                            break
                    if fixed:
                        break
                if not fixed:
                    break
        factors.append(m[0][0].monic())
        m = [row[1:] for row in m[1:]]
        size -= 1
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
    cols = []
    while True:
        C = [
            [A.random_element(rng, max_degree) for _ in range(r)] for _ in range(r)
        ]
        if not det(F, [[F.from_poly(p) for p in col] for col in C]).is_zero:
            break
    for ccol in C:
        vec = [F.zero] * r
        for j, coeff in enumerate(ccol):
            for i in range(r):
                vec[i] = vec[i] + Lam2.columns[j][i] * F.from_poly(coeff)
        cols.append(vec)
    product = LatticeBasis(F, cols)  # = Lam2 * C, contained in Lam2
    m = min(reduce(product).minima_logs)
    if m < 0:
        raise InvariantViolation("sublattice of a reduced lattice has minimum < 0")
    alpha = F.t ** int(m)
    Lam = LatticeBasis(
        F, [[x / alpha for x in col] for col in product.columns]
    )
    return Lam, Lam2, alpha
