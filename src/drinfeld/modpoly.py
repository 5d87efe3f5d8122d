"""Rank-2 modular polynomials for the prime t and the interpolation
machinery around them.

Phi_t is computed two independent ways:

* resultant route: the generic rank-2 module g = (s, 1) has j = s^(q+1);
  the kernel parameter y satisfies p(y) = y^(q+1) + s y + t = 0, the
  pushforward along tau - y has coefficients (g1', g2') = (s^q - y +
  y^(q^2), 1) mod p, and since g2' = 1, Phi_t(X, s^(q+1)) is the
  y-resultant of p against X - g1'^(q+1).
* interpolation route: specialize s = t^k, take univariate resultants,
  and Lagrange-interpolate in Y = j, over A in Z = D Y with D the lcm
  of the point denominators.

Coefficient heights are log base q of the sup norm at infinity, i.e.
t-degrees.
"""

from fractions import Fraction
from functools import lru_cache

from mpmath import iv

from .base import poly_ring_A, rational_function_field
from .bounds import (
    _frac_iv, _logq, _resolved_iv, _upper_float, working_dps, DEFAULT_DPS
)
from .errors import InvariantViolation
from .factor import factor
from .poly import PolyRing, resultant


class BivarPoly:
    """Polynomial in X, Y with coefficients in A = F_q[t], sparse dict."""

    def __init__(self, A, coeffs):
        self.A = A
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero}

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, i, j):
        return self.coeffs.get((i, j), self.A.zero)

    @property
    def deg_x(self):
        return max((i for i, _ in self.coeffs), default=None)

    @property
    def deg_y(self):
        return max((j for _, j in self.coeffs), default=None)

    def height(self):
        """max over coefficients of deg_t, as a Fraction."""
        if self.is_zero:
            raise ValueError("height of the zero polynomial is undefined")
        return Fraction(max(int(c.degree) for c in self.coeffs.values()))

    def is_symmetric(self):
        return all(
            self.coeff(j, i) == c for (i, j), c in self.coeffs.items()
        )

    def is_monic_in_x(self):
        d = self.deg_x
        top = [(i, j) for i, j in self.coeffs if i == d]
        return top == [(d, 0)] and self.coeff(d, 0) == self.A.one

    def is_monic_in_y(self):
        d = self.deg_y
        top = [(i, j) for i, j in self.coeffs if j == d]
        return top == [(0, d)] and self.coeff(0, d) == self.A.one

    def evaluate(self, field, xval, yval):
        """Value at (xval, yval) over a field containing A via from_poly."""
        total = field.zero
        for (i, j), c in self.coeffs.items():
            total = total + field.from_poly(c) * xval**i * yval**j
        return total

    def eval_y(self, FX, yval):
        """Partial evaluation Y = yval in F; result is a poly in X over F.

        With yval = a/b and d = deg_Y, each X-coefficient is
        sum_j c_ij a^j b^(d-j) in A over b^d: one canonical form each."""
        F = FX.base
        if self.is_zero:
            return FX.zero
        d = self.deg_y
        a_pows = [yval.num**j for j in range(d + 1)]
        b_pows = [yval.den**j for j in range(d + 1)]
        out = {}
        for (i, j), c in self.coeffs.items():
            out[i] = out.get(i, self.A.zero) + c * a_pows[j] * b_pows[d - j]
        return FX.from_coeffs(
            [F.make(out.get(i, self.A.zero), b_pows[d]) for i in range(self.deg_x + 1)]
        )

    def to_sparse_list(self):
        return [
            {"i": i, "j": j, "coeff": repr(self.coeffs[(i, j)])}
            for i, j in sorted(self.coeffs)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, BivarPoly)
            and self.A is other.A
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, j in sorted(self.coeffs, reverse=True):
            c = self.coeffs[(i, j)]
            piece = []
            if c != self.A.one or (i, j) == (0, 0):
                cs = repr(c)
                piece.append(f"({cs})" if ("+" in cs or "-" in cs) else cs)
            if i:
                piece.append(f"X^{i}" if i > 1 else "X")
            if j:
                piece.append(f"Y^{j}" if j > 1 else "Y")
            parts.append("*".join(piece))
        return " + ".join(parts)


# -- arithmetic functions of the modulus --------------------------------------


def _prime_divisors(m):
    _, facs = factor(m)
    return [p for p, _ in facs]


def _check_modulus(m):
    if not m.is_monic or m.degree < 1:
        raise ValueError("modulus must be monic nonconstant")


def psi(q, m):
    """|m| prod_{P | m} (1 + 1/|P|), an integer."""
    _check_modulus(m)
    value = Fraction(q ** int(m.degree))
    for p in _prime_divisors(m):
        value *= 1 + Fraction(1, q ** int(p.degree))
    if value.denominator != 1:
        raise InvariantViolation("psi(m) is not an integer")
    return int(value)


def kappa(q, m):
    """sum_{P | m} deg P / |P|."""
    _check_modulus(m)
    return sum(
        (Fraction(int(p.degree), q ** int(p.degree)) for p in _prime_divisors(m)),
        Fraction(0),
    )


# -- the two Phi_t constructions ----------------------------------------------


@lru_cache(maxsize=None)
def _rings(q):
    A = poly_ring_A(q)
    F = rational_function_field(q)
    As = PolyRing(A, "s")
    Asy = PolyRing(As, "y")
    AsX = PolyRing(As, "X")
    Ay = PolyRing(A, "y")
    AX = PolyRing(A, "X")
    FX = PolyRing(F, "X")
    return A, F, As, Asy, AsX, Ay, AX, FX


def _size_guard(q):
    if q not in (2, 3):
        raise ValueError("Phi_t is computed only for q in (2, 3) (resultants grow fast)")


def _pushforward_coeffs(yring, s_elem, t_elem, q):
    """(p, g1') in yring, with g1' already reduced mod p; g2' = 1."""
    y = yring.gen()
    p = y ** (q + 1) + yring.monomial(s_elem, 1) + yring.constant(t_elem)
    g1p = (yring.constant(s_elem**q) - y + y ** (q * q)) % p
    return p, g1p


def _phi_slice(up, p, g1p, q):
    """Res_y(p, X - g1'^(q+1)) in up = (base)[X]."""
    power = p.ring.one
    for _ in range(q + 1):
        power = (power * g1p) % p
    upy = PolyRing(up, "y")
    lift = lambda c: up.constant(c)
    return resultant(
        p.map_coeffs(lift, upy), upy.constant(up.gen()) - power.map_coeffs(lift, upy)
    )


def compute_phi_t(q):
    """Phi_t(X, Y) by the generic resultant route."""
    _size_guard(q)
    A, _, As, Asy, AsX, _, _, _ = _rings(q)
    t = A.gen()
    s = As.gen()
    p, g1p = _pushforward_coeffs(Asy, s, As.constant(t), q)
    res = _phi_slice(AsX, p, g1p, q)
    if res.degree != q + 1 or res.lead != As.one:
        raise InvariantViolation("resultant is not monic of degree q+1 in X")
    coeffs = {}
    for i, ci in enumerate(res.coeffs):
        for k, a in enumerate(ci.coeffs):
            if a.is_zero:
                continue
            if k % (q + 1) != 0:
                raise InvariantViolation("resultant is not a polynomial in s^(q+1)")
            coeffs[(i, k // (q + 1))] = a
    out = BivarPoly(A, coeffs)
    if not out.is_symmetric():
        raise InvariantViolation("Phi_t is not symmetric")
    if not (out.is_monic_in_x() and out.is_monic_in_y()):
        raise InvariantViolation("Phi_t is not monic in both variables")
    return out


def phi_t_slices(q, ks):
    """Univariate slices Phi_t(X, j_k) for s = t^k, as (j_k in F, poly in
    F[X]) pairs."""
    A, F, _, _, _, Ay, AX, FX = _rings(q)
    t = A.gen()
    out = []
    for k in ks:
        sk = t**k
        p, g1p = _pushforward_coeffs(Ay, sk, t, q)
        res = _phi_slice(AX, p, g1p, q)
        jk = F.from_poly(sk ** (q + 1))
        out.append((jk, res.map_coeffs(F.from_poly, FX)))
    return out


def compute_phi_t_interpolated(q):
    """Phi_t(X, Y) by per-specialization resultants at s = t^k for
    k = 0..q+1, then Lagrange interpolation in Y = j."""
    _size_guard(q)
    pairs = phi_t_slices(q, range(q + 2))
    return lagrange_reconstruct(pairs, q + 1)


# -- interpolation sets and Lagrange reconstruction ---------------------------


def build_Sn(q, n):
    """The q^(2n+1) Laurent polynomials sum a_i t^i, -n <= i <= n, as a tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    F = rational_function_field(q)
    A = F.ring
    k = F.base_field
    width = 2 * n + 1
    den = A.gen() ** n
    points = []
    elems = list(k.elements())
    for code in range(q**width):
        digits = []
        c = code
        for _ in range(width):
            digits.append(elems[c % q])
            c //= q
        num = A.from_coeffs(digits)
        points.append(F.make(num, den))
    if len(set(points)) != q**width:
        raise InvariantViolation("S_n has repeated points")
    return tuple(points)


def _lagrange_basis(points):
    """(D, [(b_k, c_k)]): the Lagrange basis over A in Z = D Y, where D is
    the monic lcm of the point denominators and a_k = D y_k lies in A.
    b_k = M / (Z - a_k) in A[Z] for the master polynomial M = prod_s
    (Z - a_s), built once, and c_k = prod_{s != k} (a_k - a_s) in A, so
    T_k(Y) = b_k(D Y) / c_k.  Every divisor is monic, so no step runs a
    gcd; exact_div raises if M(a_k) != 0."""
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    F = points[0].field
    nums, D = F.clear_denominators(points)
    AZ = PolyRing(F.ring, "Z")
    master = AZ.one
    for a in nums:
        master = master * (AZ.gen() - AZ.constant(a))
    out = []
    for k, ak in enumerate(nums):
        ck = F.ring.one
        for s, a in enumerate(nums):
            if s != k:
                ck = ck * (ak - a)
        out.append((master.exact_div(AZ.gen() - AZ.constant(ak)), ck))
    return D, out


def tk_bounds(q, n, points):
    """Lagrange basis data for d+1 chosen points of S_n: the maximum
    T_k coefficient log-height against the bound n*d, and the minimum
    spacing product log against -n*d.  Checked, not assumed."""
    d = len(points) - 1
    if d < 0:
        raise ValueError("need at least one point")
    if d > q ** (2 * n + 1) - 1:
        raise ValueError("d exceeds |S_n| - 1")
    coeff_max = None
    spacing_min = None
    D, basis = _lagrange_basis(points)
    dD = int(D.degree)
    for bk, ck in basis:
        # prod_{s != k} (y_k - y_s) = c_k / D^d and the Y^j coefficient of
        # T_k is b_{k,j} D^j / c_k; degrees at infinity are additive
        spacing = Fraction(int(ck.degree) - d * dD)
        spacing_min = spacing if spacing_min is None else min(spacing_min, spacing)
        for j, c in enumerate(bk.coeffs):
            if c.is_zero:
                continue
            h = Fraction(int(c.degree) + j * dD - int(ck.degree))
            coeff_max = h if coeff_max is None else max(coeff_max, h)
    return {
        "d": d,
        "coeff_log_max": coeff_max,
        "coeff_log_bound": Fraction(n * d),
        "coeff_ok": coeff_max <= n * d,
        "spacing_log_min": spacing_min,
        "spacing_log_bound": Fraction(-n * d),
        "spacing_ok": spacing_min >= -n * d,
    }


def lagrange_reconstruct(pairs, d, n=None):
    """Bivariate P over A with P(X, y_k) = P_k for the given (y_k, P_k)
    pairs; degree <= d in Y.  With n given (points drawn from S_n), the
    height bound h(P) <= B + 2nd is asserted, B the max evaluation
    height."""
    pairs = list(pairs)
    if len(pairs) != d + 1:
        raise ValueError("need exactly d+1 evaluation points")
    FX = pairs[0][1].ring
    F = FX.base
    # the basis has constant coefficients in X: total[j] is the Z^j
    # coefficient of P, accumulated in F[X]
    D, basis = _lagrange_basis([y for y, _ in pairs])
    total = [FX.zero] * (d + 1)
    for (bk, ck), (_, pk) in zip(basis, pairs):
        pk = pk.scale(F.from_poly(ck).inverse())
        for j, c in enumerate(bk.coeffs):
            total[j] = total[j] + pk.scale(F.from_poly(c))
    coeffs = {}
    for j, cz in enumerate(total):
        # Z = D Y: the Y^j coefficient is D^j times the Z^j one
        for i, cf in enumerate(cz.scale(F.from_poly(D) ** j).coeffs):
            if cf.is_zero:
                continue
            if not cf.is_polynomial:
                raise ValueError("reconstruction has non-polynomial coefficients")
            coeffs[(i, j)] = cf.num
    out = BivarPoly(F.ring, coeffs)
    if n is not None and not out.is_zero:
        logs = [
            Fraction(c.deg_infinity())
            for _, pk in pairs
            for c in pk.coeffs
            if not c.is_zero
        ]
        B = max(logs)  # out nonzero forces a nonzero evaluation coefficient
        if out.height() > B + 2 * n * d:
            raise InvariantViolation("height bound B + 2nd violated")
    return out


# -- height bounds on Phi_m ---------------------------------------------------


def _a_constant(q, m, psi_m):
    """Interval value of a = ((q^2-1)/2) deg m + q + (1/2) log psi(m)."""
    head = Fraction(q * q - 1, 2) * int(m.degree) + q
    return _frac_iv(head) + _logq(iv.mpf(psi_m), q) / 2


def prop65_bound(q, m, dps=DEFAULT_DPS):
    """psi(m) max(q^3, a + ((q^2-1)/2) log(1 + (a/q)(1 - (q^2-1)/(2q^2 ln q))^-1))
    + 2 psi(m) log psi(m), rounded up."""
    _check_modulus(m)
    psi_m = psi(q, m)
    with working_dps(dps):
        hi = max(q**3, _upper_float(_resolved_iv(_a_constant(q, m, psi_m), q)))
        tail = _upper_float(2 * psi_m * _logq(iv.mpf(psi_m), q))
        return psi_m * hi + tail


def hsia_main_term(q, m):
    """((q^2-1)/2) psi(m) (deg m - 2 kappa(m)), exact."""
    _check_modulus(m)
    return Fraction(q * q - 1, 2) * psi(q, m) * (int(m.degree) - 2 * kappa(q, m))


def asymptotic_bound(q, m, eps, dps=DEFAULT_DPS):
    """((q^2+4)/2 + eps) psi(m) deg m, rounded up."""
    _check_modulus(m)
    if eps <= 0:
        raise ValueError("eps must be positive")
    with working_dps(dps):
        value = (
            (_frac_iv(Fraction(q * q + 4, 2)) + iv.mpf(eps))
            * psi(q, m)
            * int(m.degree)
        )
        return _upper_float(value)


def bounds_row(q, m, phi_height=None, eps=0.01):
    """One row of the height table: m, psi, kappa, h(Phi_m) when known,
    and the three bounds."""
    return {
        "m": repr(m),
        "psi": psi(q, m),
        "kappa": str(kappa(q, m)),
        "h_phi": None if phi_height is None else str(phi_height),
        "prop65_bound": prop65_bound(q, m),
        "hsia_main_term": str(hsia_main_term(q, m)),
        "asymptotic_bound": asymptotic_bound(q, m, eps),
    }
