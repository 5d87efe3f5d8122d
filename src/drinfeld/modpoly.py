"""Rank-2 modular polynomials for the prime t and the interpolation
machinery around them.

Phi_t is computed two independent ways:

* resultant route: the generic rank-2 module g = (s, 1) has j = s^(q+1)
  and phi_t = t + s tau + tau^2.  Right division by the kernel line
  f = tau - y in R[y]{tau} gives phi_t = Q f + p, p(y) the torsion
  polynomial, and f Q = phi'_t mod p (as f p = 0 mod p), whose tau^1
  coefficient is g1' while g2' = 1: Phi_t(X, s^(q+1)) is the
  y-resultant of p against X - g1'^(q+1).
* interpolation route: specialize s to 0, 1 and t + c for c in F_q,
  take univariate resultants, and Lagrange-interpolate in Y = j over A
  in Z = D Y, D the lcm of the point denominators (every j = s^(q+1)
  lies in A here, so D = 1).  The basis numerators b_k = M / (Z - a_k)
  come off the master polynomial M by synthetic division.  The slices
  P_k over the basis denominators c_k = b_k(a_k) share one common
  denominator E, so reconstruction sums in A[Z] and divides each
  coefficient by E once; it builds no element of F.  tk_bounds needs
  only degrees: deg c_k is the sum of the deg(a_k - a_s), as A is a
  domain, so it never forms c_k.

Coefficient heights are log base q of the sup norm at infinity, i.e.
t-degrees.  The bounds on them (Prop. 6.5 and the asymptotic bound) and
Hsia's main term live in `bounds`, which takes the modulus m alone.
"""

from fractions import Fraction

from .base import poly_ring_A, rational_function_field
from .errors import InvariantViolation
from .ff import digits
from .poly import PolyRing, resultant
from .ratfunc import RatFunc
from .skew import skew_ring


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
        sum_j c_ij w_j in A over b^d, for the weights w_j = a^j b^(d-j)
        formed once: one product per coefficient, one canonical form each."""
        F = FX.base
        if self.is_zero:
            return FX.zero
        d = self.deg_y
        a_pows = [yval.num**j for j in range(d + 1)]
        b_pows = [yval.den**j for j in range(d + 1)]
        weights = [a_pows[j] * b_pows[d - j] for j in range(d + 1)]
        out = {}
        for (i, j), c in self.coeffs.items():
            out[i] = out.get(i, self.A.zero) + c * weights[j]
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


# -- the two Phi_t constructions ----------------------------------------------


def _phi_slice(base, s, q):
    """Phi_t(X, s^(q+1)) in base[X], for s in base, a ring over A."""
    Ry = PolyRing(base, "y")
    S = skew_ring(Ry, q)
    f = S([-Ry.gen(), Ry.one])
    quot, rem = S([Ry(poly_ring_A(q).gen()), Ry(s), Ry.one]).right_divmod(f)
    p = rem.constant
    g1p = (f * quot).coeff(1) % p
    # the q-th power is Poly's Frobenius substitution
    power = (g1p**q * g1p) % p
    up = PolyRing(base, "X")
    upy, lift = PolyRing(up, "y"), up.constant
    return resultant(
        p.map_coeffs(lift, upy), upy.constant(up.gen()) - power.map_coeffs(lift, upy)
    )


def compute_phi_t(q):
    """Phi_t(X, Y) by the generic resultant route.

    Raises InvariantViolation unless every coefficient a_ij(t) is
    t^r g(t^(q-1)) with r = 2 - i - j mod q - 1 (the weight grading).
    Why: for zeta in F_q^*, sigma: t -> zeta t is an automorphism of A.
    If f phi_t = phi'_t f, then sigma(f) is a t-isogeny between the
    modules psi_t = zeta^-1 sigma(phi)_t and psi'_t = zeta^-1 sigma(phi')_t
    (zeta commutes with tau), and j(psi) = zeta^-(q+1) zeta sigma(j(phi))
    = zeta^-1 sigma(j(phi)).  So the q + 1 roots of
    Phi_t(X, zeta^-1 sigma(j)) are the zeta^-1 sigma(j'), which gives
    Phi_t(X, zeta^-1 Y) = zeta^-(q+1) (sigma Phi_t)(zeta X, Y); on the
    X^i Y^j coefficient, a_ij(zeta t) = zeta^(q+1-i-j) a_ij(t) =
    zeta^(2-i-j) a_ij(t).  A monomial c t^k of a_ij then has
    c zeta^k = c zeta^(2-i-j) for every zeta, and zeta of order q - 1
    forces k = 2 - i - j mod q - 1."""
    A = poly_ring_A(q)
    As = PolyRing(A, "s")
    res = _phi_slice(As, As.gen(), q)
    if res.degree != q + 1 or res.lead != As.one:
        raise InvariantViolation("resultant is not monic of degree q+1 in X")
    coeffs = {}
    for i, ci in enumerate(res.coeffs):
        for k, a in enumerate(ci.coeffs):
            if a.is_zero:
                continue
            if k % (q + 1) != 0:
                raise InvariantViolation("resultant is not a polynomial in s^(q+1)")
            j = k // (q + 1)
            if any(c and (e + i + j - 2) % (q - 1) for e, c in enumerate(a.codes)):
                raise InvariantViolation(f"X^{i} Y^{j} coefficient is off its weight class")
            coeffs[(i, j)] = a
    out = BivarPoly(A, coeffs)
    if not out.is_symmetric():
        raise InvariantViolation("Phi_t is not symmetric")
    if not (out.is_monic_in_x() and out.is_monic_in_y()):
        raise InvariantViolation("Phi_t is not monic in both variables")
    return out


def phi_t_slices(q, svals):
    """Univariate slices Phi_t(X, j) at j = s^(q+1) for each s in svals,
    a list of elements of A, as (j in F, poly in F[X]) pairs."""
    F = rational_function_field(q)
    A, FX = F.ring, PolyRing(F, "X")
    out = []
    for s in svals:
        res = _phi_slice(A, s, q)
        out.append((F.from_poly(s ** (q + 1)), res.map_coeffs(F.from_poly, FX)))
    return out


def compute_phi_t_interpolated(q):
    """Phi_t(X, Y) by per-specialization resultants at the q + 2 values
    s in {0, 1} and {t + c : c in F_q}, then Lagrange interpolation in
    Y = j = s^(q+1).  These j are distinct and lie in A (so D = 1), of
    degree at most q + 1."""
    A = poly_ring_A(q)
    svals = [A.zero, A.one] + [A.gen() + c for c in A.base.elements()]
    return lagrange_reconstruct(phi_t_slices(q, svals), q + 1)


# -- interpolation sets and Lagrange reconstruction ---------------------------


def build_Sn(q, n):
    """The q^(2n+1) Laurent polynomials sum a_i t^i, -n <= i <= n, as a tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    F = rational_function_field(q)
    A = F.ring
    width = 2 * n + 1
    den = A.gen() ** n
    points = []
    for code in range(q**width):
        points.append(F.make(A.from_codes(digits(code, q, width)), den))
    if len(set(points)) != q**width:
        raise InvariantViolation("S_n has repeated points")
    return tuple(points)


def _lagrange_basis(points):
    """(D, [a_k], [b_k]): the Lagrange numerators over A in Z = D Y, where
    D is the monic lcm of the point denominators and a_k = D y_k lies in A.
    The master polynomial M = prod_s (Z - a_s) is built once, one linear
    factor at a time, and b_k = M / (Z - a_k) in A[Z] by synthetic
    division, Horner's rule at a_k: b_{k,d} = 1 and b_{k,j-1} = M_j +
    a_k b_{k,j}.  Its last step gives M(a_k), which must be zero.  With
    c_k = prod_{s != k} (a_k - a_s) = b_k(a_k), T_k(Y) = b_k(D Y) / c_k.
    No step divides."""
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    F = points[0].field
    nums, D = F.clear_denominators(points)
    zero = F.ring.zero
    M = [F.ring.one]
    for a in nums:
        # M (Z - a) = Z M + (-a) M; the sum walks the shorter operand
        na = -a
        M = [lo + na * hi for lo, hi in zip([zero] + M, M + [zero])]
    AZ = PolyRing(F.ring, "Z")
    basis = []
    for ak in nums:
        b = [M[-1]]
        for m in M[-2:0:-1]:
            b.append(m + ak * b[-1])
        if M[0] + ak * b[-1]:
            raise ValueError("exact_div: division is not exact")
        basis.append(AZ.from_coeffs(b[::-1]))
    return D, nums, basis


def tk_bounds(q, n, points):
    """Lagrange basis data for d+1 chosen points of S_n: the maximum
    T_k coefficient log-height against the bound n*d, and the minimum
    spacing product log against -n*d.  Checked, not assumed.  A is a
    domain, so deg c_k = sum_{s != k} deg(a_k - a_s): c_k is never formed."""
    d = len(points) - 1
    if d < 0:
        raise ValueError("need at least one point")
    if d > q ** (2 * n + 1) - 1:
        raise ValueError("d exceeds |S_n| - 1")
    D, nums, basis = _lagrange_basis(points)
    dD = int(D.degree)
    deg_c = [0] * len(nums)
    for k, ak in enumerate(nums):
        for s in range(k):
            gap = (ak - nums[s]).degree
            deg_c[k] += gap
            deg_c[s] += gap
    # prod_{s != k} (y_k - y_s) = c_k / D^d and the Y^j coefficient of
    # T_k is b_{k,j} D^j / c_k; degrees at infinity are additive
    spacing_min = min(deg_c) - d * dD
    coeff_max = max(
        c.degree + j * dD - dc
        for bk, dc in zip(basis, deg_c)
        for j, c in enumerate(bk.coeffs)
        if c
    )
    return {
        "d": d,
        "coeff_log_max": Fraction(coeff_max),
        "coeff_log_bound": Fraction(n * d),
        "coeff_ok": coeff_max <= n * d,
        "spacing_log_min": Fraction(spacing_min),
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
    F = pairs[0][1].ring.base
    # P = sum_k P_k(X) b_k(Z) / c_k with Z = D Y.  Over one common
    # denominator E every P_k,i / c_k is N_k,i / E, so the X^i Z^j
    # coefficient of P is sum_k N_k,i b_k,j / E: summed in A[Z], divided once
    D, nodes, basis = _lagrange_basis([y for y, _ in pairs])
    fracs = []
    for ak, bk, (_, pk) in zip(nodes, basis, pairs):
        ck = bk(ak)
        # clear_denominators takes unreduced fractions with monic denominators
        unit, mk = ck.lead.inverse(), ck.monic()
        fracs += [RatFunc(F, c.num.scale(unit), c.den * mk) for c in pk.coeffs]
    nums, E = F.clear_denominators(fracs)
    nums = iter(nums)
    sums = {}
    for bk, (_, pk) in zip(basis, pairs):
        for i in range(len(pk.coeffs)):
            sums[i] = sums.get(i, bk.ring.zero) + bk.scale(next(nums))
    coeffs = {}
    for i, s in sums.items():
        for j, c in enumerate(s.coeffs):
            # Z = D Y: the Y^j coefficient is D^j times the Z^j one
            quot, rem = divmod(c * D**j, E)
            if rem:
                raise ValueError("reconstruction has non-polynomial coefficients")
            coeffs[(i, j)] = quot
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

