"""Isogenies of Drinfeld modules as skew polynomials.

An isogeny f : phi -> phi' satisfies f * phi_t = phi'_t * f.  Its dual is
phi_N / f for the least monic N with ker f in phi[N], computed, not searched
for: N is the minimal polynomial of 1 under g -> g phi_t on F{tau}/F{tau}f.
"""

from .base import rational_function_field
from .dmod import DrinfeldModule
from .errors import InvariantViolation, KernelNotStable
from .extfield import rational_roots, to_A_x
from .poly import PolyRing
from .skew import skew_ring


class Isogeny:
    """A verified isogeny f : source -> target."""

    def __init__(self, f, source, target):
        if f.is_zero:
            raise ValueError("the zero map is not an isogeny")
        if f.constant.is_zero:
            # In generic characteristic the constant term of f*phi_t is
            # f_0 * t, which must match t * (constant of f); f_0 = 0 would
            # force a purely inseparable kernel, which cannot verify.
            raise ValueError(
                "isogenies must be separable: constant term f_0 must be nonzero"
            )
        if not verify(f, source, target):
            raise ValueError("f does not intertwine the two modules")
        self.f = f
        self.source = source
        self.target = target

    def __repr__(self):
        return f"Isogeny({self.f!r})"


class DualData:
    def __init__(self, fhat, N):
        self.fhat = fhat
        self.N = N


def verify(f, phi, phi2):
    """True iff f * phi_t == phi2_t * f; ValueError across fields."""
    if phi2.field is not phi.field:
        raise ValueError("the two modules are over different fields")
    return f * phi.phi_t == phi2.phi_t * f


def pushforward(phi, f):
    """The module phi' with f : phi -> phi', solved from the intertwining
    relation by right division; raises KernelNotStable when ker f is not
    a phi-submodule."""
    if f.is_zero or f.constant.is_zero:
        raise ValueError("need a separable candidate isogeny (f_0 != 0)")
    quot, rem = (f * phi.phi_t).right_divmod(f)
    if not rem.is_zero:
        raise KernelNotStable("ker f is not stable under phi")
    if quot.coeff(0) != phi.field.t:
        raise InvariantViolation("constant term of the pushforward is not t")
    return DrinfeldModule(
        phi.field, phi.q, phi.r, [quot.coeff(i) for i in range(1, phi.r + 1)]
    )


def minimal_N(phi, f):
    """(N, phi_N, phi_N / f) for the least monic N with ker f in phi[N].  With
    phi_t^k = Q_k f + R_k, the first relation sum c_k R_k = 0 over F gives N =
    sum c_k t^k and phi_N / f = sum c_k Q_k.  For a phi-stable ker f, g -> g phi_t
    is precomposition with phi_t on ker f over F-bar, so the c_k are algebraic
    over F_q, hence in F_q; a c_k outside F_q raises KernelNotStable."""
    F, S, phit, d = phi.field, phi.skew, phi.phi_t, len(f.coeffs) - 1
    Q, R = S.one.right_divmod(f) if d == 0 else (S.zero, S.one)
    quots, rows = [], []  # rows: (pivot, [R-vector | its combination of R_0, R_1, ..])
    for k in range(d + 1):  # d + 1 vectors of F^d: a relation by k = d
        quots.append(Q)
        v = list(R.coeffs) + [F.zero] * (d - len(R.coeffs) + k) + [F.one]
        for p, w in rows:
            if a := v[p]:
                v = [x - a * y for x, y in zip(v, w)] + v[len(w):]
        p = next((i for i in range(d) if v[i]), None)
        if p is None:
            break
        if (a := v[p]) != F.one:
            v = [x / a for x in v]
        rows.append((p, v))
        S_k, R = (phit * R if k else phit).right_divmod(f)  # phi_t R_k = S_k f + R_{k+1}
        Q = phit * Q + S_k if k else S_k
    if any(c.den.degree or c.num.degree > 0 for c in v[d:]):
        raise KernelNotStable("ker f is not stable under phi")
    N = F.ring.from_coeffs([c.num.coeff(0) for c in v[d:]])
    return N, phi.phi_of(N), sum((S.constant(c) * Qk for c, Qk in zip(v[d:-1], quots) if c), Q)


def dual(phi, phi2, f):
    """fhat with fhat * f = phi_N and f * fhat = phi2_N."""
    N, phi_N, fhat = minimal_N(phi, f)
    if fhat * f != phi_N or f * fhat != phi2.phi_of(N):
        raise InvariantViolation("dual composition identities failed")
    if int(f.tau_degree + fhat.tau_degree) != phi.r * int(N.degree):
        raise InvariantViolation("tau-degrees of f and fhat do not sum to r deg N")
    return DualData(fhat, N)


def rank2_t_isogenies(phi):
    """All t-isogenies from a rank 2 module over F whose kernel line is
    rational: one f = tau - y per root y in F of g_2 y^(q+1) + g_1 y + t
    (the substitution y = u^(q-1) into the t-torsion equation), built by
    hand: as phi_t mod tau - y in F[y]{tau} (``modpoly._phi_slice``'s route)
    it took 62-81 us, not 11-18 us, of a 200-270 us call at q = 2, 3, 4."""
    if phi.r != 2:
        raise ValueError("t-isogeny enumeration is rank 2 only")
    F = phi.field
    g1, g2 = phi.coeffs
    yring = PolyRing(F, "y")
    ypoly = (
        yring.monomial(g2, phi.q + 1) + yring.monomial(g1, 1) + yring.constant(F.t)
    )
    out = []
    for y in rational_roots(to_A_x(ypoly), F):
        f = phi.skew([-y, F.one])
        out.append(Isogeny(f, phi, pushforward(phi, f)))
    return out


def random_isogenous_pair(q, r, rng, size_bound=2):
    """Exact generator of isogenous pairs over F: pick skew f, P with
    P_0 * f_0 = t and tau-deg P + tau-deg f = r, then phi_t := P * f and
    phi'_t := f * P.  Both f and P are then isogenies with N = t."""
    F = rational_function_field(q)
    A = F.ring
    S = skew_ring(F, q)
    df = rng.randint(1, r - 1) if r > 2 else 1
    dP = r - df

    def draw(deg, constant=None):
        coeffs = []
        for i in range(deg + 1):
            if i == 0 and constant is not None:
                coeffs.append(constant)
            elif i == deg:
                coeffs.append(F.from_poly(A.random_element(rng, size_bound, nonzero=True)))
            else:
                coeffs.append(F.from_poly(A.random_element(rng, size_bound)))
        return S(coeffs)

    f0 = F.from_poly(A.random_element(rng, size_bound, nonzero=True))
    f = draw(df, constant=f0)
    P = draw(dP, constant=F.t / f0)
    phi_t = P * f
    phi = DrinfeldModule(F, q, r, [phi_t.coeff(i) for i in range(1, r + 1)])
    phi2 = pushforward(phi, f)
    if phi2.phi_t != f * P:
        raise InvariantViolation("pushforward of P * f is not f * P")
    return phi, phi2, f, P


def remark_rank3_check(q, f0, g1=None):
    """Symbolic verification of the rank 3 example: phi with coefficients
    (g_1, 0, 1), the degree-q isogeny f = f_0 + tau, and the closed forms
    for the pushforward coefficients.

    f0 may live in F or in a quotient field L; when g1 is omitted it is
    reverse-engineered as (t - f0^(q^2+q+1)) / f0, which makes f0 a root
    of X^(q^2+q+1) + g1 X - t.
    """
    R = f0.field
    t = R.t
    if f0.is_zero:
        raise ValueError("f0 must be a unit")
    if g1 is None:
        g1 = (t - f0 ** (q**2 + q + 1)) / f0
    mismatches = []
    # f0 must be a root of the degree q^2+q+1 equation
    residual = f0 ** (q**2 + q + 1) + g1 * f0 - t
    if not residual.is_zero:
        mismatches.append("root-equation")
    phi = DrinfeldModule(R, q, 3, [g1, R(0), R(1)])
    S = phi.skew
    f = S([f0, R(1)])
    a = t / f0
    b = -(f0 ** (q**2))
    P = S([a, b, R(1)])
    if P * f != phi.phi_t:
        mismatches.append("factorization phi_t = P*f")
    phi2 = pushforward(phi, f)
    if not verify(f, phi, phi2):
        mismatches.append("intertwining")
    g1p, g2p = phi2.coeffs[0], phi2.coeffs[1]
    expect_g1p = f0 ** (-q) * (f0 * g1 + t**q - t)
    expect_g2p = f0 - f0 ** (q**3)
    expect_g1p_closed = -(f0 ** (q**2 + 1)) + f0 ** (-q) * t**q
    if g1p != expect_g1p:
        mismatches.append("g1' coefficient identity")
    if g2p != expect_g2p:
        mismatches.append("g2' coefficient identity")
    if g1p != expect_g1p_closed:
        mismatches.append("g1' closed form")
    if phi2.phi_t != f * P:
        mismatches.append("phi'_t = f*P")
    return {
        "ok": not mismatches,
        "mismatches": mismatches,
        "g1": repr(g1),
        "g1_prime": repr(g1p),
        "g2_prime": repr(g2p),
    }
