"""Evaluators for the explicit inequality constants, and reports.

Height differences are exact rationals.  Every right-hand side that
involves a logarithm of a non-power is one interval expression in a
private `mpmath` interval context held at 30 digits; an evaluator
returns the least float at or above its upper endpoint.  No other module
evaluates intervals, builds a `BoundReport` or touches the global
`mpmath.iv`.  The bounds on Phi_m take m in A = F_q[t] alone, and read q
off its ring.  All logarithms are base q.
"""

import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

from .errors import InvariantViolation
from .factor import factor
from .ff import factor_prime_power

_DPS, _MAX_DPS = 30, 240
_IV = MPIntervalContext()
_IV.dps = _DPS


class BoundReport:
    """An exact lhs against a rational rhs, or an interval function that
    evaluates the rhs in `_IV` at its precision.  A rational rhs, or the
    value `exact` of an interval one, decides exactly; else the endpoints
    decide, at 30 digits or at doubled digits up to `_MAX_DPS` while lhs
    lies between them.  The payload's rhs is rounded up."""

    def __init__(self, lhs, rhs, inputs, exact=None):
        self.lhs, self.inputs, self.rhs = Fraction(lhs), dict(inputs), rhs
        if callable(rhs):
            x = rhs()
            self.rhs = _upper_float(x)
            self.satisfied = self.lhs <= exact if exact is not None else self._decide(rhs, x)
        else:
            self.satisfied = self.lhs <= Fraction(rhs)

    def _decide(self, rhs, x):
        try:
            while True:
                lo, hi = x._mpi_
                if self.lhs <= Fraction(*to_rational(lo)):
                    return True
                if self.lhs > Fraction(*to_rational(hi)):
                    return False
                if _IV.dps >= _MAX_DPS:
                    raise InvariantViolation(f"undecided at {_MAX_DPS} digits: {self.lhs}, {self.inputs}")
                _IV.dps *= 2
                x = rhs()
        finally:
            _IV.dps = _DPS

    def to_payload(self):
        rhs = float(self.rhs)
        if Fraction(rhs) < self.rhs:
            rhs = math.nextafter(rhs, math.inf)
        return {
            "lhs": str(self.lhs),
            "rhs": rhs,
            "rounded": "up",
            "satisfied": self.satisfied,
            "inputs": self.inputs,
        }


def _upper_float(x):
    """The least float at or above the upper endpoint of the interval x."""
    hi = x.b
    f = float(hi)
    if _IV.mpf(f) < hi:
        f = math.nextafter(f, math.inf)
    return f


def _logq(value, q):
    return _IV.log(value) / _IV.log(q)


def _frac_iv(x):
    """Interval of a rational or float x; exact for a float."""
    x = Fraction(x)
    return _IV.mpf(x.numerator) / x.denominator


def thm1_part1_bound(deg_N, q, r):
    """deg N + q/(q-1) - q^r/(q^r-1), exact."""
    if deg_N < 0 or r < 2:
        raise ValueError("need deg N >= 0 and r >= 2")
    return deg_N + Fraction(q, q - 1) - Fraction(q**r, q**r - 1)


def lemma54_window(q, r):
    """Window (q^r/(q^r-1), q/(q-1)) for the infinite local graded height
    of a reduced module; its width is the rank-r constant above."""
    if r < 2:
        raise ValueError("rank must be >= 2")
    return Fraction(q**r, q**r - 1), Fraction(q, q - 1)


def _part2(deg_f_log, h_jprime, q):
    """The interval function of ((q^2-1)/2) (log deg f + log(1 + h(j')/q)) + q,
    and its value when rational: when n = q (1 + h(j')/q) is a power p^k of
    the characteristic, as log n = k/e for q = p^e; None otherwise."""
    h_jprime, half = Fraction(h_jprime), Fraction(q * q - 1, 2)
    if h_jprime < 0:
        raise ValueError("h(j') must be nonnegative")
    (p, e), n = factor_prime_power(q), h_jprime + q
    k = round(math.log(n.numerator, p)) if n.denominator == 1 else 0

    def rhs():
        return _frac_iv(half) * (deg_f_log + _logq(1 + _frac_iv(h_jprime) / q, q)) + q

    return rhs, (half * (deg_f_log + Fraction(k, e) - 1) + q if p**k == n else None)


def dd_corollary_bound(K_degree, h_G, q, r, c2=1.0):
    """log c2 + 10 (r+1)^7 log(K_degree (q^r - 1) h_G) plus the rank-r
    constant, rounded up."""
    h_G = Fraction(h_G)
    if h_G <= 0 or K_degree < 1 or c2 <= 0:
        raise ValueError("need h_G > 0, K_degree >= 1, c2 > 0")
    const = Fraction(q, q - 1) - Fraction(q**r, q**r - 1)
    arg = _IV.mpf(K_degree) * (q**r - 1) * _frac_iv(h_G)
    value = _logq(_frac_iv(c2), q) + 10 * (r + 1) ** 7 * _logq(arg, q) + _frac_iv(const)
    return _upper_float(value)


def lemma64_threshold(q):
    """The fixed-point resolution applies only when x >= q^3."""
    return q**3


def lemma64_resolve(a, q):
    """Resolved bound a + ((q^2-1)/2) log(1 + (a/q)(1 - (q^2-1)/(2 q^2 ln q))^-1)
    for any x >= q^3 with x <= a + ((q^2-1)/2) log(1 + x/q); rounded up."""
    if a <= 0:
        raise ValueError("a must be positive")
    return _upper_float(_resolved_iv(_frac_iv(a), q))


def _resolved_iv(a, q):
    """Interval a + ((q^2-1)/2) log(1 + (a/q) / damp), where damp is
    1 - (q^2-1)/(2 q^2 ln q)."""
    half = _frac_iv(Fraction(q * q - 1, 2))
    damp = 1 - half / (q * q * _IV.log(q))
    return a + half * _logq(1 + (a / q) / damp, q)


# -- height bounds on Phi_m ---------------------------------------------------


def _modulus(m):
    """(q, deg m, psi, kappa, Hsia's main term) of monic nonconstant m, factored once."""
    if not m.is_monic or m.degree < 1:
        raise ValueError("modulus must be monic nonconstant")
    q, deg_m = m.ring.q, int(m.degree)
    degs = [int(p.degree) for p, _ in factor(m)[1]]
    psi_m = q ** (deg_m - sum(degs)) * math.prod(q**k + 1 for k in degs)
    kappa_m = sum((Fraction(k, q**k) for k in degs), Fraction(0))
    return q, deg_m, psi_m, kappa_m, Fraction(q * q - 1, 2) * psi_m * (deg_m - 2 * kappa_m)


def psi(m):
    """|m| prod_{P | m} (1 + 1/|P|) = q^(deg m - sum deg P) prod (|P| + 1)."""
    return _modulus(m)[2]


def kappa(m):
    """sum_{P | m} deg P / |P|."""
    return _modulus(m)[3]


def hsia_main_term(m):
    """((q^2-1)/2) psi(m) (deg m - 2 kappa(m)), exact."""
    return _modulus(m)[4]


def _prop65_iv(q, deg_m, psi_m):
    """psi max(q^3, x) + 2 psi log psi, x the Lemma 6.4 resolution of
    a = ((q^2-1)/2) deg m + q + (1/2) log psi."""
    log_psi = _logq(_IV.mpf(psi_m), q)
    x = _resolved_iv(_frac_iv(Fraction(q * q - 1, 2) * deg_m + q) + log_psi / 2, q)
    top = _IV.mpf([max(x.a, q**3), max(x.b, q**3)])
    return psi_m * top + 2 * psi_m * log_psi


def prop65_bound(m):
    """psi(m) max(q^3, a + ((q^2-1)/2) log(1 + (a/q)(1 - (q^2-1)/(2q^2 ln q))^-1))
    + 2 psi(m) log psi(m), a = ((q^2-1)/2) deg m + q + (1/2) log psi(m);
    rounded up."""
    return _upper_float(_prop65_iv(*_modulus(m)[:3]))


def asymptotic_bound(m, eps):
    """((q^2+4)/2 + eps) psi(m) deg m, rounded up."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _asymptotic(eps, *_modulus(m)[:3])


def _asymptotic(eps, q, deg_m, psi_m):
    return _upper_float((_frac_iv(Fraction(q * q + 4, 2)) + _frac_iv(eps)) * psi_m * deg_m)


def bounds_row(m, phi_height=None):
    """One row of the height table: m, psi, kappa, h(Phi_m) when known,
    and the three bounds, all read off one factorization of m.

    The asymptotic bound ((q^2+4)/2 + eps) psi(m) deg m, here at eps =
    0.01, holds only as deg m grows: h(Phi_t) = q^2 (q+1) lies above it
    at every q >= 3, so the column is informational and never a verdict."""
    q, deg_m, psi_m, kappa_m, hsia = _modulus(m)
    return {
        "m": repr(m),
        "psi": psi_m,
        "kappa": str(kappa_m),
        "h_phi": None if phi_height is None else str(phi_height),
        "prop65_bound": _upper_float(_prop65_iv(q, deg_m, psi_m)),
        "hsia_main_term": str(hsia),
        "asymptotic_bound": _asymptotic(0.01, q, deg_m, psi_m),
    }


def thm1_part1_report(h_diff, deg_N, q, r, extra=None):
    bound = thm1_part1_bound(deg_N, q, r)
    inputs = {"deg_N": deg_N, "q": q, "r": r, **(extra or {})}
    return BoundReport(abs(Fraction(h_diff)), bound, inputs)


def thm1_part2_report(h_j, h_jprime, deg_f_log, q, extra=None):
    rhs, exact = _part2(deg_f_log, h_jprime, q)
    inputs = {"deg_f_log": deg_f_log, "h_jprime": str(Fraction(h_jprime)), "q": q, **(extra or {})}
    return BoundReport(Fraction(h_jprime) - Fraction(h_j), rhs, inputs, exact)


def prop65_report(m, h_phi):
    """h(Phi_m) against the Prop. 6.5 bound on it."""
    q, deg_m, psi_m, *_ = _modulus(m)
    return BoundReport(h_phi, lambda: _prop65_iv(q, deg_m, psi_m), {"m": repr(m), "q": q})
